// Self-tests of the benchmark's own measurement helpers (measure.h): the
// highest-supported-percentile rule, open-loop lateness accounting, and span
// self time. run.py runs this binary before every benchmark run; a failure
// aborts the run without a result.
#include <cmath>
#include <cstdio>
#include <string>

#include "measure.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace inflexbench;  // NOLINT

void TestPercentileRule() {
  // q = (n − 10) / n: the nearest-rank value keeps ten samples beyond it.
  EXPECT(Near(HighestSupportedPercentile(1000), 0.99));
  EXPECT(Near(HighestSupportedPercentile(200), 0.95));
  EXPECT(Near(HighestSupportedPercentile(11), 1.0 / 11.0));
  EXPECT(HighestSupportedPercentile(10) == 0.0);
  EXPECT(HighestSupportedPercentile(0) == 0.0);
  EXPECT(SupportsPercentile(1000, 0.99));
  EXPECT(!SupportsPercentile(999, 0.99));
  EXPECT(SupportsPercentile(200, 0.95));
  EXPECT(!SupportsPercentile(199, 0.95));
  EXPECT(SupportsPercentile(20, 0.5));
  EXPECT(!SupportsPercentile(19, 0.5));

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(Percentile(v, 0.5) == 50.0);
  EXPECT(Percentile(v, 0.99) == 99.0);
  EXPECT(Percentile(v, 1.0) == 100.0);
  EXPECT(Percentile(v, 0.0) == 1.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Percentile({}, 0.5) == 0.0);
  // 1000 samples: p99 is the 990th value, ten lie beyond it.
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  EXPECT(Percentile(w, 0.99) == 990.0);
}

void TestLatencyHistogram() {
  LatencyHistogram h;
  EXPECT(h.Percentile(0.5) == 0.0);
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT(h.count() == 1000);
  EXPECT(std::fabs(h.Percentile(0.5) / 500.0 - 1.0) < 0.005);
  EXPECT(std::fabs(h.Percentile(0.99) / 990.0 - 1.0) < 0.005);
  LatencyHistogram failed;
  for (int i = 0; i < 20; ++i) failed.Add(1e300 * 1e300);  // +inf
  h.Merge(failed);
  EXPECT(h.count() == 1020);
  EXPECT(std::isinf(h.Percentile(0.999)));  // failed calls rank last
  EXPECT(std::fabs(h.Percentile(0.5) / 510.0 - 1.0) < 0.005);
}

void TestOpenLoopLateness() {
  OpenLoopSchedule s(1000.0, 100.0);
  EXPECT(s.Due(0) == 1000.0);
  EXPECT(s.Due(3) == 1300.0);
  EXPECT(s.RecordSend(0, 1000.0) == 0.0);
  EXPECT(s.RecordSend(1, 1150.0) == 50.0);  // late by 50
  EXPECT(s.RecordSend(2, 1190.0) == 0.0);   // early is never late
  // A stall delays every send behind it; each is late from its own due time
  // (the schedule does not restart after the stall).
  EXPECT(s.RecordSend(3, 1700.0) == 400.0);
  EXPECT(s.RecordSend(4, 1701.0) == 301.0);
  EXPECT(s.max_late_us() == 400.0);
}

void TestSpanSelfTime() {
  SpanLog log;
  const uint32_t root = log.Add(7, 0, "root", 0.0, 100.0);
  const uint32_t a = log.Add(7, root, "a", 10.0, 30.0);
  log.Add(7, root, "b", 20.0, 50.0);   // overlaps a: counted once
  log.Add(7, root, "c", 90.0, 120.0);  // clipped to the parent's end
  log.Add(7, a, "a.child", 12.0, 18.0);
  log.Add(8, 0, "other", 0.0, 5.0);  // unrelated root
  const std::vector<double> self = SelfTimes(log.spans());
  EXPECT(Near(self[0], 100.0 - 40.0 - 10.0));
  EXPECT(Near(self[1], 20.0 - 6.0));
  EXPECT(Near(self[2], 30.0));
  EXPECT(Near(self[3], 30.0));
  EXPECT(Near(self[4], 6.0));
  EXPECT(Near(self[5], 5.0));
  // Self times partition the root: their sum over its tree (with the
  // clipped-off 20 µs of c outside) equals the root's duration.
  EXPECT(Near(self[0] + (self[1] + self[4]) + (50.0 - 30.0) + 10.0, 100.0));

  const auto by_name = SelfTimeByName(log.spans());
  EXPECT(Near(by_name.at("root"), 50.0));

  SpanLog merged;
  merged.Add(1, 0, "x", 0.0, 1.0);
  merged.Append(log);
  EXPECT(merged.spans().size() == 7);
  EXPECT(merged.spans()[1].id == 2 && merged.spans()[1].parent == 0);
  EXPECT(merged.spans()[2].parent == 2);  // a's parent: root, renumbered
  EXPECT(merged.spans()[5].parent == 3);  // a.child's parent: a, renumbered
  EXPECT(Near(SelfTimes(merged.spans())[1], self[0]));
}

void TestResultLine() {
  std::map<std::string, Metric> m;
  m["p50_ms"] = Metric{1.25, "ms"};
  const std::string line = ResultJson(true, 3, 0, m);
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  EXPECT(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestLatencyHistogram();
  TestOpenLoopLateness();
  TestSpanSelfTime();
  TestResultLine();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d failures\n", failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}

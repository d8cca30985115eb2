// Measurement helpers of the end-to-end benchmark: percentiles under the
// ten-samples-beyond rule, open-loop schedule accounting, trace spans and
// their self times, and the JSON result line. Self-tested by selftest.cc.
#ifndef INFLEXBENCH_MEASURE_H_
#define INFLEXBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace inflexbench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr size_t kTailSamples = 10;

/// The highest quantile q whose nearest-rank value still has at least `tail`
/// of the n samples strictly beyond it: q = (n − tail) / n, or 0 when
/// n ≤ tail (no percentile is supported).
double HighestSupportedPercentile(size_t n, size_t tail = kTailSamples);

/// True when the q-quantile of n samples has at least `tail` samples beyond.
bool SupportsPercentile(size_t n, double q, size_t tail = kTailSamples);

/// Nearest-rank q-quantile: the ceil(q·n)-th smallest value (the minimum for
/// q = 0). 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// \brief A latency histogram of constant size: log-spaced buckets growing
/// by 1% from 0.1 µs, plus one bucket for failed calls (+inf). Percentiles
/// are nearest-rank over the buckets and read as the bucket's geometric
/// centre, so they are within 0.5% of the exact sample percentile. Memory
/// does not grow with the number of calls, so peak RSS does not move with
/// throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// 0 when empty; +inf when the rank falls among failed calls.
  double Percentile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Microseconds on the steady clock since the first call in this process.
/// Every span, schedule and publish time of one run shares this base.
double NowMicros();

/// \brief A fixed-rate open-loop send schedule: send i is due at
/// start + i·interval, whatever happened to earlier sends. A send that
/// leaves after its due time is late by the difference; an early send is
/// never late. Latencies of open-loop work are measured from the due time,
/// so a stall also charges the sends queued behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_us, double interval_us);

  double Due(size_t i) const;
  /// Records that send i left at `sent_us`; returns its lateness in µs.
  double RecordSend(size_t i, double sent_us);

  double max_late_us() const;

 private:
  double start_us_;
  double interval_us_;
  std::vector<double> late_us_;
};

/// \brief One trace span: an interval on the NowMicros() clock, the request
/// it belongs to, and the span that caused it (0 = a root).
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

/// \brief An in-memory span log for one thread. Ids are positions + 1, so
/// logs merge by offsetting ids (Append).
class SpanLog {
 public:
  /// Records a finished span and returns its id.
  uint32_t Add(uint64_t request, uint32_t parent, const char* name,
               double start_us, double end_us);
  /// Appends `other`, renumbering its ids and parents past this log's.
  void Append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span (aligned with `spans`): its duration minus the
/// part of its interval covered by the union of its children's intervals
/// (children are clipped to the parent; overlapping children count once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Σ self time per span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// \brief A named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Renders the benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}; values keep all 17 digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

/// JSON string escaping for names and free text.
std::string JsonString(const std::string& s);

/// Steal and total jiffies of all CPUs (/proc/stat): the share of time a
/// virtual machine's CPUs were runnable but not running, a host fact that
/// explains noisy runs.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuJiffies ReadCpuJiffies();

/// CPU time (user + system) this process has used, in seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM) in MiB, 0 if unknown.
double PeakRssMb();

}  // namespace inflexbench

#endif  // INFLEXBENCH_MEASURE_H_

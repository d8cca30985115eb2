#include "measure.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace inflexbench {

double HighestSupportedPercentile(size_t n, size_t tail) {
  if (n <= tail) return 0.0;
  return static_cast<double>(n - tail) / static_cast<double>(n);
}

namespace {

/// 1-based nearest rank of quantile q among n samples. The small slack keeps
/// q·n that should be an integer (0.99·1000) from rounding one rank up.
size_t NearestRank(size_t n, double q) {
  const double scaled = q * static_cast<double>(n);
  const auto rank = static_cast<size_t>(std::ceil(scaled - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

bool SupportsPercentile(size_t n, double q, size_t tail) {
  return n > tail && q <= HighestSupportedPercentile(n, tail) + 1e-12;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

namespace {

constexpr double kHistogramMinUs = 0.1;
constexpr double kHistogramGrowth = 1.01;
constexpr size_t kHistogramBuckets = 2400;  // up to ~2.4e9 µs

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistogramBuckets + 1, 0) {}

void LatencyHistogram::Add(double us) {
  size_t b = kHistogramBuckets;  // failed calls and overflow
  if (std::isfinite(us)) {
    const double pos = std::log(std::max(us, kHistogramMinUs) / kHistogramMinUs) /
                       std::log(kHistogramGrowth);
    b = std::min(kHistogramBuckets - 1, static_cast<size_t>(pos));
  }
  ++buckets_[b];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const size_t rank = NearestRank(count_, q);
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      return kHistogramMinUs *
             std::pow(kHistogramGrowth, static_cast<double>(b) + 0.5);
    }
  }
  return std::numeric_limits<double>::infinity();
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point base = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - base)
      .count();
}

OpenLoopSchedule::OpenLoopSchedule(double start_us, double interval_us)
    : start_us_(start_us), interval_us_(interval_us) {}

double OpenLoopSchedule::Due(size_t i) const {
  return start_us_ + static_cast<double>(i) * interval_us_;
}

double OpenLoopSchedule::RecordSend(size_t i, double sent_us) {
  const double late = std::max(0.0, sent_us - Due(i));
  late_us_.push_back(late);
  return late;
}

double OpenLoopSchedule::max_late_us() const {
  return late_us_.empty() ? 0.0
                          : *std::max_element(late_us_.begin(), late_us_.end());
}

uint32_t SpanLog::Add(uint64_t request, uint32_t parent, const char* name,
                      double start_us, double end_us) {
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  spans_.push_back(s);
  return s.id;
}

void SpanLog::Append(const SpanLog& other) {
  const auto offset = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.id += offset;
    if (s.parent != 0) s.parent += offset;
    spans_.push_back(s);
  }
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  // Children per parent position (ids are positions + 1).
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t p = spans[i].parent;
    if (p != 0 && p <= spans.size()) children[p - 1].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (size_t c : children[i]) {
      const double a = std::max(s.start_us, spans[c].start_us);
      const double b = std::min(s.end_us, spans[c].end_us);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_a = 0.0;
    double run_b = -1.0;
    for (const auto& [a, b] : cover) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = (s.end_us - s.start_us) - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << JsonString(name) << ": {\"value\": " << JsonNumber(m.value)
       << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuJiffies j;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t v = 0;
    stat >> v;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace inflexbench

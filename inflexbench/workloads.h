// The three workloads, driven over loopback TCP from this process, and the
// checks that every answer they received is correct.
#ifndef INFLEXBENCH_WORKLOADS_H_
#define INFLEXBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "simplex/topic_distribution.h"
#include "world.h"

namespace inflexbench {

/// Answer size of every TIM query (the paper's k = 50, default kInflex).
inline constexpr size_t kQueryK = 50;
/// Traced queries replayed in process (p99 needs ≥ 1000 with ten beyond).
inline constexpr size_t kReplayQueries = 1200;

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// \brief A query the traced window sent, kept for the in-process replay.
struct TracedQuery {
  uint64_t request = 0;
  inflex::simplex::TopicDistribution item;
  uint64_t epoch = 0;
  uint64_t seeds_hash = 0;
  bool from_cache = false;
};

/// \brief Everything one workload run measured.
struct Outcome {
  /// Operations sent (queries and deltas) and those that failed, were shed
  /// or returned a wrong answer.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  /// Broken self-checks and mismatches, one line each; empty = correct.
  std::vector<std::string> problems;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Input properties and sample counts, recorded next to the numbers.
  std::map<std::string, double> inputs;
  /// Traced window only: spans of the wire calls and the queries to replay.
  SpanLog spans;
  std::vector<TracedQuery> traced;

  void Fail(const std::string& problem) { problems.push_back(problem); }
};

/// Runs `options.workload` against the started world for options.seconds.
/// With options.trace the window is split: an untraced first half (the
/// overhead baseline) and a traced second half.
Outcome RunWorkload(World& world, const RunOptions& options);

/// Replays the traced window's queries in process, in completion order,
/// through the public layer calls (QueryEngine::Query, InflexIndex::Query,
/// and BbTree::InflexSearch → weighting → rank::AggregateRankings composed
/// by hand), recording a span per call and the per-layer metrics. Runs for
/// at most `budget_s` seconds.
void RunReplay(World& world, double budget_s, Outcome* out);

/// Names of the workloads RunWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// FNV-1a over a ranked seed list: answers are compared by this hash.
uint64_t HashSeeds(const std::vector<uint32_t>& seeds);

}  // namespace inflexbench

#endif  // INFLEXBENCH_WORKLOADS_H_

#ifndef INFLEX_BENCH_COMMON_TESTBED_H_
#define INFLEX_BENCH_COMMON_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "data/workload.h"
#include "inflex/inflex_index.h"
#include "rank/ranked_list.h"
#include "tic/propagation_log.h"
#include "util/status.h"

namespace inflex {
namespace benchsupport {

/// \brief Scale of the experiment test-bed. The paper's Flixster setup
/// (30k users / 425k arcs / 12k items / h = 1000 / ℓ = 50) needed ~60 h of
/// CELF++ per index point; these scaled-down configurations regenerate every
/// table/figure on one core in minutes while preserving the result shapes.
struct TestbedConfig {
  size_t num_users = 2500;
  size_t num_topics = 8;
  size_t num_items = 3000;
  double avg_degree = 12.0;
  size_t num_index_points = 256;      // h
  size_t seed_list_length = 50;       // ℓ (paper value)
  size_t dirichlet_samples = 30000;
  size_t oracle_snapshots = 100;
  size_t tree_max_leaf_size = 16;
  size_t queries_data_driven = 30;
  size_t queries_uniform = 30;
  size_t spread_mc_simulations = 1500;
  uint64_t seed = 20140324;  // EDBT 2014 :-)

  /// Reads INFLEX_BENCH_SCALE (small|medium|large, default small).
  static TestbedConfig FromEnv();

  /// Cache-invalidation fingerprint: any parameter change rebuilds.
  std::string Fingerprint() const;
};

/// \brief Per-query offline ground truth: the CELF++ seed list computed from
/// scratch on the query's IC instance, and how long that took.
struct GroundTruth {
  rank::RankedList seeds;  // length ℓ
  double offline_seconds = 0.0;
};

/// \brief Everything the experiment binaries share. Building it is the heavy
/// offline phase (index precompute + per-query ground truth); it is cached
/// on disk so only the first bench binary of a session pays for it.
struct Testbed {
  TestbedConfig config;
  std::unique_ptr<data::SyntheticDataset> dataset;
  std::unique_ptr<core::InflexIndex> index;
  data::QueryWorkload workload;
  std::vector<GroundTruth> ground_truth;  // aligned with workload.queries

  const graph::TopicGraph& graph() const { return dataset->graph; }
};

/// Loads the cached test-bed (directory: $INFLEX_TESTBED_DIR or
/// ./inflex_testbed_cache) or builds and caches it. Prints progress to
/// stderr since the build can take a minute.
Result<std::shared_ptr<Testbed>> GetTestbed();

/// The test-bed's propagation log, which the test-bed does not hold (only
/// TIC learning reads it): loaded from the cache that GetTestbed made.
Result<tic::PropagationLog> LoadTestbedLog();

}  // namespace benchsupport
}  // namespace inflex

#endif  // INFLEX_BENCH_COMMON_TESTBED_H_

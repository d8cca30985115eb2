#ifndef INFLEX_IM_SPREAD_ESTIMATOR_H_
#define INFLEX_IM_SPREAD_ESTIMATOR_H_

#include <span>
#include <vector>

#include "graph/topic_graph.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace inflex {
namespace im {

/// \brief A Monte-Carlo estimate of the expected spread σ(S).
struct SpreadEstimate {
  double mean = 0.0;
  /// Standard error of the mean across simulations.
  double std_error = 0.0;
  size_t num_simulations = 0;
};

/// \brief Options for Monte-Carlo spread estimation.
struct MonteCarloOptions {
  size_t num_simulations = 1000;
  uint64_t seed = 42;
  /// Simulations are sharded across the pool when non-serial; pass nullptr
  /// to use the process-global pool, or set `parallel=false` for strictly
  /// serial execution (bit-reproducible independent of thread count either
  /// way: each simulation derives its RNG from its index).
  bool parallel = true;
  ThreadPool* pool = nullptr;
};

/// Estimates σ(S) on an IC instance by averaging independent cascade
/// realizations. This is the paper's evaluation primitive ("running Monte
/// Carlo simulations employing the TIC propagation model" — the TIC layer
/// materializes `arc_probs` from an item first). Fails on out-of-range seeds.
Result<SpreadEstimate> EstimateSpread(const graph::TopicGraph& g,
                                      const graph::ArcProbabilities& arc_probs,
                                      std::span<const graph::NodeId> seeds,
                                      const MonteCarloOptions& options = {});

/// \brief Output of any seed-selection algorithm. `seeds` is the ranked list
/// (selection order), which is exactly what the rank-aggregation layer
/// consumes — the paper stresses that "seed sets" are really ranked lists.
struct SeedSelectionResult {
  std::vector<graph::NodeId> seeds;
  /// Marginal gain recorded when each seed was selected (same order).
  std::vector<double> marginal_gains;
  /// Estimated spread of the full seed set under the selection oracle.
  double expected_spread = 0.0;
  /// Number of marginal-gain oracle evaluations performed (the classic
  /// efficiency metric for greedy vs CELF).
  size_t num_evaluations = 0;
};

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_SPREAD_ESTIMATOR_H_

#include "im/spread_estimator.h"

#include <cmath>
#include <memory>

#include "im/cascade.h"
#include "util/random.h"

namespace inflex {
namespace im {

Result<SpreadEstimate> EstimateSpread(const graph::TopicGraph& g,
                                      const graph::ArcProbabilities& arc_probs,
                                      std::span<const graph::NodeId> seeds,
                                      const MonteCarloOptions& options) {
  if (arc_probs.size() != g.num_arcs()) {
    return Status::InvalidArgument("arc probability vector size mismatch");
  }
  if (options.num_simulations == 0) {
    return Status::InvalidArgument("num_simulations must be positive");
  }
  for (graph::NodeId s : seeds) {
    if (s >= g.num_nodes()) return Status::OutOfRange("seed out of range");
  }
  if (seeds.empty()) {
    return SpreadEstimate{0.0, 0.0, options.num_simulations};
  }

  const size_t r = options.num_simulations;
  std::vector<double> counts(r);
  auto run_one = [&](size_t i) {
    // Deterministic per-simulation stream: results do not depend on thread
    // scheduling or pool size.
    Rng rng(options.seed ^ (0x51ed2700abcd1234ULL + i * 0x9e3779b97f4a7c15ULL));
    thread_local std::unique_ptr<CascadeWorkspace> ws;
    thread_local size_t ws_nodes = 0;
    if (ws == nullptr || ws_nodes != g.num_nodes()) {
      ws = std::make_unique<CascadeWorkspace>(g.num_nodes());
      ws_nodes = g.num_nodes();
    }
    counts[i] = static_cast<double>(
        SimulateCascadeCount(g, arc_probs, seeds, &rng, ws.get()));
  };

  if (options.parallel && r >= 32) {
    ParallelFor(0, r, run_one, options.pool);
  } else {
    for (size_t i = 0; i < r; ++i) run_one(i);
  }

  double sum = 0.0, sum_sq = 0.0;
  for (double c : counts) {
    sum += c;
    sum_sq += c * c;
  }
  SpreadEstimate est;
  est.num_simulations = r;
  est.mean = sum / static_cast<double>(r);
  if (r > 1) {
    const double var =
        (sum_sq - sum * sum / static_cast<double>(r)) /
        static_cast<double>(r - 1);
    est.std_error = std::sqrt(std::max(var, 0.0) / static_cast<double>(r));
  }
  return est;
}

}  // namespace im
}  // namespace inflex

#include "oracle/celfpp_oracle.h"

#include "im/celf.h"
#include "im/snapshot_oracle.h"

namespace inflex {
namespace oracle {

Result<im::SeedSelectionResult> OfflineTicSeeds(
    const graph::TopicGraph& g, const simplex::TopicDistribution& item,
    size_t k, const OfflineImOptions& options) {
  if (item.num_topics() != g.num_topics()) {
    return Status::InvalidArgument("item dimension does not match the graph");
  }
  im::SnapshotSpreadOracle::Options oopts;
  oopts.num_snapshots = options.num_snapshots;
  oopts.seed = options.seed;
  // Moved in, the probabilities are freed before the snapshots are sampled.
  INFLEX_ASSIGN_OR_RETURN(
      im::SnapshotSpreadOracle snapshots,
      im::SnapshotSpreadOracle::Create(g, g.ItemArcProbabilities(item), oopts));
  return im::SelectSeedsCelf(&snapshots, k, options.selection);
}

Result<im::SeedSelectionResult> OfflineIcSeeds(
    const graph::TopicGraph& g, size_t k, const OfflineImOptions& options) {
  return OfflineTicSeeds(
      g, simplex::TopicDistribution::Uniform(g.num_topics()), k, options);
}

Result<im::SeedSelectionResult> CelfPpOracle::SelectSeeds(
    const simplex::TopicDistribution& weights, size_t k, uint64_t salt) {
  INFLEX_RETURN_NOT_OK(ValidateRequest(weights, k));
  OfflineImOptions opts;
  opts.num_snapshots = options().num_snapshots;
  opts.seed = options().seed + salt;
  // Precomputes already run one-per-pool-worker; keep each serial so a batch
  // of admitted deltas parallelizes across items, not within one.
  opts.selection.parallel_first_iteration = false;
  return OfflineTicSeeds(graph(), weights, k, opts);
}

}  // namespace oracle
}  // namespace inflex

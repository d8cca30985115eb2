#ifndef INFLEX_ORACLE_CELFPP_ORACLE_H_
#define INFLEX_ORACLE_CELFPP_ORACLE_H_

#include "im/greedy.h"
#include "oracle/spread_oracle.h"

namespace inflex {
namespace oracle {

/// \brief Options of the offline seed computation.
struct OfflineImOptions {
  /// Live-edge snapshots backing the spread oracle (the paper used 5k plain
  /// Monte-Carlo trials; snapshots are the standard variance-reduced
  /// equivalent).
  size_t num_snapshots = 200;
  uint64_t seed = 31;
  im::SeedSelectionOptions selection;
};

/// "offline TIC": the ground truth of every experiment — materialize Eq. 1
/// arc probabilities, sample `num_snapshots` live-edge subgraphs, run lazy
/// greedy. This is what INFLEX approximates in milliseconds and what took the
/// authors ~60 hours per item at full scale. It is the one exact precompute
/// in the repo: InflexIndex::Build runs it per index point, CelfPpOracle per
/// admitted delta, and the golden-corpus regeneration per query (with its
/// segment candidate mask).
///
/// The paper runs CELF++; this runs CELF (im::SelectSeedsCelf). On the
/// exact snapshot oracle both select, in every round, the largest gain with
/// ties to the lowest node id, so they return the same seeds and gains, and
/// CELF skips CELF++'s pair evaluations (DESIGN.md, "Offline phase").
Result<im::SeedSelectionResult> OfflineTicSeeds(
    const graph::TopicGraph& g, const simplex::TopicDistribution& item,
    size_t k, const OfflineImOptions& options = {});

/// "offline IC": the topic-blind baseline — OfflineTicSeeds with a uniform
/// topic distribution (Table 2 shows it reaching less than half the TIC spread).
Result<im::SeedSelectionResult> OfflineIcSeeds(
    const graph::TopicGraph& g, size_t k, const OfflineImOptions& options = {});

/// \brief The golden-reference backend: OfflineTicSeeds per request, seeded
/// `seed + salt`. It stays the referee for the cheaper backends: snapshot
/// averaging is an unbiased σ estimator with no sketch/sampling shortcuts,
/// so RIS and sketch quality are always measured against it
/// (check_bench_json.py enforces the ratio). Every call samples fresh
/// snapshots; nothing is shared or cached. It keeps the `celfpp` name
/// (OracleBackend::kCelfPp, `--oracle celfpp`, QUALITY_report.json) for the
/// paper's algorithm, whose seeds it returns; it runs CELF.
class CelfPpOracle final : public SpreadOracle {
 public:
  CelfPpOracle(const graph::TopicGraph* graph,
               const SpreadOracleOptions& options)
      : SpreadOracle(graph, options) {}

  OracleBackend backend() const override { return OracleBackend::kCelfPp; }

  Result<im::SeedSelectionResult> SelectSeeds(
      const simplex::TopicDistribution& weights, size_t k,
      uint64_t salt) override;
};

}  // namespace oracle
}  // namespace inflex

#endif  // INFLEX_ORACLE_CELFPP_ORACLE_H_

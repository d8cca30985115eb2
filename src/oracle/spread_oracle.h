#ifndef INFLEX_ORACLE_SPREAD_ORACLE_H_
#define INFLEX_ORACLE_SPREAD_ORACLE_H_

#include <memory>
#include <span>
#include <string>

#include "graph/topic_graph.h"
#include "im/spread_estimator.h"
#include "simplex/topic_distribution.h"
#include "util/status.h"

namespace inflex {
namespace oracle {

/// \brief The pluggable seed-precompute backends (DESIGN.md §14).
enum class OracleBackend {
  /// Exact lazy greedy over a live-edge snapshot oracle — the original (and
  /// still golden-reference) precompute path of InflexIndex::Build and the
  /// maintenance plane. Named for the paper's CELF++, whose seeds it
  /// returns; it runs CELF (oracle::OfflineTicSeeds). Highest cost: the
  /// first greedy iteration evaluates every node against every snapshot.
  kCelfPp,
  /// Reverse Influence Sampling / TIM-style seed selection (Tang et al.):
  /// sample RR sets once, then greedy maximum coverage. Orders of magnitude
  /// cheaper than CELF++ at matching (1 − 1/e − ε) quality.
  kRis,
};

const char* OracleBackendName(OracleBackend backend);
Result<OracleBackend> ParseOracleBackend(const std::string& name);

/// \brief Tuning for a SpreadOracle. Zero-valued `seed` / `num_snapshots`
/// mean "inherit from context": an IndexMaintainer substitutes its own
/// `seed`; MakeSpreadOracle falls back to 97 / 150.
struct SpreadOracleOptions {
  OracleBackend backend = OracleBackend::kCelfPp;
  uint64_t seed = 0;
  /// kCelfPp: live-edge snapshots behind the SnapshotSpreadOracle.
  size_t num_snapshots = 0;
  /// RIS: reverse-reachable sets to sample (0 = 64 · num_nodes).
  size_t num_rr_sets = 0;
  /// Monte-Carlo simulations behind the default EstimateSpread.
  size_t eval_simulations = 400;
};

/// \brief A spread oracle answers the two questions the index-maintenance
/// plane asks per admitted catalog delta: "which k seeds?" and "how much
/// spread?" — on the item-specific IC instance of Eq. 1 (arc probabilities
/// p_{u,v} = Σ_z γ_z · p^z_{u,v} materialized from the topic weights).
///
/// Implementations must be safe for concurrent SelectSeeds/EstimateSpread
/// calls from multiple maintenance-pool workers.
class SpreadOracle {
 public:
  virtual ~SpreadOracle() = default;

  virtual OracleBackend backend() const = 0;
  const char* name() const { return OracleBackendName(backend()); }

  /// Selects k seeds for the instance weighted by `weights`. `salt`
  /// decorrelates the backend's sampling across calls while staying
  /// deterministic — the maintainer passes the admission ticket, so a replay
  /// of the same admission sequence reproduces every seed list bit-for-bit.
  virtual Result<im::SeedSelectionResult> SelectSeeds(
      const simplex::TopicDistribution& weights, size_t k,
      uint64_t salt = 0) = 0;

  /// Estimates σ(S) on the `weights` instance. The default runs the common
  /// Monte-Carlo estimator (im::EstimateSpread), so A/B quality comparisons
  /// across backends share one referee.
  virtual Result<double> EstimateSpread(
      const simplex::TopicDistribution& weights,
      std::span<const graph::NodeId> seeds) const;

 protected:
  SpreadOracle(const graph::TopicGraph* graph,
               const SpreadOracleOptions& options)
      : graph_(graph), options_(options) {}

  /// Shared argument validation for SelectSeeds implementations.
  Status ValidateRequest(const simplex::TopicDistribution& weights,
                         size_t k) const;

  const graph::TopicGraph& graph() const { return *graph_; }
  const SpreadOracleOptions& options() const { return options_; }

 private:
  const graph::TopicGraph* graph_;
  SpreadOracleOptions options_;
};

/// Builds the backend selected by `options.backend`. The graph must outlive
/// the oracle. Fails on an unknown backend or degenerate tuning.
Result<std::unique_ptr<SpreadOracle>> MakeSpreadOracle(
    const graph::TopicGraph* graph, SpreadOracleOptions options);

}  // namespace oracle
}  // namespace inflex

#endif  // INFLEX_ORACLE_SPREAD_ORACLE_H_

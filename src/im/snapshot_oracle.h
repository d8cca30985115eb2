#ifndef INFLEX_IM_SNAPSHOT_ORACLE_H_
#define INFLEX_IM_SNAPSHOT_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/topic_graph.h"
#include "im/spread_estimator.h"
#include "util/status.h"

namespace inflex {
namespace im {

/// \brief Live-edge snapshot spread oracle (Kempe et al.'s equivalence):
/// pre-samples W deterministic subgraphs by keeping each arc with its
/// influence probability; then σ(S) ≈ (1/W) Σ_g |reachable_g(S)|.
///
/// Supports the incremental protocol greedy/CELF/CELF++ need:
///  - MarginalGain(v): expected newly reached nodes if v joined the current
///    seed set, computed by BFS per snapshot skipping already-covered nodes;
///  - CommitSeed(v): permanently covers v's incremental reach;
/// Both are deterministic given the sampling seed, which makes lazy
/// (CELF-style) evaluation sound: a node's cached gain can only shrink as
/// the seed set grows (submodularity holds exactly per snapshot).
class SnapshotSpreadOracle {
 public:
  struct Options {
    size_t num_snapshots = 100;
    uint64_t seed = 7;
  };

  /// Samples the W snapshots of the IC instance: in snapshot order, each arc
  /// with p > 0 takes one draw and is kept when it lands below p; arcs with
  /// p <= 0 or NaN take none. Fails on a probability vector of the wrong
  /// size, zero snapshots, or W · max(m, 1) > UINT32_MAX (snapshot offsets
  /// are 32-bit), before allocating.
  static Result<SnapshotSpreadOracle> Create(
      const graph::TopicGraph& g, const graph::ArcProbabilities& arc_probs,
      const Options& options);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_snapshots() const { return num_snapshots_; }

  /// \brief Per-caller scratch (BFS stamps + frontier); one per thread when
  /// evaluating marginal gains concurrently.
  class Workspace {
   public:
    explicit Workspace(size_t num_nodes)
        : stamps_(num_nodes, 0), extra_stamps_(num_nodes, 0) {
      frontier_.reserve(64);
    }

   private:
    friend class SnapshotSpreadOracle;
    std::vector<uint32_t> stamps_;
    std::vector<uint32_t> extra_stamps_;  // marks an auxiliary covered set
    std::vector<graph::NodeId> frontier_;
    uint32_t epoch_ = 0;
    uint32_t extra_epoch_ = 0;
  };

  Workspace MakeWorkspace() const { return Workspace(num_nodes_); }

  /// The calling thread's own workspace, for marginal gains fanned out over
  /// a pool. One per thread, rebuilt whenever the thread meets an oracle of
  /// a different node count, so one thread can serve graphs of any size.
  Workspace* ThreadWorkspace() const;

  /// Average number of nodes v would newly reach across snapshots, given the
  /// currently committed seeds. Thread-safe w.r.t. other MarginalGain calls.
  double MarginalGain(graph::NodeId v, Workspace* ws) const;

  /// Marginal gains of `v` with respect to (a) the committed seeds — mg1 —
  /// and (b) the committed seeds plus `other` — mg2 — in one evaluation.
  /// This is the pair CELF++ maintains (gain w.r.t. S and w.r.t.
  /// S ∪ {prev_best}).
  void MarginalGainPair(graph::NodeId v, graph::NodeId other, Workspace* ws,
                        double* mg1, double* mg2) const;

  /// `other`'s incremental reach given the committed seeds, in every
  /// snapshot: reach[s * n + u] != 0 iff `other` newly reaches u in snapshot
  /// s. Valid until the next CommitSeed or ResetSeeds.
  std::vector<uint8_t> MarkReach(graph::NodeId other, Workspace* ws) const;

  /// MarginalGainPair with `other`'s reach read from MarkReach(other) instead
  /// of re-walked per call; the gains are identical. CELF++'s first round
  /// pairs all n nodes with the same best singleton, whose reach is the
  /// largest in the graph, so it marks that reach once.
  void MarginalGainPair(graph::NodeId v, std::span<const uint8_t> other_reach,
                        Workspace* ws, double* mg1, double* mg2) const;

  /// Commits `v` as a seed: its incremental reach becomes covered in every
  /// snapshot. Returns the realized marginal gain. Not thread-safe.
  double CommitSeed(graph::NodeId v, Workspace* ws);

  /// Spread estimate of the committed seed set.
  double CurrentSpread() const {
    return static_cast<double>(total_covered_) /
           static_cast<double>(num_snapshots_);
  }

  /// Clears the committed seed set (snapshots are kept).
  void ResetSeeds();

  /// One-shot spread of an arbitrary seed set under the snapshots (ignores
  /// committed seeds). Used by tests to cross-check the estimator.
  double SpreadOf(std::span<const graph::NodeId> seeds, Workspace* ws) const;

 private:
  SnapshotSpreadOracle() = default;

  // BFS from `other` over snapshot s's uncovered nodes, setting mark[t] =
  // value on every node it reaches (mark[] != value means unvisited).
  template <typename Mark>
  void MarkSnapshotReach(graph::NodeId other, size_t s, Mark* mark,
                         Mark value, Workspace* ws) const;

  // Pass 2 of a pair evaluation in snapshot s: BFS from v over uncovered
  // nodes, counting every newly reached node into gain1 and those outside
  // `other`'s reach (in_other(t) false) into gain2.
  template <typename InOther>
  void CountPair(graph::NodeId v, size_t s, const InOther& in_other,
                 Workspace* ws, uint64_t* gain1, uint64_t* gain2) const;

  // Snapshot adjacency, concatenated: snapshot g's arcs of node u live in
  // targets_[offsets_[g * (n+1) + u] .. offsets_[g * (n+1) + u + 1]).
  size_t num_nodes_ = 0;
  size_t num_snapshots_ = 0;
  std::vector<uint32_t> offsets_;
  std::vector<graph::NodeId> targets_;

  // covered_[g * n + v] != 0 iff v is reached by committed seeds in snapshot g.
  std::vector<uint8_t> covered_;
  uint64_t total_covered_ = 0;
};

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_SNAPSHOT_ORACLE_H_

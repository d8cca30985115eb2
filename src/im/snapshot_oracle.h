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
/// Supports the incremental protocol greedy and CELF need:
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
  /// p <= 0 or NaN take none. Every sampler variant (im/snapshot_sampler.h)
  /// yields the same snapshots. Fails on a probability vector of the wrong
  /// size, or on a shape internal::CheckSnapshotShape rejects (zero
  /// snapshots, n > 2³¹ because a kept target's top bit is its sink flag,
  /// or W · max(m, 1) > UINT32_MAX because targets and pair offsets are
  /// 32-bit), before allocating. The probabilities are released once the
  /// draws are laid out, so a caller that moves them in does not hold them
  /// through sampling.
  static Result<SnapshotSpreadOracle> Create(const graph::TopicGraph& g,
                                             graph::ArcProbabilities arc_probs,
                                             const Options& options);

  size_t num_nodes() const { return num_nodes_; }
  size_t num_snapshots() const { return num_snapshots_; }

  /// Create's high-water mark in bytes, from the capacities of the arrays
  /// that coexist there (one index point's transients in the offline
  /// phase): the larger of the arc probabilities with the draws, and the
  /// sampler's peak (internal::SnapshotArrays::peak_bytes).
  size_t create_peak_bytes() const { return create_peak_bytes_; }

  /// \brief Per-caller scratch (BFS stamps + a frontier of active pairs);
  /// one per thread when evaluating marginal gains concurrently.
  class Workspace {
   public:
    explicit Workspace(size_t num_nodes)
        : stamps_(num_nodes, 0), frontier_(num_nodes) {}

    /// Reach BFS runs made with this workspace (one per snapshot a gain
    /// evaluation could not settle without one).
    uint64_t bfs_runs() const { return bfs_runs_; }

   private:
    friend class SnapshotSpreadOracle;
    std::vector<uint32_t> stamps_;
    std::vector<uint32_t> frontier_;
    uint32_t epoch_ = 0;
    uint64_t bfs_runs_ = 0;
  };

  Workspace MakeWorkspace() const { return Workspace(num_nodes_); }

  /// The calling thread's own workspace, for marginal gains fanned out over
  /// a pool. One per thread, rebuilt whenever the thread meets an oracle of
  /// a different node count, so one thread can serve graphs of any size.
  Workspace* ThreadWorkspace() const;

  /// Average number of nodes v would newly reach across snapshots, given the
  /// currently committed seeds. Thread-safe w.r.t. other MarginalGain calls.
  /// Runs a BFS only in the snapshots where v is uncovered and keeps an
  /// out-arc; in every other snapshot where v is uncovered it reaches just
  /// itself.
  double MarginalGain(graph::NodeId v, Workspace* ws) const;

  /// MarginalGain of every node v in [begin, end), written to gains[v]
  /// (gains spans all nodes; no other slot is touched).
  void SingletonGains(graph::NodeId begin, graph::NodeId end, Workspace* ws,
                      std::span<double> gains) const;

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

  // How many nodes v newly reaches in snapshot s, v included, by BFS over
  // the uncovered nodes (v must be uncovered and active in s, with pair
  // number `pair`). Reached sinks are counted, never pushed.
  uint64_t CountReach(graph::NodeId v, size_t s, uint32_t pair,
                      Workspace* ws) const;

  // W · MarginalGain(v): W − covered_count_[v] snapshots where v is
  // uncovered, each reaching v itself, plus what v reaches beyond itself
  // in those of its active snapshots (its bits, one per row) where it is
  // uncovered.
  uint64_t ReachSum(graph::NodeId v, Workspace* ws) const;

  // Sparse snapshot adjacency (internal::SnapshotArrays): bit g · n + u of
  // active_bits_ is set iff u keeps an out-arc in snapshot g, and that
  // pair's kept targets, sinks flagged, are targets_[pair_offsets_[p] ..
  // pair_offsets_[p + 1]) for p = PairOf(g · n + u).
  size_t num_nodes_ = 0;
  size_t num_snapshots_ = 0;
  std::vector<uint64_t> active_bits_;
  std::vector<uint32_t> word_ranks_;
  std::vector<uint32_t> pair_offsets_;
  std::vector<graph::NodeId> targets_;
  bool Active(size_t bit) const {
    return (active_bits_[bit >> 6] >> (bit & 63)) & 1;
  }
  uint32_t PairOf(size_t bit) const;
  size_t create_peak_bytes_ = 0;

  // Bit g · n + v of covered_ is set iff v is reached by committed seeds in
  // snapshot g; covered_count_[v] counts the snapshots where it is.
  bool Covered(size_t bit) const {
    return (covered_[bit >> 6] >> (bit & 63)) & 1;
  }
  void Cover(size_t bit) { covered_[bit >> 6] |= uint64_t{1} << (bit & 63); }
  std::vector<uint64_t> covered_;
  std::vector<uint32_t> covered_count_;
  uint64_t total_covered_ = 0;
};

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_SNAPSHOT_ORACLE_H_

#ifndef INFLEX_GRAPH_TOPIC_GRAPH_H_
#define INFLEX_GRAPH_TOPIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "simplex/topic_distribution.h"
#include "util/check.h"
#include "util/status.h"

namespace inflex {
namespace graph {

using NodeId = uint32_t;
using ArcId = uint32_t;

/// Item-specific arc probabilities (one double per arc, aligned with the
/// graph's forward arc ids). This is what Eq. 1 materializes and what the
/// influence-maximization substrate consumes.
using ArcProbabilities = std::vector<double>;

/// \brief Immutable directed social graph in CSR form whose arcs carry one
/// influence probability per topic: p^z_{u,v} for z ∈ [0, Z).
///
/// Layout (cache-friendly for cascade simulation):
///  - `out_offsets_[u] .. out_offsets_[u+1]` indexes `out_targets_` /
///    per-arc probability rows (arc id = position in `out_targets_`).
///  - a reverse CSR (`in_*`) supports the TIC learner, which must enumerate
///    a node's potential influencers; `in_arc_ids_` maps each reverse slot
///    back to the forward arc id so probabilities are stored once.
class TopicGraph {
 public:
  TopicGraph() = default;

  size_t num_nodes() const { return num_nodes_; }
  size_t num_arcs() const { return out_targets_.size(); }
  size_t num_topics() const { return num_topics_; }

  /// Out-degree of node u.
  size_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }

  /// In-degree of node v.
  size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// First forward arc id of node u (arcs of u are contiguous).
  ArcId OutArcBegin(NodeId u) const {
    return static_cast<ArcId>(out_offsets_[u]);
  }

  /// Targets of node u's out-arcs.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u], OutDegree(u)};
  }

  /// Sources of node v's in-arcs.
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v], InDegree(v)};
  }

  /// Forward arc ids of node v's in-arcs, aligned with InNeighbors(v).
  std::span<const ArcId> InArcIds(NodeId v) const {
    return {in_arc_ids_.data() + in_offsets_[v], InDegree(v)};
  }

  /// Target of forward arc `a`.
  NodeId ArcTarget(ArcId a) const { return out_targets_[a]; }

  /// Influence probability of forward arc `a` on topic z.
  double ArcTopicProb(ArcId a, size_t z) const {
    return arc_topic_probs_[static_cast<size_t>(a) * num_topics_ + z];
  }

  /// All Z probabilities of forward arc `a`.
  std::span<const double> ArcTopicProbs(ArcId a) const {
    return {arc_topic_probs_.data() + static_cast<size_t>(a) * num_topics_,
            num_topics_};
  }

  /// Eq. 1 for the single arc `a`: Σ_z γ_z · p^z_a, summed in topic order.
  /// These are the bits ItemArcProbabilitiesInto writes for `a`; callers
  /// that test only some arcs (cascade simulation) compute just those.
  /// `item` must have num_topics() entries.
  double ItemArcProbability(ArcId a,
                            const simplex::TopicDistribution& item) const {
    const double* row =
        arc_topic_probs_.data() + static_cast<size_t>(a) * num_topics_;
    const double* gamma = item.probs().data();
    double p = 0.0;
    for (size_t z = 0; z < num_topics_; ++z) p += gamma[z] * row[z];
    return p;
  }

  /// Materializes the item-specific IC instance of Eq. 1:
  /// p_{u,v} = Σ_z γ_z · p^z_{u,v} for every arc.
  ArcProbabilities ItemArcProbabilities(
      const simplex::TopicDistribution& item) const;

  /// As above but writes into a caller-owned buffer (resized to num_arcs());
  /// lets the index builder reuse one allocation across many items.
  void ItemArcProbabilitiesInto(const simplex::TopicDistribution& item,
                                ArcProbabilities* out) const;

  /// Eq. 1 for arcs [begin, end) only, written to out[0 .. end − begin):
  /// the bits ItemArcProbabilitiesInto writes for them, with no per-arc
  /// vector. Requires begin <= end <= num_arcs().
  void ItemArcProbabilitiesRange(const simplex::TopicDistribution& item,
                                 ArcId begin, ArcId end, double* out) const;

  /// Replaces every arc's probability row. `probs` must be
  /// num_arcs() × num_topics(), arc-major. Used by the TIC learner to load
  /// learned parameters back into the graph.
  Status SetArcTopicProbabilities(std::vector<double> probs);

 private:
  friend class TopicGraphBuilder;
  friend Status SaveTopicGraph(const TopicGraph&, const std::string&);
  friend Result<TopicGraph> LoadTopicGraph(const std::string&);

  size_t num_nodes_ = 0;
  size_t num_topics_ = 0;
  std::vector<uint64_t> out_offsets_;   // size n+1
  std::vector<NodeId> out_targets_;     // size m
  std::vector<double> arc_topic_probs_;  // size m*Z, arc-major
  std::vector<uint64_t> in_offsets_;    // size n+1
  std::vector<NodeId> in_sources_;      // size m
  std::vector<ArcId> in_arc_ids_;       // size m
};

/// \brief Accumulates arcs and produces a validated TopicGraph.
class TopicGraphBuilder {
 public:
  /// A graph over `num_nodes` nodes and `num_topics` topics per arc.
  TopicGraphBuilder(size_t num_nodes, size_t num_topics);

  /// Adds the arc u→v with one probability per topic. Fails on out-of-range
  /// endpoints, self-loops, wrong probability count, or values outside
  /// [0, 1].
  Status AddArc(NodeId u, NodeId v, const std::vector<double>& topic_probs);

  /// Sizes the staging for `num_arcs` arcs, so adding that many allocates
  /// each array once.
  void Reserve(size_t num_arcs);

  size_t num_arcs_added() const { return sources_.size(); }

  /// Sorts arcs, rejects duplicates, and builds both CSR directions. The
  /// staged targets and probability rows become the graph's forward arrays:
  /// they are permuted into (source, target) order in place and moved,
  /// never copied. The builder is empty afterwards.
  Result<TopicGraph> Build();

 private:
  size_t num_nodes_;
  size_t num_topics_;
  std::vector<NodeId> sources_;
  std::vector<NodeId> targets_;
  std::vector<double> probs_;
};

}  // namespace graph
}  // namespace inflex

#endif  // INFLEX_GRAPH_TOPIC_GRAPH_H_

#ifndef INFLEX_IM_CASCADE_H_
#define INFLEX_IM_CASCADE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/topic_graph.h"
#include "util/random.h"

namespace inflex {
namespace im {

/// \brief Reusable scratch space for cascade simulation. One per thread;
/// avoids re-zeroing the visited array via epoch stamping.
class CascadeWorkspace {
 public:
  explicit CascadeWorkspace(size_t num_nodes)
      : stamps_(num_nodes, 0), frontier_() {
    frontier_.reserve(64);
  }

  /// Begins a fresh cascade: all nodes become unvisited in O(1) (amortized).
  void NextEpoch() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  bool Visited(graph::NodeId v) const { return stamps_[v] == epoch_; }
  void MarkVisited(graph::NodeId v) { stamps_[v] = epoch_; }

  std::vector<graph::NodeId>& frontier() { return frontier_; }

 private:
  std::vector<uint32_t> stamps_;
  std::vector<graph::NodeId> frontier_;
  uint32_t epoch_ = 0;
};

/// Runs one Independent Cascade realization from `seeds` on the IC instance
/// (graph topology + one probability per arc) and returns the number of
/// activated nodes (seeds included). Each arc (u,v) is tested exactly once
/// when u first activates, with success probability `arc_probs[arc]`.
size_t SimulateCascadeCount(const graph::TopicGraph& g,
                            const graph::ArcProbabilities& arc_probs,
                            std::span<const graph::NodeId> seeds, Rng* rng,
                            CascadeWorkspace* ws);

/// As SimulateCascadeCount but also appends every activated node to `out`
/// (cleared first), in activation order.
size_t SimulateCascadeNodes(const graph::TopicGraph& g,
                            const graph::ArcProbabilities& arc_probs,
                            std::span<const graph::NodeId> seeds, Rng* rng,
                            CascadeWorkspace* ws,
                            std::vector<graph::NodeId>* out);

/// As SimulateCascadeNodes on g.ItemArcProbabilities(item), with the same
/// draws and the same nodes, but each arc's Eq. 1 probability is computed
/// only when the cascade tests that arc. Used by the propagation-log
/// synthesizer, whose cascades test a small share of the arcs.
size_t SimulateItemCascadeNodes(const graph::TopicGraph& g,
                                const simplex::TopicDistribution& item,
                                std::span<const graph::NodeId> seeds, Rng* rng,
                                CascadeWorkspace* ws,
                                std::vector<graph::NodeId>* out);

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_CASCADE_H_

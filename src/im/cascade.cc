#include "im/cascade.h"

namespace inflex {
namespace im {

namespace {

// The one cascade loop. `arc_prob(a)` gives arc a's success probability; it
// is called only for an arc the cascade tests, right before its draw.
template <typename ArcProb, typename OnActivate>
size_t RunCascade(const graph::TopicGraph& g, ArcProb&& arc_prob,
                  std::span<const graph::NodeId> seeds, Rng* rng,
                  CascadeWorkspace* ws, OnActivate&& on_activate) {
  ws->NextEpoch();
  auto& frontier = ws->frontier();
  frontier.clear();
  size_t activated = 0;
  for (graph::NodeId s : seeds) {
    if (!ws->Visited(s)) {
      ws->MarkVisited(s);
      frontier.push_back(s);
      ++activated;
      on_activate(s);
    }
  }
  // BFS order matches the discrete-time unfolding of the IC model; since each
  // arc is tested at most once, processing order does not change the
  // distribution of the final active set.
  for (size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeId u = frontier[head];
    graph::ArcId a = g.OutArcBegin(u);
    for (graph::NodeId v : g.OutNeighbors(u)) {
      if (!ws->Visited(v) && rng->Bernoulli(arc_prob(a))) {
        ws->MarkVisited(v);
        frontier.push_back(v);
        ++activated;
        on_activate(v);
      }
      ++a;
    }
  }
  return activated;
}

}  // namespace

size_t SimulateCascadeCount(const graph::TopicGraph& g,
                            const graph::ArcProbabilities& arc_probs,
                            std::span<const graph::NodeId> seeds, Rng* rng,
                            CascadeWorkspace* ws) {
  return RunCascade(
      g, [&arc_probs](graph::ArcId a) { return arc_probs[a]; }, seeds, rng, ws,
      [](graph::NodeId) {});
}

size_t SimulateCascadeNodes(const graph::TopicGraph& g,
                            const graph::ArcProbabilities& arc_probs,
                            std::span<const graph::NodeId> seeds, Rng* rng,
                            CascadeWorkspace* ws,
                            std::vector<graph::NodeId>* out) {
  out->clear();
  return RunCascade(
      g, [&arc_probs](graph::ArcId a) { return arc_probs[a]; }, seeds, rng, ws,
      [out](graph::NodeId v) { out->push_back(v); });
}

size_t SimulateItemCascadeNodes(const graph::TopicGraph& g,
                                const simplex::TopicDistribution& item,
                                std::span<const graph::NodeId> seeds, Rng* rng,
                                CascadeWorkspace* ws,
                                std::vector<graph::NodeId>* out) {
  INFLEX_CHECK_EQ(item.num_topics(), g.num_topics());
  out->clear();
  return RunCascade(
      g, [&g, &item](graph::ArcId a) { return g.ItemArcProbability(a, item); },
      seeds, rng, ws, [out](graph::NodeId v) { out->push_back(v); });
}

}  // namespace im
}  // namespace inflex

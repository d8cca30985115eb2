#include "graph/topic_graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace inflex {
namespace graph {

ArcProbabilities TopicGraph::ItemArcProbabilities(
    const simplex::TopicDistribution& item) const {
  ArcProbabilities out;
  ItemArcProbabilitiesInto(item, &out);
  return out;
}

void TopicGraph::ItemArcProbabilitiesInto(
    const simplex::TopicDistribution& item, ArcProbabilities* out) const {
  out->resize(num_arcs());
  ItemArcProbabilitiesRange(item, 0, static_cast<ArcId>(num_arcs()),
                            out->data());
}

void TopicGraph::ItemArcProbabilitiesRange(
    const simplex::TopicDistribution& item, ArcId begin, ArcId end,
    double* out) const {
  INFLEX_CHECK_EQ(item.num_topics(), num_topics_);
  INFLEX_CHECK_LE(begin, end);
  INFLEX_CHECK_LE(end, num_arcs());
  const double* gamma = item.probs().data();
  const size_t z_count = num_topics_;
  const size_t m = end - begin;
  const double* probs = arc_topic_probs_.data() + begin * z_count;
  double* dst = out;
  // Four arcs' sums in flight hide the add latency; each sum still runs in
  // topic order, so every arc gets ItemArcProbability's bits.
  size_t a = 0;
  for (; a + 4 <= m; a += 4) {
    const double* r0 = probs + a * z_count;
    const double* r1 = r0 + z_count;
    const double* r2 = r1 + z_count;
    const double* r3 = r2 + z_count;
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
    for (size_t z = 0; z < z_count; ++z) {
      const double g = gamma[z];
      p0 += g * r0[z];
      p1 += g * r1[z];
      p2 += g * r2[z];
      p3 += g * r3[z];
    }
    dst[a] = p0;
    dst[a + 1] = p1;
    dst[a + 2] = p2;
    dst[a + 3] = p3;
  }
  for (; a < m; ++a) {
    dst[a] = ItemArcProbability(static_cast<ArcId>(begin + a), item);
  }
}

Status TopicGraph::SetArcTopicProbabilities(std::vector<double> probs) {
  if (probs.size() != num_arcs() * num_topics_) {
    return Status::InvalidArgument(
        "probability table size mismatch: expected num_arcs * num_topics");
  }
  for (double p : probs) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("arc probability outside [0, 1]");
    }
  }
  arc_topic_probs_ = std::move(probs);
  return Status::OK();
}

TopicGraphBuilder::TopicGraphBuilder(size_t num_nodes, size_t num_topics)
    : num_nodes_(num_nodes), num_topics_(num_topics) {
  INFLEX_CHECK_GT(num_nodes, 0u);
  INFLEX_CHECK_GT(num_topics, 0u);
}

Status TopicGraphBuilder::AddArc(NodeId u, NodeId v,
                                 const std::vector<double>& topic_probs) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::OutOfRange("arc endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  if (topic_probs.size() != num_topics_) {
    return Status::InvalidArgument("expected one probability per topic");
  }
  for (double p : topic_probs) {
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument("arc probability outside [0, 1]");
    }
  }
  sources_.push_back(u);
  targets_.push_back(v);
  probs_.insert(probs_.end(), topic_probs.begin(), topic_probs.end());
  return Status::OK();
}

void TopicGraphBuilder::Reserve(size_t num_arcs) {
  sources_.reserve(num_arcs);
  targets_.reserve(num_arcs);
  probs_.reserve(num_arcs * num_topics_);
}

Result<TopicGraph> TopicGraphBuilder::Build() {
  const size_t m = sources_.size();

  // Sort arcs by (source, target) via an index permutation: position i of
  // the forward arrays takes staged arc order[i].
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    if (sources_[a] != sources_[b]) return sources_[a] < sources_[b];
    return targets_[a] < targets_[b];
  });
  for (size_t i = 1; i < m; ++i) {
    const uint32_t a = order[i - 1], b = order[i];
    if (sources_[a] == sources_[b] && targets_[a] == targets_[b]) {
      return Status::InvalidArgument("duplicate arc " +
                                     std::to_string(sources_[a]) + "->" +
                                     std::to_string(targets_[a]));
    }
  }

  TopicGraph g;
  g.num_nodes_ = num_nodes_;
  g.num_topics_ = num_topics_;
  g.out_offsets_.assign(num_nodes_ + 1, 0);
  for (const NodeId u : sources_) g.out_offsets_[u + 1]++;
  for (size_t u = 0; u < num_nodes_; ++u) {
    g.out_offsets_[u + 1] += g.out_offsets_[u];
  }
  std::vector<NodeId>().swap(sources_);

  // Permute the staged targets and probability rows in place, one cycle of
  // the permutation at a time: the cycle's first arc is held aside, every
  // other position takes the arc it maps to, and order[i] = i marks
  // position i as placed. Arcs added in order are all fixed points.
  const size_t z_count = num_topics_;
  std::vector<double> held(z_count);
  for (size_t first = 0; first < m; ++first) {
    if (order[first] == first) continue;
    const NodeId held_target = targets_[first];
    std::copy_n(probs_.begin() + first * z_count, z_count, held.begin());
    size_t i = first;
    while (order[i] != first) {
      const size_t from = order[i];
      targets_[i] = targets_[from];
      std::copy_n(probs_.begin() + from * z_count, z_count,
                  probs_.begin() + i * z_count);
      order[i] = static_cast<uint32_t>(i);
      i = from;
    }
    targets_[i] = held_target;
    std::copy(held.begin(), held.end(), probs_.begin() + i * z_count);
    order[i] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t>().swap(order);
  g.out_targets_ = std::move(targets_);
  g.arc_topic_probs_ = std::move(probs_);
  targets_.clear();
  probs_.clear();

  // Reverse CSR.
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  g.in_sources_.resize(m);
  g.in_arc_ids_.resize(m);
  for (size_t a = 0; a < m; ++a) {
    g.in_offsets_[g.out_targets_[a] + 1]++;
  }
  for (size_t v = 0; v < num_nodes_; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  std::vector<uint64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (size_t u = 0; u < num_nodes_; ++u) {
    for (uint64_t a = g.out_offsets_[u]; a < g.out_offsets_[u + 1]; ++a) {
      const NodeId v = g.out_targets_[a];
      const uint64_t slot = cursor[v]++;
      g.in_sources_[slot] = static_cast<NodeId>(u);
      g.in_arc_ids_[slot] = static_cast<ArcId>(a);
    }
  }
  return g;
}

}  // namespace graph
}  // namespace inflex

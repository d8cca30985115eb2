#include "im/ris.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/random.h"

namespace inflex {
namespace im {

Result<SeedSelectionResult> SelectSeedsRis(
    const graph::TopicGraph& g, const graph::ArcProbabilities& arc_probs,
    size_t k, const RisOptions& options) {
  const size_t n = g.num_nodes();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > n) return Status::InvalidArgument("k exceeds the number of nodes");
  if (arc_probs.size() != g.num_arcs()) {
    return Status::InvalidArgument("arc probability vector size mismatch");
  }
  const size_t num_sets =
      options.num_rr_sets > 0 ? options.num_rr_sets : 64 * n;
  // RR-set ids are 32-bit; checked before anything is sampled or allocated.
  if (num_sets > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("num_rr_sets exceeds the 32-bit RR-set ids");
  }

  // --- Phase 1: sample RR sets. ------------------------------------------
  // A node u belongs to the RR set of root v iff u reaches v in the live-
  // edge realization, i.e. reverse-BFS from v crossing in-arcs with their
  // probabilities. We store the inverted index (node → RR-set ids), which
  // is all the coverage phase needs.
  Rng rng(options.seed);
  std::vector<std::vector<uint32_t>> sets_of_node(n);
  std::vector<uint32_t> stamps(n, 0);
  uint32_t epoch = 0;
  std::vector<graph::NodeId> frontier;
  frontier.reserve(64);

  for (uint32_t set_id = 0; set_id < num_sets; ++set_id) {
    const graph::NodeId root = static_cast<graph::NodeId>(rng.UniformInt(n));
    ++epoch;
    frontier.clear();
    frontier.push_back(root);
    stamps[root] = epoch;
    sets_of_node[root].push_back(set_id);
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId v = frontier[head];
      const auto sources = g.InNeighbors(v);
      const auto arc_ids = g.InArcIds(v);
      for (size_t i = 0; i < sources.size(); ++i) {
        const graph::NodeId u = sources[i];
        if (stamps[u] != epoch && rng.Bernoulli(arc_probs[arc_ids[i]])) {
          stamps[u] = epoch;
          frontier.push_back(u);
          sets_of_node[u].push_back(set_id);
        }
      }
    }
  }

  // --- Phase 2: greedy maximum coverage with lazy evaluation. -------------
  SeedSelectionResult result;
  result.seeds.reserve(k);
  std::vector<uint8_t> covered(num_sets, 0);
  std::vector<size_t> degree(n);
  for (size_t v = 0; v < n; ++v) degree[v] = sets_of_node[v].size();

  using Entry = std::pair<size_t, graph::NodeId>;  // (coverage, node)
  // Max-heap on coverage with ties broken toward the smaller node id, so
  // selection among exact ties is deterministic (replay tests depend on it).
  const auto heap_less = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(heap_less)> heap(
      heap_less);
  for (size_t v = 0; v < n; ++v) {
    heap.push({degree[v], static_cast<graph::NodeId>(v)});
  }
  const double scale = static_cast<double>(n) / static_cast<double>(num_sets);
  std::vector<uint8_t> chosen(n, 0);
  size_t total_covered = 0;
  while (result.seeds.size() < k && !heap.empty()) {
    auto [cov, v] = heap.top();
    heap.pop();
    if (chosen[v]) continue;
    // Lazy refresh: recount uncovered sets (monotone non-increasing).
    size_t fresh = 0;
    for (uint32_t s : sets_of_node[v]) fresh += covered[s] == 0;
    ++result.num_evaluations;
    if (fresh < cov) {
      heap.push({fresh, v});
      continue;
    }
    chosen[v] = 1;
    for (uint32_t s : sets_of_node[v]) {
      if (!covered[s]) {
        covered[s] = 1;
        ++total_covered;
      }
    }
    result.seeds.push_back(v);
    result.marginal_gains.push_back(static_cast<double>(fresh) * scale);
  }
  result.expected_spread = static_cast<double>(total_covered) * scale;
  return result;
}

}  // namespace im
}  // namespace inflex

#include "im/celfpp.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

namespace inflex {
namespace im {

namespace {

constexpr graph::NodeId kInvalidNode =
    std::numeric_limits<graph::NodeId>::max();

struct HeapEntry {
  double gain;
  graph::NodeId node;

  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;
  }
};

}  // namespace

Result<SeedSelectionResult> SelectSeedsCelfPp(
    SnapshotSpreadOracle* oracle, size_t k,
    const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  INFLEX_RETURN_NOT_OK(ValidateCandidateMask(options, n, k).status());

  oracle->ResetSeeds();
  SeedSelectionResult result;
  auto ws = oracle->MakeWorkspace();

  // Per-node CELF++ state.
  std::vector<double> mg1(n), mg2(n);
  std::vector<graph::NodeId> prev_best(n, kInvalidNode);
  std::vector<uint32_t> flag(n, 0);

  // First round: every singleton gain, in node blocks that each sweep the
  // snapshots once and write only their own slots. It counts as n
  // evaluations, including the mg2 each node gets below.
  constexpr size_t kBlock = 256;
  if (options.parallel_first_iteration && n >= kBlock) {
    ParallelFor(
        0, (n + kBlock - 1) / kBlock,
        [&](size_t b) {
          oracle->SingletonGains(
              static_cast<graph::NodeId>(b * kBlock),
              static_cast<graph::NodeId>(std::min(n, (b + 1) * kBlock)),
              oracle->ThreadWorkspace(), mg1);
        },
        options.pool);
  } else {
    oracle->SingletonGains(0, static_cast<graph::NodeId>(n), &ws, mg1);
  }
  result.num_evaluations += n;

  graph::NodeId best0 = kInvalidNode;
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    if (best0 == kInvalidNode || mg1[v] > mg1[best0]) {
      best0 = static_cast<graph::NodeId>(v);
    }
  }
  INFLEX_CHECK_NE(best0, kInvalidNode);
  // Each node's first-round mg2 conditions on best0, which the lazy loop
  // selects first, and is read only while best0 is the sole seed. There it
  // equals MarginalGain(v): best0's reach is closed under successors, so the
  // part of v's reach outside it is exactly what a BFS avoiding it counts.
  // So it is computed at that read instead of for all n nodes up front.
  for (size_t v = 0; v < n; ++v) {
    if (v != best0) prev_best[v] = best0;
  }

  std::priority_queue<HeapEntry> heap;
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    heap.push({mg1[v], static_cast<graph::NodeId>(v)});
  }

  std::vector<uint8_t> seeded(n, 0);
  graph::NodeId last_seed = kInvalidNode;
  graph::NodeId cur_best = kInvalidNode;
  double cur_best_gain = -1.0;

  while (result.seeds.size() < k && !heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const graph::NodeId u = top.node;
    if (seeded[u] || top.gain != mg1[u]) continue;  // stale duplicate
    const uint32_t cur_size = static_cast<uint32_t>(result.seeds.size());

    if (flag[u] == cur_size) {
      // Fresh: select u.
      oracle->CommitSeed(u, &ws);
      result.seeds.push_back(u);
      result.marginal_gains.push_back(mg1[u]);
      seeded[u] = 1;
      last_seed = u;
      cur_best = kInvalidNode;
      cur_best_gain = -1.0;
      continue;
    }

    if (prev_best[u] == last_seed && flag[u] + 1 == cur_size &&
        last_seed != kInvalidNode) {
      // The node that became a seed is exactly the one mg2 conditioned on:
      // reuse it, saving an oracle evaluation. The first round's mg2 is
      // evaluated only now (cur_size == 1), as the comment above explains.
      mg1[u] = cur_size == 1 ? oracle->MarginalGain(u, &ws) : mg2[u];
      // mg2 is now stale; conditioning on the (unknown) next best is covered
      // by the recompute branch on a later surfacing.
      prev_best[u] = kInvalidNode;
    } else if (cur_best != kInvalidNode && cur_best != u) {
      oracle->MarginalGainPair(u, cur_best, &ws, &mg1[u], &mg2[u]);
      prev_best[u] = cur_best;
      ++result.num_evaluations;
    } else {
      mg1[u] = oracle->MarginalGain(u, &ws);
      mg2[u] = mg1[u];
      prev_best[u] = kInvalidNode;
      ++result.num_evaluations;
    }
    flag[u] = cur_size;
    if (mg1[u] > cur_best_gain) {
      cur_best_gain = mg1[u];
      cur_best = u;
    }
    heap.push({mg1[u], u});
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

}  // namespace im
}  // namespace inflex

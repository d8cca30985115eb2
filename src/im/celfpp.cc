#include "im/celfpp.h"

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

  // Initial pass: mg1 of every singleton, in parallel. mg2 w.r.t. the
  // eventual global best singleton is filled in a second parallel pass, so
  // the parallel code matches the sequential semantics ("cur_best after
  // examining all nodes" = the global argmax).
  if (options.parallel_first_iteration && n >= 256) {
    ParallelFor(
        0, n,
        [&](size_t v) {
          mg1[v] = oracle->MarginalGain(static_cast<graph::NodeId>(v),
                                        oracle->ThreadWorkspace());
        },
        options.pool);
  } else {
    for (size_t v = 0; v < n; ++v) {
      mg1[v] = oracle->MarginalGain(static_cast<graph::NodeId>(v), &ws);
    }
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
  {
    // Every pair below conditions on best0, the node with the largest reach:
    // mark that reach once instead of re-walking it in each of the n pairs
    // (freed before the lazy loop).
    const std::vector<uint8_t> best0_reach = oracle->MarkReach(best0, &ws);
    auto fill_mg2 = [&](size_t v) {
      if (v == best0) {
        mg2[v] = mg1[v];
        prev_best[v] = kInvalidNode;
        return;
      }
      double a = 0.0, b = 0.0;
      oracle->MarginalGainPair(static_cast<graph::NodeId>(v), best0_reach,
                               oracle->ThreadWorkspace(), &a, &b);
      mg1[v] = a;  // identical to the first pass (deterministic oracle)
      mg2[v] = b;
      prev_best[v] = best0;
    };
    if (options.parallel_first_iteration && n >= 256) {
      ParallelFor(0, n, fill_mg2, options.pool);
    } else {
      for (size_t v = 0; v < n; ++v) fill_mg2(v);
    }
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
      // reuse it, saving an oracle evaluation.
      mg1[u] = mg2[u];
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

#include "im/celf.h"

#include <algorithm>
#include <queue>
#include <vector>

namespace inflex {
namespace im {

namespace {

struct HeapEntry {
  double gain;
  graph::NodeId node;
  uint32_t flag;  // |S| at the time `gain` was computed

  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;  // deterministic tie-break: smaller node first
  }
};

}  // namespace

Result<SeedSelectionResult> SelectSeedsCelf(
    SnapshotSpreadOracle* oracle, size_t k,
    const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  INFLEX_RETURN_NOT_OK(ValidateCandidateMask(options, n, k).status());

  oracle->ResetSeeds();
  SeedSelectionResult result;
  auto ws = oracle->MakeWorkspace();

  // Initial pass: gain of every singleton (parallelizable).
  std::vector<double> init_gains(n);
  if (options.parallel_first_iteration && n >= 256) {
    ParallelFor(
        0, n,
        [&](size_t v) {
          init_gains[v] = oracle->MarginalGain(static_cast<graph::NodeId>(v),
                                               oracle->ThreadWorkspace());
        },
        options.pool);
  } else {
    for (size_t v = 0; v < n; ++v) {
      init_gains[v] = oracle->MarginalGain(static_cast<graph::NodeId>(v), &ws);
    }
  }
  result.num_evaluations += n;

  std::priority_queue<HeapEntry> heap;
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    heap.push({init_gains[v], static_cast<graph::NodeId>(v), 0});
  }

  while (result.seeds.size() < k) {
    HeapEntry top = heap.top();
    heap.pop();
    const uint32_t cur_size = static_cast<uint32_t>(result.seeds.size());
    if (top.flag == cur_size) {
      // Fresh w.r.t. the current seed set: greedy-optimal by submodularity.
      oracle->CommitSeed(top.node, &ws);
      result.seeds.push_back(top.node);
      result.marginal_gains.push_back(top.gain);
    } else {
      top.gain = oracle->MarginalGain(top.node, &ws);
      top.flag = cur_size;
      ++result.num_evaluations;
      heap.push(top);
    }
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

}  // namespace im
}  // namespace inflex

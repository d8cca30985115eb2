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
  // The thread's own workspace: one index point after another on a pool
  // thread reuses it instead of allocating one per run.
  SnapshotSpreadOracle::Workspace* ws = oracle->ThreadWorkspace();

  // First round: every singleton gain, in node blocks that write only their
  // own slots.
  std::vector<double> init_gains(n);
  constexpr size_t kBlock = 256;
  if (options.parallel_first_iteration && n >= kBlock) {
    ParallelFor(
        0, (n + kBlock - 1) / kBlock,
        [&](size_t b) {
          oracle->SingletonGains(
              static_cast<graph::NodeId>(b * kBlock),
              static_cast<graph::NodeId>(std::min(n, (b + 1) * kBlock)),
              oracle->ThreadWorkspace(), init_gains);
        },
        options.pool);
  } else {
    oracle->SingletonGains(0, static_cast<graph::NodeId>(n), ws, init_gains);
  }
  result.num_evaluations += n;

  // Entries are totally ordered (distinct nodes), so heapifying them at
  // once pops them in the same order as pushing them one by one.
  std::vector<HeapEntry> entries;
  entries.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    if (!IsCandidate(options, v)) continue;
    entries.push_back({init_gains[v], static_cast<graph::NodeId>(v), 0});
  }
  std::priority_queue<HeapEntry> heap(std::less<HeapEntry>(),
                                      std::move(entries));

  while (result.seeds.size() < k) {
    HeapEntry top = heap.top();
    heap.pop();
    const uint32_t cur_size = static_cast<uint32_t>(result.seeds.size());
    if (top.flag == cur_size) {
      // Fresh w.r.t. the current seed set: greedy-optimal by submodularity.
      oracle->CommitSeed(top.node, ws);
      result.seeds.push_back(top.node);
      result.marginal_gains.push_back(top.gain);
    } else {
      top.gain = oracle->MarginalGain(top.node, ws);
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

#include "im/greedy.h"

#include <limits>

namespace inflex {
namespace im {

Result<size_t> ValidateCandidateMask(const SeedSelectionOptions& options,
                                     size_t num_nodes, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (options.candidate_mask.empty()) {
    if (k > num_nodes) {
      return Status::InvalidArgument("k exceeds the number of nodes");
    }
    return num_nodes;
  }
  if (options.candidate_mask.size() != num_nodes) {
    return Status::InvalidArgument(
        "candidate mask must have one entry per node");
  }
  size_t eligible = 0;
  for (uint8_t c : options.candidate_mask) eligible += c != 0;
  if (k > eligible) {
    return Status::InvalidArgument(
        "k exceeds the number of eligible candidate seeds");
  }
  return eligible;
}

Result<SeedSelectionResult> SelectSeedsGreedy(
    SnapshotSpreadOracle* oracle, size_t k,
    const SeedSelectionOptions& options) {
  const size_t n = oracle->num_nodes();
  INFLEX_RETURN_NOT_OK(ValidateCandidateMask(options, n, k).status());

  oracle->ResetSeeds();
  SeedSelectionResult result;
  result.seeds.reserve(k);
  result.marginal_gains.reserve(k);

  std::vector<double> gains(n);
  std::vector<uint8_t> selected(n, 0);
  auto ws = oracle->MakeWorkspace();

  for (size_t iter = 0; iter < k; ++iter) {
    if (iter == 0 && options.parallel_first_iteration && n >= 256) {
      ParallelFor(
          0, n,
          [&](size_t v) {
            gains[v] = oracle->MarginalGain(static_cast<graph::NodeId>(v),
                                            oracle->ThreadWorkspace());
          },
          options.pool);
      result.num_evaluations += n;
    } else {
      for (size_t v = 0; v < n; ++v) {
        if (selected[v] || !IsCandidate(options, v)) continue;
        gains[v] = oracle->MarginalGain(static_cast<graph::NodeId>(v), &ws);
        ++result.num_evaluations;
      }
    }
    double best_gain = -std::numeric_limits<double>::infinity();
    size_t best_v = n;
    for (size_t v = 0; v < n; ++v) {
      if (selected[v] || !IsCandidate(options, v)) continue;
      if (gains[v] > best_gain) {
        best_gain = gains[v];
        best_v = v;
      }
    }
    selected[best_v] = 1;
    oracle->CommitSeed(static_cast<graph::NodeId>(best_v), &ws);
    result.seeds.push_back(static_cast<graph::NodeId>(best_v));
    result.marginal_gains.push_back(best_gain);
  }
  result.expected_spread = oracle->CurrentSpread();
  return result;
}

}  // namespace im
}  // namespace inflex

#include "rank/aggregators.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "rank/kendall_tau.h"
#include "rank/local_kemenization.h"
#include "rank/markov_chain.h"

namespace inflex {
namespace rank {

namespace {

// Borda^w aligned with `items`, the union of `lists` in first-appearance
// order: one pass over the lists, no pairwise tally.
std::vector<double> BordaScores(const RankedList& items,
                                const std::vector<RankedList>& lists,
                                const std::vector<double>& weights) {
  std::unordered_map<Item, size_t> slot_of;
  slot_of.reserve(items.size() * 2);
  for (size_t i = 0; i < items.size(); ++i) slot_of[items[i]] = i;

  size_t ell = 0;
  for (const auto& list : lists) ell = std::max(ell, list.size());

  std::vector<double> scores(items.size(), 0.0);
  for (size_t j = 0; j < lists.size(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    for (size_t r = 0; r < lists[j].size(); ++r) {
      // Rank r (0-based) gets Borda score ℓ − r (i.e. ℓ − τ(v) + 1 with
      // 1-based ranks as in the paper).
      scores[slot_of.at(lists[j][r])] += w * static_cast<double>(ell - r);
    }
  }
  return scores;
}

// Orders the slots of `items` by (score desc, item id asc), Local-Kemenizes
// that order against `lk` unless it is null, and keeps the first k.
RankedList TopK(const RankedList& items, const std::vector<double>& scores,
                const PreferenceMatrix* lk, size_t k) {
  std::vector<size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return items[a] < items[b];
  });
  if (lk != nullptr) LocalKemenization(*lk, &order);
  RankedList top(std::min(k, order.size()));
  for (size_t i = 0; i < top.size(); ++i) top[i] = items[order[i]];
  return top;
}

}  // namespace

Result<std::vector<double>> WeightedBordaScores(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  INFLEX_RETURN_NOT_OK(PreferenceMatrix::Validate(lists, weights));
  return BordaScores(UnionOfLists(lists), lists, weights);
}

std::vector<double> WeightedCopelandScores(const PreferenceMatrix& pm) {
  const size_t m = pm.num_items();
  std::vector<double> scores(m, 0.0);
  for (size_t x = 0; x < m; ++x) {
    for (size_t y = 0; y < m; ++y) {
      if (x != y && pm.Beats(x, y)) scores[x] += 1.0;
    }
  }
  return scores;
}

Result<RankedList> AggregateRankings(const std::vector<RankedList>& lists,
                                     const std::vector<double>& weights,
                                     size_t k,
                                     const AggregationOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  const std::vector<double> unweighted;
  const std::vector<double>& w = options.use_weights ? weights : unweighted;

  if (options.method == AggregationMethod::kBorda &&
      !options.local_kemenization) {
    INFLEX_RETURN_NOT_OK(PreferenceMatrix::Validate(lists, w));
    const RankedList items = UnionOfLists(lists);
    return TopK(items, BordaScores(items, lists, w), nullptr, k);
  }

  INFLEX_ASSIGN_OR_RETURN(const PreferenceMatrix pm,
                          PreferenceMatrix::Build(lists, w));
  std::vector<double> scores;
  switch (options.method) {
    case AggregationMethod::kBorda:
      scores = BordaScores(pm.items(), lists, w);
      break;
    case AggregationMethod::kCopeland:
      scores = WeightedCopelandScores(pm);
      break;
    case AggregationMethod::kMarkovChainMc4: {
      INFLEX_ASSIGN_OR_RETURN(scores, Mc4StationaryDistribution(pm));
      break;
    }
  }
  return TopK(pm.items(), scores, options.local_kemenization ? &pm : nullptr,
              k);
}

Result<double> KemenyObjective(const RankedList& candidate,
                               const std::vector<RankedList>& lists,
                               const std::vector<double>& weights,
                               double top_l_penalty) {
  INFLEX_RETURN_NOT_OK(PreferenceMatrix::Validate(lists, weights));
  INFLEX_RETURN_NOT_OK(ValidateRankedList(candidate));
  if (candidate.empty()) {
    return Status::InvalidArgument("candidate list is empty");
  }
  TopLKendallOptions kt;
  kt.p = top_l_penalty;
  double total = 0.0, total_weight = 0.0;
  for (size_t j = 0; j < lists.size(); ++j) {
    const double wj = weights.empty() ? 1.0 : weights[j];
    const size_t ell = std::min(candidate.size(), lists[j].size());
    RankedList c(candidate.begin(), candidate.begin() + ell);
    RankedList l(lists[j].begin(), lists[j].begin() + ell);
    INFLEX_ASSIGN_OR_RETURN(const double d, KendallTauTopL(c, l, kt));
    total += wj * d;
    total_weight += wj;
  }
  if (total_weight == 0.0) {
    return Status::InvalidArgument("all weights are zero");
  }
  return total / total_weight;
}

}  // namespace rank
}  // namespace inflex

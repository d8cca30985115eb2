#include "rank/aggregators.h"

#include <algorithm>
#include <numeric>

#include "rank/kendall_tau.h"
#include "rank/local_kemenization.h"
#include "rank/vote_kernel.h"
#include "util/bound_capacity.h"

namespace inflex {
namespace rank {

namespace {

// Borda^w into `scores`, aligned with `pm.items()`: one pass over the lists.
void BordaScores(const PreferenceMatrix& pm,
                 const std::vector<RankedList>& lists,
                 const std::vector<double>& weights,
                 std::vector<double>* scores) {
  size_t ell = 0;
  for (const auto& list : lists) ell = std::max(ell, list.size());

  scores->assign(pm.num_items(), 0.0);
  for (size_t j = 0; j < lists.size(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    for (size_t r = 0; r < lists[j].size(); ++r) {
      // Rank r (0-based) gets Borda score ℓ − r (i.e. ℓ − τ(v) + 1 with
      // 1-based ranks as in the paper).
      (*scores)[*pm.SlotOf(lists[j][r])] += w * static_cast<double>(ell - r);
    }
  }
}

// Copeland^w into `scores` from the vote kernel's rows: row x decides each
// pair (x, y > x) once, crediting whichever side strictly wins. The scores
// are exact integer counts, so the order of the credits does not matter.
void CopelandScores(const PreferenceMatrix& pm, std::vector<double>* scores,
                    std::vector<double>* votes_for,
                    std::vector<double>* votes_against) {
  const size_t m = pm.num_items();
  scores->assign(m, 0.0);
  votes_for->resize(pm.row_stride());
  votes_against->resize(pm.row_stride());
  const double* f = votes_for->data();
  const double* a = votes_against->data();
  double* s = scores->data();
  for (size_t x = 0; x + 1 < m; ++x) {
    pm.VoteRows(x, x + 1, votes_for->data(), votes_against->data());
    size_t wins = 0;
    for (size_t y = x + 1; y < m; ++y) {
      wins += f[y] > a[y];
      s[y] += a[y] > f[y] ? 1.0 : 0.0;
    }
    s[x] += static_cast<double>(wins);
  }
}

// Orders the slots of `items` by (score desc, item id asc) into `order`,
// Local-Kemenizes that order against `lk` unless it is null, and keeps the
// first k.
RankedList TopK(const RankedList& items, const std::vector<double>& scores,
                const PreferenceMatrix* lk, size_t k,
                std::vector<size_t>* order) {
  order->resize(items.size());
  std::iota(order->begin(), order->end(), 0u);
  std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return items[a] < items[b];
  });
  if (lk != nullptr) LocalKemenization(*lk, order);
  RankedList top(std::min(k, order->size()));
  for (size_t i = 0; i < top.size(); ++i) top[i] = items[(*order)[i]];
  return top;
}

}  // namespace

Result<std::vector<double>> WeightedBordaScores(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  INFLEX_ASSIGN_OR_RETURN(const PreferenceMatrix pm,
                          PreferenceMatrix::Build(lists, weights));
  std::vector<double> scores;
  BordaScores(pm, lists, weights, &scores);
  return scores;
}

std::vector<double> WeightedCopelandScores(const PreferenceMatrix& pm) {
  std::vector<double> scores, votes_for, votes_against;
  CopelandScores(pm, &scores, &votes_for, &votes_against);
  return scores;
}

size_t AggregationContext::retained_bytes() const {
  return pm_.items_.capacity() * sizeof(Item) +
         pm_.ranks_.capacity() * sizeof(uint32_t) +
         pm_.weights_.capacity() * sizeof(double) +
         pm_.slot_table_.capacity() * sizeof(PreferenceMatrix::SlotEntry) +
         pm_.list_slots_.capacity() * sizeof(uint32_t) +
         scores_.capacity() * sizeof(double) +
         order_.capacity() * sizeof(size_t) +
         (votes_for_.capacity() + votes_against_.capacity()) * sizeof(double);
}

Status AggregationContext::Prepare(const std::vector<RankedList>& lists,
                                   const std::vector<double>& weights) {
  using util::BoundCapacity;
  // Every bound follows from Σℓ, which caps the union size.
  size_t total = 0;
  for (const auto& list : lists) total += list.size();
  const size_t stride = total + internal::kVoteBlock;
  size_t buckets = 16;
  while (buckets < 2 * total) buckets *= 2;
  BoundCapacity(pm_.items_, total);
  BoundCapacity(pm_.ranks_, lists.size() * stride);
  BoundCapacity(pm_.weights_, lists.size());
  BoundCapacity(pm_.slot_table_, buckets);
  BoundCapacity(pm_.list_slots_, total);
  BoundCapacity(scores_, total);
  BoundCapacity(order_, total);
  BoundCapacity(votes_for_, stride);
  BoundCapacity(votes_against_, stride);
  return pm_.Assign(lists, weights);
}

Result<RankedList> AggregateRankings(const std::vector<RankedList>& lists,
                                     const std::vector<double>& weights,
                                     size_t k,
                                     const AggregationOptions& options,
                                     AggregationContext* ctx) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (options.method != AggregationMethod::kBorda &&
      options.method != AggregationMethod::kCopeland) {
    return Status::InvalidArgument("unknown aggregation method");
  }
  thread_local AggregationContext tls;
  AggregationContext& c = ctx != nullptr ? *ctx : tls;
  const std::vector<double> unweighted;
  const std::vector<double>& w = options.use_weights ? weights : unweighted;
  INFLEX_RETURN_NOT_OK(c.Prepare(lists, w));
  const PreferenceMatrix& pm = c.pm_;
  switch (options.method) {
    case AggregationMethod::kBorda:
      BordaScores(pm, lists, w, &c.scores_);
      break;
    case AggregationMethod::kCopeland:
      CopelandScores(pm, &c.scores_, &c.votes_for_, &c.votes_against_);
      break;
  }
  return TopK(pm.items(), c.scores_,
              options.local_kemenization ? &pm : nullptr, k, &c.order_);
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

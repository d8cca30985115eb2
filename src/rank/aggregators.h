#ifndef INFLEX_RANK_AGGREGATORS_H_
#define INFLEX_RANK_AGGREGATORS_H_

#include <vector>

#include "rank/preference_matrix.h"
#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

/// Rank-aggregation families implemented by INFLEX (§4.2).
enum class AggregationMethod {
  /// Positional scoring (de Borda 1781); 5-approximation of Kemeny.
  kBorda,
  /// Pairwise majority tournament (Copeland 1951); Algorithm 2 when weighted.
  kCopeland,
};

/// \brief Options for AggregateRankings.
struct AggregationOptions {
  AggregationMethod method = AggregationMethod::kCopeland;
  /// Use the per-list importance weights; when false all lists count equally
  /// (the paper's unweighted Borda/Copeland columns in Table 1).
  bool use_weights = true;
  /// Apply the Local Kemenization post-processing pass (Dwork et al. 2001).
  bool local_kemenization = true;
};

/// Weighted Borda scores over the union U of the lists:
/// Borda^w(v) = Σ_j w_j · (ℓ − τ_j(v) + 1), summed over lists containing v
/// (a list that omits v contributes the neutral rank ℓ+1, i.e. zero), with
/// ℓ the maximum list length. Returned in U's first-appearance order.
/// Pass empty `weights` for the unweighted variant.
Result<std::vector<double>> WeightedBordaScores(
    const std::vector<RankedList>& lists, const std::vector<double>& weights);

/// Weighted Copeland scores (Algorithm 2): Copeland^w(v) = number of items
/// v' beaten by v under the weighted pairwise majority. Aligned with
/// `pm.items()`.
std::vector<double> WeightedCopelandScores(const PreferenceMatrix& pm);

class AggregationContext;

/// Full INFLEX aggregation pipeline: score with the chosen method, order by
/// descending score (ties broken by ascending item id for determinism),
/// optionally Local-Kemenize against the weighted inputs, and truncate to
/// the top-k. Every stage that reads pairwise preferences shares one
/// PreferenceMatrix. `k` may exceed |U|, in which case all of U is returned
/// — the paper's mechanism for answering k > ℓ queries. Scratch comes from
/// `ctx`, or from a thread_local context when it is null, so a steady-state
/// call allocates only its result. Fails on k = 0 or a method outside
/// AggregationMethod before it touches the context, and on invalid lists or
/// weights.
Result<RankedList> AggregateRankings(const std::vector<RankedList>& lists,
                                     const std::vector<double>& weights,
                                     size_t k,
                                     const AggregationOptions& options = {},
                                     AggregationContext* ctx = nullptr);

/// \brief Reusable scratch of AggregateRankings: the preference matrix's
/// rank rows, union and slot map, the scores, the slot order and the vote
/// rows. Each call first releases buffers whose capacity is far beyond what
/// its input can demand, so a context that once served a large union does
/// not keep it. Not thread-safe: one context per thread.
class AggregationContext {
 public:
  AggregationContext() = default;

  /// Bytes of scratch capacity retained between calls.
  size_t retained_bytes() const;

 private:
  friend Result<RankedList> AggregateRankings(
      const std::vector<RankedList>& lists, const std::vector<double>& weights,
      size_t k, const AggregationOptions& options, AggregationContext* ctx);

  /// Bounds the retained capacity against `lists`, then rebuilds the
  /// preference matrix over them.
  Status Prepare(const std::vector<RankedList>& lists,
                 const std::vector<double>& weights);

  PreferenceMatrix pm_;
  std::vector<double> scores_;
  std::vector<size_t> order_;
  std::vector<double> votes_for_;
  std::vector<double> votes_against_;
};

/// Mean (weighted) top-ℓ Kendall-τ distance from `candidate` to the input
/// lists — the Kemeny objective of Eq. 8 that aggregation approximates.
/// `candidate` is compared against each list after truncation to the shorter
/// of the two lengths.
Result<double> KemenyObjective(const RankedList& candidate,
                               const std::vector<RankedList>& lists,
                               const std::vector<double>& weights,
                               double top_l_penalty = 0.5);

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_AGGREGATORS_H_

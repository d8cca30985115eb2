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
  /// MC4 Markov-chain aggregation (Dwork et al. 2001) — the generalization
  /// of Copeland the paper cites; items ranked by stationary probability.
  kMarkovChainMc4,
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

/// Full INFLEX aggregation pipeline: score with the chosen method, order by
/// descending score (ties broken by ascending item id for determinism),
/// optionally Local-Kemenize against the weighted inputs, and truncate to
/// the top-k. Every stage that reads pairwise preferences shares one
/// PreferenceMatrix; Borda without Local Kemenization reads none and builds
/// none. `k` may exceed |U|, in which case all of U is returned — the
/// paper's mechanism for answering k > ℓ queries.
Result<RankedList> AggregateRankings(const std::vector<RankedList>& lists,
                                     const std::vector<double>& weights,
                                     size_t k,
                                     const AggregationOptions& options = {});

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

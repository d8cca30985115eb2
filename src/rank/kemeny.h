#ifndef INFLEX_RANK_KEMENY_H_
#define INFLEX_RANK_KEMENY_H_

#include <vector>

#include "rank/preference_matrix.h"
#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

/// Pairwise Kemeny cost of a candidate ranking against the (weighted) input
/// lists tallied in `pm`: for every ordered pair (x before y) in `ranking`,
/// the total weight of lists preferring y over x. This is the objective that
/// Kemeny-optimal aggregation minimizes and that Borda and Copeland
/// approximate. `ranking` must cover exactly the union `pm.items()`.
Result<double> PairwiseKemenyCost(const RankedList& ranking,
                                  const PreferenceMatrix& pm);

/// Exact Kemeny-optimal rank aggregation by Held-Karp dynamic programming
/// over subsets — O(2^m · m²) time and O(2^m) space for a union of m items,
/// feasible for m ≤ ~20. The paper notes the problem is NP-hard for ≥ 4
/// lists (Dwork et al.); this solver provides ground truth for measuring
/// how close the fast aggregators get (`bench_ablation_kemeny`).
/// Fails when the union exceeds `max_union_size`.
Result<RankedList> ExactKemenyAggregate(const PreferenceMatrix& pm,
                                        size_t max_union_size = 18);

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_KEMENY_H_

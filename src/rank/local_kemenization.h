#ifndef INFLEX_RANK_LOCAL_KEMENIZATION_H_
#define INFLEX_RANK_LOCAL_KEMENIZATION_H_

#include <vector>

#include "rank/preference_matrix.h"
#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

/// Local Kemenization (Dwork et al., WWW 2001): greedy post-processing that
/// turns an initial aggregation into a *locally* Kemeny-optimal list — no
/// swap of two adjacent items can reduce the summed Kendall distance to the
/// inputs. Implemented, as in the paper, by insertion sort: each item is
/// bubbled up while the (weighted) majority of the input lists prefers it to
/// its predecessor. Pass empty `weights` for the unweighted variant.
///
/// Items the input lists never mention cannot be compared and therefore never
/// move, nor does any item cross them.
///
/// The pass never worsens the weighted Kemeny objective (each accepted swap
/// strictly decreases it), which tests assert property-style.
Status LocalKemenization(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights,
                         RankedList* aggregated);

/// The same pass over a sequence of distinct slots of `pm`, in place. This is
/// what AggregateRankings runs on its score order.
void LocalKemenization(const PreferenceMatrix& pm, std::vector<size_t>* slots);

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_LOCAL_KEMENIZATION_H_

#ifndef INFLEX_RANK_LOCAL_KEMENIZATION_H_
#define INFLEX_RANK_LOCAL_KEMENIZATION_H_

#include <vector>

#include "rank/preference_matrix.h"

namespace inflex {
namespace rank {

/// Local Kemenization (Dwork et al., WWW 2001): greedy post-processing that
/// turns an initial aggregation into a *locally* Kemeny-optimal list — no
/// swap of two adjacent items can reduce the summed Kendall distance to the
/// inputs. Implemented, as in the paper, by insertion sort: each item is
/// bubbled up while the (weighted) majority of the input lists tallied in
/// `pm` prefers it to its predecessor.
///
/// Runs in place over a sequence of distinct slots of `pm`; this is what
/// AggregateRankings runs on its score order. The pass never worsens the
/// weighted Kemeny objective (each accepted swap strictly decreases it),
/// which tests assert property-style.
void LocalKemenization(const PreferenceMatrix& pm, std::vector<size_t>* slots);

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_LOCAL_KEMENIZATION_H_

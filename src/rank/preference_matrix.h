#ifndef INFLEX_RANK_PREFERENCE_MATRIX_H_
#define INFLEX_RANK_PREFERENCE_MATRIX_H_

#include <vector>

#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

/// \brief Dense weighted pairwise-preference tally over the union U of the
/// input lists: P(v, v') = Σ_j w_j · 1{τ_j ranks v ahead of v'}.
///
/// The one place that knows the top-ℓ pairwise rule (matching the Copeland
/// formulation in Algorithm 2 and the Local Kemenization majority test):
/// within a list, a present item is preferred to an absent one; two absent
/// items yield no vote. Copeland, MC4, Local Kemenization and the Kemeny
/// functions all read this one relation, addressed by slot: slot x is
/// items()[x].
class PreferenceMatrix {
 public:
  /// The input check every aggregation shares. Fails on no lists, an empty
  /// or duplicate-holding list, a weight count other than zero (all-ones) or
  /// one per list, or a negative weight.
  static Status Validate(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights);

  /// Validates, then builds the tally.
  static Result<PreferenceMatrix> Build(const std::vector<RankedList>& lists,
                                        const std::vector<double>& weights);

  /// Items of U in first-appearance order.
  const RankedList& items() const { return items_; }
  size_t num_items() const { return items_.size(); }

  /// Total weight of lists ranking slot x ahead of slot y.
  double Votes(size_t x, size_t y) const {
    return tally_[x * items_.size() + y];
  }

  /// True when the weighted majority strictly prefers slot x over slot y.
  bool Beats(size_t x, size_t y) const { return Votes(x, y) > Votes(y, x); }

 private:
  PreferenceMatrix() = default;

  RankedList items_;
  std::vector<double> tally_;  // num_items × num_items, row-major
};

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_PREFERENCE_MATRIX_H_

#ifndef INFLEX_RANK_PREFERENCE_MATRIX_H_
#define INFLEX_RANK_PREFERENCE_MATRIX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "rank/ranked_list.h"

namespace inflex {
namespace rank {

class AggregationContext;

/// \brief The weighted pairwise-preference relation over the union U of the
/// input lists: P(v, v') = Σ_j w_j · 1{τ_j ranks v ahead of v'}.
///
/// The one place that knows the top-ℓ pairwise rule (matching the Copeland
/// formulation in Algorithm 2 and the Local Kemenization majority test):
/// within a list, a present item is preferred to an absent one; two absent
/// items yield no vote. Copeland, Local Kemenization and the Kemeny functions
/// all read this one relation, addressed by slot: slot x is items()[x].
///
/// No m×m table is stored. Each list with a nonzero weight keeps one row of
/// ranks over the slots (internal::kAbsentRank where it omits the slot), in
/// list order, and P is summed from those rows on demand (DESIGN.md §2).
class PreferenceMatrix {
 public:
  /// The input check every aggregation shares. Fails on no lists, an empty
  /// or duplicate-holding list, a weight count other than zero (all-ones) or
  /// one per list, or a negative or non-finite weight.
  static Status Validate(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights);

  /// Validates, then builds the rank rows.
  static Result<PreferenceMatrix> Build(const std::vector<RankedList>& lists,
                                        const std::vector<double>& weights);

  /// Items of U in first-appearance order.
  const RankedList& items() const { return items_; }
  size_t num_items() const { return items_.size(); }

  /// Slot of item `v`, or nullopt when no list holds it.
  std::optional<size_t> SlotOf(Item v) const;

  /// Total weight of lists ranking slot x ahead of slot y: w_j, or +0.0 where
  /// list j does not, added in list order from +0.0.
  double Votes(size_t x, size_t y) const {
    double votes = 0.0;
    for (size_t j = 0; j < weights_.size(); ++j) {
      const uint32_t* row = ranks_.data() + j * stride_;
      votes += row[x] < row[y] ? weights_[j] : 0.0;
    }
    return votes;
  }

  /// True when the weighted majority strictly prefers slot x over slot y.
  bool Beats(size_t x, size_t y) const { return Votes(x, y) > Votes(y, x); }

  /// Slot count padded to a multiple of internal::kVoteBlock: the length of
  /// the arrays VoteRows writes.
  size_t row_stride() const { return stride_; }

  /// Row x of the relation through the dispatched vote kernel:
  /// votes_for[y] = Votes(x, y) and votes_against[y] = Votes(y, x), bit for
  /// bit, for every slot y from `first` rounded down to a multiple of
  /// internal::kVoteBlock up to row_stride() (padding slots hold no item).
  void VoteRows(size_t x, size_t first, double* votes_for,
                double* votes_against) const;

 private:
  friend class AggregationContext;

  /// One open-addressing entry of the item → slot map. `list` is the last
  /// list the item was seen in, which is how a duplicate shows.
  struct SlotEntry {
    Item item;
    uint32_t slot;
    uint32_t list;
  };

  PreferenceMatrix() = default;

  /// Validates and rebuilds in place, reusing this object's storage.
  Status Assign(const std::vector<RankedList>& lists,
                const std::vector<double>& weights);

  RankedList items_;
  /// weights_.size() rows of stride_ ranks, one per nonzero-weight list.
  std::vector<uint32_t> ranks_;
  std::vector<double> weights_;
  size_t stride_ = 0;
  /// Power-of-two table at load ≤ 1/2.
  std::vector<SlotEntry> slot_table_;
  /// The slot of every list position, lists concatenated in order.
  std::vector<uint32_t> list_slots_;
};

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_PREFERENCE_MATRIX_H_

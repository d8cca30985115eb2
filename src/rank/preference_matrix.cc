#include "rank/preference_matrix.h"

#include <algorithm>
#include <unordered_map>

namespace inflex {
namespace rank {

Status PreferenceMatrix::Validate(const std::vector<RankedList>& lists,
                                  const std::vector<double>& weights) {
  if (lists.empty()) {
    return Status::InvalidArgument("aggregation needs at least one list");
  }
  if (!weights.empty() && weights.size() != lists.size()) {
    return Status::InvalidArgument("one weight per list expected");
  }
  for (double w : weights) {
    if (!(w >= 0.0)) {
      return Status::InvalidArgument("weights must be non-negative");
    }
  }
  for (const auto& list : lists) {
    INFLEX_RETURN_NOT_OK(ValidateRankedList(list));
    if (list.empty()) {
      return Status::InvalidArgument("cannot aggregate an empty list");
    }
  }
  return Status::OK();
}

Result<PreferenceMatrix> PreferenceMatrix::Build(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  INFLEX_RETURN_NOT_OK(Validate(lists, weights));
  PreferenceMatrix pm;
  pm.items_ = UnionOfLists(lists);
  const size_t m = pm.items_.size();
  std::unordered_map<Item, size_t> slot_of;
  slot_of.reserve(m * 2);
  for (size_t i = 0; i < m; ++i) slot_of[pm.items_[i]] = i;
  pm.tally_.assign(m * m, 0.0);

  // Each cell receives its additions in list order, so tallies are
  // reproducible bit for bit.
  std::vector<size_t> rank_of(m);
  constexpr size_t kAbsent = static_cast<size_t>(-1);
  for (size_t j = 0; j < lists.size(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    if (w == 0.0) continue;
    std::fill(rank_of.begin(), rank_of.end(), kAbsent);
    for (size_t r = 0; r < lists[j].size(); ++r) {
      rank_of[slot_of.at(lists[j][r])] = r;
    }
    for (size_t x = 0; x < m; ++x) {
      const size_t rx = rank_of[x];
      for (size_t y = x + 1; y < m; ++y) {
        const size_t ry = rank_of[y];
        if (rx == kAbsent && ry == kAbsent) continue;  // no vote
        // Present beats absent; otherwise compare positions.
        const bool x_wins =
            (ry == kAbsent) || (rx != kAbsent && rx < ry);
        if (x_wins) {
          pm.tally_[x * m + y] += w;
        } else {
          pm.tally_[y * m + x] += w;
        }
      }
    }
  }
  return pm;
}

}  // namespace rank
}  // namespace inflex

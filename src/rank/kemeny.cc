#include "rank/kemeny.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace inflex {
namespace rank {

Result<double> PairwiseKemenyCost(const RankedList& ranking,
                                  const PreferenceMatrix& pm) {
  INFLEX_RETURN_NOT_OK(ValidateRankedList(ranking));
  if (ranking.size() != pm.num_items()) {
    return Status::InvalidArgument(
        "ranking must cover exactly the union of the input lists");
  }
  std::vector<size_t> slots(ranking.size());
  for (size_t i = 0; i < ranking.size(); ++i) {
    const std::optional<size_t> slot = pm.SlotOf(ranking[i]);
    if (!slot) {
      return Status::InvalidArgument("ranking contains an item outside U");
    }
    slots[i] = *slot;
  }
  double cost = 0.0;
  for (size_t i = 0; i < slots.size(); ++i) {
    for (size_t j = i + 1; j < slots.size(); ++j) {
      cost += pm.Votes(slots[j], slots[i]);
    }
  }
  return cost;
}

Result<RankedList> ExactKemenyAggregate(const PreferenceMatrix& pm,
                                        size_t max_union_size) {
  const size_t m = pm.num_items();
  // Hard cap 20: dp tables are 2^m entries (8 MiB of doubles at m = 20).
  if (m > max_union_size || m > 20) {
    return Status::InvalidArgument(
        "union of " + std::to_string(m) +
        " items exceeds the exact-solver limit (" +
        std::to_string(std::min<size_t>(max_union_size, 20)) + ")");
  }
  const RankedList& items = pm.items();
  if (m <= 1) return items;

  // Held-Karp over subsets: dp[S] = minimal cost of ordering the items of S
  // as the ranking's prefix. Transition: append v ∉ S at the next position;
  // v now precedes every item u outside S ∪ {v}, incurring the weight of
  // lists preferring u over v. The DP reads each pair up to 2^m times, so
  // its votes are summed once up front.
  std::vector<double> votes(m * m);
  for (size_t u = 0; u < m; ++u) {
    for (size_t v = 0; v < m; ++v) votes[u * m + v] = pm.Votes(u, v);
  }
  const size_t full = (size_t{1} << m) - 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(full + 1, kInf);
  std::vector<int8_t> parent(full + 1, -1);
  dp[0] = 0.0;
  for (size_t mask = 0; mask <= full; ++mask) {
    if (dp[mask] == kInf) continue;
    for (size_t v = 0; v < m; ++v) {
      if (mask & (size_t{1} << v)) continue;
      const size_t next = mask | (size_t{1} << v);
      double added = 0.0;
      for (size_t u = 0; u < m; ++u) {
        if (u != v && !(next & (size_t{1} << u))) added += votes[u * m + v];
      }
      if (dp[mask] + added < dp[next]) {
        dp[next] = dp[mask] + added;
        parent[next] = static_cast<int8_t>(v);
      }
    }
  }

  // parent[mask] is the item placed last among mask's prefix, i.e. at
  // position |mask|−1, so the ranking is rebuilt back to front.
  RankedList result(m);
  size_t mask = full;
  for (size_t pos = m; pos-- > 0;) {
    const auto v = static_cast<size_t>(parent[mask]);
    result[pos] = items[v];
    mask &= ~(size_t{1} << v);
  }
  return result;
}

}  // namespace rank
}  // namespace inflex

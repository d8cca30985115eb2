#include "rank/kendall_tau.h"

#include <algorithm>
#include <unordered_map>

namespace inflex {
namespace rank {

Status ValidateRankedList(const RankedList& list) {
  RankedList sorted = list;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("ranked list contains duplicate items");
  }
  return Status::OK();
}

RankedList UnionOfLists(const std::vector<RankedList>& lists) {
  RankedList u;
  std::unordered_map<Item, bool> seen;
  for (const auto& list : lists) {
    for (Item v : list) {
      if (!seen[v]) {
        seen[v] = true;
        u.push_back(v);
      }
    }
  }
  return u;
}

Result<double> KendallTauFull(const RankedList& a, const RankedList& b,
                              bool normalized) {
  INFLEX_RETURN_NOT_OK(ValidateRankedList(a));
  INFLEX_RETURN_NOT_OK(ValidateRankedList(b));
  if (a.size() != b.size()) {
    return Status::InvalidArgument("full rankings must have equal length");
  }
  const size_t n = a.size();
  if (n < 2) return 0.0;

  std::unordered_map<Item, size_t> pos_b;
  pos_b.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) pos_b[b[i]] = i;

  // Map a's order into b-positions; discordant pairs = inversions.
  std::vector<size_t> mapped(n);
  for (size_t i = 0; i < n; ++i) {
    auto it = pos_b.find(a[i]);
    if (it == pos_b.end()) {
      return Status::InvalidArgument(
          "full rankings must cover the same item set");
    }
    mapped[i] = it->second;
  }

  // O(n log n) inversion count via merge sort.
  std::vector<size_t> buf(n);
  size_t inversions = 0;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo + width < n; lo += 2 * width) {
      const size_t mid = lo + width;
      const size_t hi = std::min(lo + 2 * width, n);
      size_t i = lo, j = mid, out = lo;
      while (i < mid && j < hi) {
        if (mapped[i] <= mapped[j]) {
          buf[out++] = mapped[i++];
        } else {
          inversions += mid - i;
          buf[out++] = mapped[j++];
        }
      }
      while (i < mid) buf[out++] = mapped[i++];
      while (j < hi) buf[out++] = mapped[j++];
      std::copy(buf.begin() + lo, buf.begin() + hi, mapped.begin() + lo);
    }
  }

  if (!normalized) return static_cast<double>(inversions);
  const double max_pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return static_cast<double>(inversions) / max_pairs;
}

Result<double> KendallTauTopL(const RankedList& a, const RankedList& b,
                              const TopLKendallOptions& options) {
  INFLEX_RETURN_NOT_OK(ValidateRankedList(a));
  INFLEX_RETURN_NOT_OK(ValidateRankedList(b));
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("top-ℓ lists must be non-empty");
  }
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        "top-ℓ Kendall-τ requires lists of equal length");
  }
  if (options.p < 0.0 || options.p > 1.0) {
    return Status::InvalidArgument("penalty p must lie in [0, 1]");
  }
  const size_t ell = a.size();
  constexpr size_t kAbsent = static_cast<size_t>(-1);

  // Positions in a and b of each item of the union, by union slot.
  const RankedList u = UnionOfLists({a, b});
  std::unordered_map<Item, size_t> slot_of;
  slot_of.reserve(u.size() * 2);
  for (size_t x = 0; x < u.size(); ++x) slot_of[u[x]] = x;
  std::vector<size_t> pos_a(u.size(), kAbsent), pos_b(u.size(), kAbsent);
  for (size_t i = 0; i < ell; ++i) {
    pos_a[slot_of.at(a[i])] = i;
    pos_b[slot_of.at(b[i])] = i;
  }

  double penalty = 0.0;
  for (size_t x = 0; x < u.size(); ++x) {
    for (size_t y = x + 1; y < u.size(); ++y) {
      const size_t ia = pos_a[x], ja = pos_a[y];
      const size_t ib = pos_b[x], jb = pos_b[y];
      const bool x_in_a = ia != kAbsent, y_in_a = ja != kAbsent;
      const bool x_in_b = ib != kAbsent, y_in_b = jb != kAbsent;

      if (x_in_a && y_in_a && x_in_b && y_in_b) {
        // Case 1: both pairs ranked in both lists.
        if ((ia < ja) != (ib < jb)) penalty += 1.0;
      } else if (x_in_a && y_in_a && (x_in_b != y_in_b)) {
        // Case 2, one side is list a: the item present in b is implicitly
        // ahead of the absent one there.
        const bool b_prefers_x = x_in_b;  // present item wins in b
        if ((ia < ja) != b_prefers_x) penalty += 1.0;
      } else if (x_in_b && y_in_b && (x_in_a != y_in_a)) {
        // Case 2, one side is list b.
        const bool a_prefers_x = x_in_a;
        if ((ib < jb) != a_prefers_x) penalty += 1.0;
      } else if ((x_in_a && !x_in_b && y_in_b && !y_in_a) ||
                 (x_in_b && !x_in_a && y_in_a && !y_in_b)) {
        // Case 3: the two items appear in opposite lists only — the lists
        // disagree no matter what.
        penalty += 1.0;
      } else {
        // Case 4: both items confined to the same single list.
        penalty += options.p;
      }
    }
  }

  if (!options.normalized) return penalty;
  const double ell_d = static_cast<double>(ell);
  const double max_penalty = ell_d * ell_d + ell_d * (ell_d - 1.0) * options.p;
  return penalty / max_penalty;
}

}  // namespace rank
}  // namespace inflex

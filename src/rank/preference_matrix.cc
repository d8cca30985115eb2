#include "rank/preference_matrix.h"

#include <cmath>

#include "rank/vote_kernel.h"

namespace inflex {
namespace rank {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

size_t Bucket(Item v, size_t mask) {
  return static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}

}  // namespace

Status PreferenceMatrix::Validate(const std::vector<RankedList>& lists,
                                  const std::vector<double>& weights) {
  PreferenceMatrix pm;
  return pm.Assign(lists, weights);
}

Result<PreferenceMatrix> PreferenceMatrix::Build(
    const std::vector<RankedList>& lists, const std::vector<double>& weights) {
  PreferenceMatrix pm;
  INFLEX_RETURN_NOT_OK(pm.Assign(lists, weights));
  return pm;
}

Status PreferenceMatrix::Assign(const std::vector<RankedList>& lists,
                                const std::vector<double>& weights) {
  if (lists.empty()) {
    return Status::InvalidArgument("aggregation needs at least one list");
  }
  if (!weights.empty() && weights.size() != lists.size()) {
    return Status::InvalidArgument("one weight per list expected");
  }
  for (double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("weights must be finite and non-negative");
    }
  }
  size_t total = 0;
  for (const auto& list : lists) {
    if (list.empty()) {
      return Status::InvalidArgument("cannot aggregate an empty list");
    }
    total += list.size();
  }
  size_t buckets = 16;
  while (buckets < 2 * total) buckets *= 2;
  slot_table_.assign(buckets, SlotEntry{0, kNoSlot, 0});
  const size_t mask = buckets - 1;

  // Map every list position to its slot, growing U in first-appearance
  // order; an item met twice in one list is a duplicate.
  items_.clear();
  list_slots_.clear();
  for (size_t j = 0; j < lists.size(); ++j) {
    const auto list_id = static_cast<uint32_t>(j);
    for (Item v : lists[j]) {
      size_t b = Bucket(v, mask);
      while (slot_table_[b].slot != kNoSlot && slot_table_[b].item != v) {
        b = (b + 1) & mask;
      }
      SlotEntry& e = slot_table_[b];
      if (e.slot == kNoSlot) {
        e = SlotEntry{v, static_cast<uint32_t>(items_.size()), list_id};
        items_.push_back(v);
      } else if (e.list == list_id) {
        return Status::InvalidArgument("ranked list contains duplicate items");
      } else {
        e.list = list_id;
      }
      list_slots_.push_back(e.slot);
    }
  }

  // One rank row per list that can vote, in list order. A zero-weight list
  // would only add +0.0 to every sum, so it gets no row.
  const size_t block = internal::kVoteBlock;
  stride_ = (items_.size() + block - 1) / block * block;
  ranks_.clear();
  weights_.clear();
  const uint32_t* slots = list_slots_.data();
  for (size_t j = 0; j < lists.size(); ++j) {
    const size_t len = lists[j].size();
    const double w = weights.empty() ? 1.0 : weights[j];
    if (w != 0.0) {
      const size_t row = ranks_.size();
      ranks_.resize(row + stride_, internal::kAbsentRank);
      for (size_t r = 0; r < len; ++r) {
        ranks_[row + slots[r]] = static_cast<uint32_t>(r);
      }
      weights_.push_back(w);
    }
    slots += len;
  }
  return Status::OK();
}

std::optional<size_t> PreferenceMatrix::SlotOf(Item v) const {
  const size_t mask = slot_table_.size() - 1;
  for (size_t b = Bucket(v, mask); slot_table_[b].slot != kNoSlot;
       b = (b + 1) & mask) {
    if (slot_table_[b].item == v) return slot_table_[b].slot;
  }
  return std::nullopt;
}

void PreferenceMatrix::VoteRows(size_t x, size_t first, double* votes_for,
                                double* votes_against) const {
  const size_t block = internal::kVoteBlock;
  internal::ActiveVoteRowKernel()(ranks_.data(), stride_, weights_.data(),
                                  weights_.size(), x, first / block * block,
                                  votes_for, votes_against);
}

}  // namespace rank
}  // namespace inflex

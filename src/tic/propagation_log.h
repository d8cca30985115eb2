#ifndef INFLEX_TIC_PROPAGATION_LOG_H_
#define INFLEX_TIC_PROPAGATION_LOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/topic_graph.h"
#include "util/status.h"

namespace inflex {
namespace tic {

using ItemId = uint32_t;

/// \brief One log record: `user` adopted (acted on) `item` at `timestamp`.
/// In the paper's Flixster experiment this is "user v rated movie i at
/// time t".
struct Activation {
  graph::NodeId user = 0;
  ItemId item = 0;
  double timestamp = 0.0;
};

/// \brief A log of past propagations over a fixed user and item universe —
/// the raw input of the TIC learning phase (Figure 1).
///
/// Internally grouped by item with activations sorted by (timestamp, user),
/// which is the access pattern of the learner (scan an item's adoptions in
/// temporal order). Repeated (user, item) records keep only the earliest
/// timestamp, matching the "first adoption" semantics of the IC family.
class PropagationLog {
 public:
  PropagationLog(size_t num_users, size_t num_items);

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }
  /// Total records (after Finalize: deduplicated).
  size_t size() const { return activations_.size(); }
  bool finalized() const { return finalized_; }

  /// Sizes the record array for `num_records` records, so a writer that
  /// knows the deduplicated count adds them without regrowing and Finalize
  /// leaves capacity equal to size.
  void Reserve(size_t num_records);

  /// Appends a record. Fails on out-of-range user/item, a non-finite
  /// timestamp, or when already finalized.
  Status Add(graph::NodeId user, ItemId item, double timestamp);

  /// Sorts, groups by item and deduplicates. Must be called exactly once
  /// before any read accessor.
  Status Finalize();

  /// Activations of one item in temporal order. Requires finalized().
  std::span<const Activation> ItemActivations(ItemId item) const;

  /// Number of items with at least one activation. Requires finalized().
  size_t num_active_items() const;

  /// Heap bytes the log holds, from its arrays' capacities.
  size_t bytes() const {
    return activations_.capacity() * sizeof(Activation) +
           item_offsets_.capacity() * sizeof(uint64_t);
  }

  /// Persists the (finalized) log to a binary artifact.
  Status Save(const std::string& path) const;

  /// Loads a finalized log.
  static Result<PropagationLog> Load(const std::string& path);

 private:
  size_t num_users_;
  size_t num_items_;
  bool finalized_ = false;
  std::vector<Activation> activations_;
  std::vector<uint64_t> item_offsets_;  // size num_items_+1 once finalized
};

}  // namespace tic
}  // namespace inflex

#endif  // INFLEX_TIC_PROPAGATION_LOG_H_

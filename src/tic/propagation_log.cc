#include "tic/propagation_log.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/serialize.h"

namespace inflex {
namespace tic {

namespace {
constexpr uint32_t kLogMagic = 0x494e4c47;  // "INLG"
constexpr uint32_t kLogVersion = 1;
}  // namespace

PropagationLog::PropagationLog(size_t num_users, size_t num_items)
    : num_users_(num_users), num_items_(num_items) {
  INFLEX_CHECK_GT(num_users, 0u);
  INFLEX_CHECK_GT(num_items, 0u);
}

void PropagationLog::Reserve(size_t num_records) {
  activations_.reserve(num_records);
}

Status PropagationLog::Add(graph::NodeId user, ItemId item, double timestamp) {
  if (finalized_) {
    return Status::FailedPrecondition("log already finalized");
  }
  if (user >= num_users_) return Status::OutOfRange("user id out of range");
  if (item >= num_items_) return Status::OutOfRange("item id out of range");
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("timestamp must be finite");
  }
  activations_.push_back(Activation{user, item, timestamp});
  return Status::OK();
}

Status PropagationLog::Finalize() {
  if (finalized_) return Status::FailedPrecondition("log already finalized");
  const auto before = [](const Activation& a, const Activation& b) {
    if (a.item != b.item) return a.item < b.item;
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    return a.user < b.user;
  };
  // A writer that adds records in order (the synthetic generator does)
  // skips the sort.
  if (!std::is_sorted(activations_.begin(), activations_.end(), before)) {
    std::sort(activations_.begin(), activations_.end(), before);
  }
  // Keep only each user's earliest activation per item, compacting in place:
  // the write cursor never passes the read cursor, so a kept record moves
  // down over one already read or dropped.
  std::vector<char> seen(num_users_, 0);
  size_t write = 0;
  size_t i = 0;
  while (i < activations_.size()) {
    const ItemId item = activations_[i].item;
    const size_t item_begin = write;
    for (; i < activations_.size() && activations_[i].item == item; ++i) {
      if (!seen[activations_[i].user]) {
        seen[activations_[i].user] = 1;
        activations_[write++] = activations_[i];
      }
    }
    for (size_t k = item_begin; k < write; ++k) {
      seen[activations_[k].user] = 0;
    }
  }
  activations_.resize(write);

  item_offsets_.assign(num_items_ + 1, 0);
  for (const Activation& a : activations_) item_offsets_[a.item + 1]++;
  for (size_t it = 0; it < num_items_; ++it) {
    item_offsets_[it + 1] += item_offsets_[it];
  }
  finalized_ = true;
  return Status::OK();
}

std::span<const Activation> PropagationLog::ItemActivations(
    ItemId item) const {
  INFLEX_CHECK(finalized_);
  INFLEX_CHECK_LT(item, num_items_);
  return {activations_.data() + item_offsets_[item],
          static_cast<size_t>(item_offsets_[item + 1] - item_offsets_[item])};
}

size_t PropagationLog::num_active_items() const {
  INFLEX_CHECK(finalized_);
  size_t n = 0;
  for (ItemId i = 0; i < num_items_; ++i) {
    if (item_offsets_[i + 1] > item_offsets_[i]) ++n;
  }
  return n;
}

Status PropagationLog::Save(const std::string& path) const {
  if (!finalized_) {
    return Status::FailedPrecondition("finalize the log before saving");
  }
  INFLEX_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::Open(path));
  INFLEX_RETURN_NOT_OK(WriteHeader(&w, kLogMagic, kLogVersion));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(num_users_));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(num_items_));
  INFLEX_RETURN_NOT_OK(w.WriteVector(activations_));
  INFLEX_RETURN_NOT_OK(w.WriteVector(item_offsets_));
  return w.Close();
}

Result<PropagationLog> PropagationLog::Load(const std::string& path) {
  INFLEX_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  INFLEX_RETURN_NOT_OK(CheckHeader(&r, kLogMagic, kLogVersion));
  uint64_t users = 0, items = 0;
  INFLEX_RETURN_NOT_OK(r.ReadPod(&users));
  INFLEX_RETURN_NOT_OK(r.ReadPod(&items));
  if (users == 0 || items == 0) {
    return Status::IOError("corrupt propagation log header");
  }
  PropagationLog log(users, items);
  INFLEX_RETURN_NOT_OK(r.ReadVector(&log.activations_));
  INFLEX_RETURN_NOT_OK(r.ReadVector(&log.item_offsets_));
  if (log.item_offsets_.size() != items + 1 ||
      (items > 0 && log.item_offsets_.back() != log.activations_.size())) {
    return Status::IOError("inconsistent propagation log artifact");
  }
  log.finalized_ = true;
  return log;
}

}  // namespace tic
}  // namespace inflex

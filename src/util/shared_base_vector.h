#ifndef INFLEX_UTIL_SHARED_BASE_VECTOR_H_
#define INFLEX_UTIL_SHARED_BASE_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace inflex {
namespace util {

/// \brief An append-only sequence of fixed-width entries stored as an
/// immutable base block, shared by every copy, plus a small tail that each
/// copy owns. Copying shares the base (one reference-count increment) and
/// copies only the tail; appends go to the tail, so nothing shared is ever
/// written. Replacing the content means constructing a new vector over a
/// fresh base block.
///
/// An entry is `width` consecutive elements (a stride-padded bb-tree row, or
/// one seed-list pointer). A copy reserves room for exactly one more entry,
/// so the publish pattern (copy a generation, append one entry) never
/// regrows the copied tail.
template <typename T, typename Alloc = std::allocator<T>>
class SharedBaseVector {
 public:
  using Block = std::vector<T, Alloc>;

  SharedBaseVector() = default;
  /// All of `base` (a whole number of entries) becomes the shared base. The
  /// pointer may alias a member of a larger shared block.
  explicit SharedBaseVector(std::shared_ptr<const Block> base,
                            size_t width = 1)
      : base_(std::move(base)),
        width_(width),
        base_entries_(base_->size() / width) {}
  explicit SharedBaseVector(Block base, size_t width = 1)
      : SharedBaseVector(std::make_shared<const Block>(std::move(base)),
                         width) {}

  SharedBaseVector(const SharedBaseVector& other)
      : base_(other.base_),
        width_(other.width_),
        base_entries_(other.base_entries_) {
    tail_.reserve(other.tail_.size() + width_);
    tail_.assign(other.tail_.begin(), other.tail_.end());
  }
  SharedBaseVector& operator=(const SharedBaseVector& other) {
    if (this != &other) *this = SharedBaseVector(other);
    return *this;
  }
  // A moved-from vector is empty, like a moved-from std::vector.
  SharedBaseVector(SharedBaseVector&& other) noexcept
      : base_(std::move(other.base_)),
        tail_(std::move(other.tail_)),
        width_(other.width_),
        base_entries_(std::exchange(other.base_entries_, 0)) {}
  SharedBaseVector& operator=(SharedBaseVector&& other) noexcept {
    base_ = std::move(other.base_);
    tail_ = std::move(other.tail_);
    other.tail_.clear();
    width_ = other.width_;
    base_entries_ = std::exchange(other.base_entries_, 0);
    return *this;
  }

  /// Number of entries, base and tail.
  size_t size() const { return base_entries_ + tail_.size() / width_; }
  /// Number of entries in the shared base.
  size_t base_size() const { return base_entries_; }

  /// First element of entry i; the entry's `width` elements follow it.
  const T* entry(size_t i) const {
    return i < base_entries_ ? base_->data() + i * width_
                             : tail_.data() + (i - base_entries_) * width_;
  }
  const T& operator[](size_t i) const { return *entry(i); }

  /// Appends one entry: `values` (at most `width` elements) followed by
  /// value-initialised padding up to the entry width.
  void Append(std::span<const T> values) {
    tail_.resize(tail_.size() + width_);
    std::copy(values.begin(), values.end(), tail_.end() - width_);
  }
  /// Appends a one-element entry (width 1).
  void push_back(T value) { tail_.push_back(std::move(value)); }

  /// Moves every entry into a fresh shared base, leaving the tail empty.
  void Fold() {
    Block all;
    all.reserve(base_entries_ * width_ + tail_.size());
    if (base_ != nullptr) all.assign(base_->begin(), base_->end());
    all.insert(all.end(), tail_.begin(), tail_.end());
    *this = SharedBaseVector(std::move(all), width_);
  }

 private:
  std::shared_ptr<const Block> base_;
  Block tail_;
  size_t width_ = 1;
  size_t base_entries_ = 0;
};

}  // namespace util
}  // namespace inflex

#endif  // INFLEX_UTIL_SHARED_BASE_VECTOR_H_

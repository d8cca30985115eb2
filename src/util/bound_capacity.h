#ifndef INFLEX_UTIL_BOUND_CAPACITY_H_
#define INFLEX_UTIL_BOUND_CAPACITY_H_

#include <algorithm>
#include <cstddef>

namespace inflex {
namespace util {

/// Releases a scratch vector whose retained capacity is far beyond `need`,
/// what the current input can demand. The 4× hysteresis over a small floor
/// means a context reused on inputs of one size never reallocates, while a
/// thread_local context that once served a worst-case input stops pinning
/// that high-water mark the first time it serves a smaller one.
template <typename Vec>
void BoundCapacity(Vec& v, size_t need) {
  constexpr size_t kFloor = 64;
  if (v.capacity() > std::max(4 * need, kFloor)) {
    Vec().swap(v);
    v.reserve(need);
  }
}

}  // namespace util
}  // namespace inflex

#endif  // INFLEX_UTIL_BOUND_CAPACITY_H_

#ifndef INFLEX_UTIL_HEAP_H_
#define INFLEX_UTIL_HEAP_H_

namespace inflex {
namespace util {

/// \brief Hands the heap's freed pages back to the system: on glibc one
/// `malloc_trim(0)`, timed and logged at Info as "<stage>: freed heap
/// returned in … ms"; elsewhere a no-op. glibc keeps freed chunks resident
/// once its dynamic mmap threshold has risen, so the offline phase calls
/// this at each stage boundary, before the next stage allocates (DESIGN.md
/// "Offline-phase memory"). Serving code never calls it.
void ReleaseFreedHeap(const char* stage);

}  // namespace util
}  // namespace inflex

#endif  // INFLEX_UTIL_HEAP_H_

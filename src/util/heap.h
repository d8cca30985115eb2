#ifndef INFLEX_UTIL_HEAP_H_
#define INFLEX_UTIL_HEAP_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace inflex {
namespace util {

/// \brief Resident-set figures of a process, in kB.
struct ProcessMemory {
  /// VmRSS: resident now.
  uint64_t rss_kb = 0;
  /// VmHWM: the peak of VmRSS so far.
  uint64_t hwm_kb = 0;
};

/// Reads VmRSS and VmHWM out of the text of a Linux /proc/<pid>/status
/// file; nullopt when either line is missing or malformed.
std::optional<ProcessMemory> ParseProcessMemory(std::string_view status);

/// This process's figures from /proc/self/status on Linux; nullopt
/// elsewhere or when the file cannot be read.
std::optional<ProcessMemory> ReadProcessMemory();

/// \brief Hands the heap's freed pages back to the system: on glibc one
/// `malloc_trim(0)`, timed and logged at Info as "<stage>: freed heap
/// returned in … ms", followed on Linux by VmRSS before and after the trim
/// and VmHWM read before it (the kernel does not raise VmHWM for pages the
/// trim releases, so a later reading can be lower); elsewhere a no-op. glibc keeps freed chunks resident once its
/// dynamic mmap threshold has risen, so the offline phase calls this at
/// each stage boundary, before the next stage allocates (DESIGN.md
/// "Offline-phase memory"). Serving code never calls it.
void ReleaseFreedHeap(const char* stage);

}  // namespace util
}  // namespace inflex

#endif  // INFLEX_UTIL_HEAP_H_

#include "util/heap.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>  // defines __GLIBC__ on glibc
#include <sstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/logging.h"
#include "util/timer.h"

namespace inflex {
namespace util {

namespace {

// The kB figure of the line "<key>   1234 kB", or nullopt.
std::optional<uint64_t> FieldKb(std::string_view status, std::string_view key) {
  for (size_t at = 0; at < status.size();) {
    const size_t eol = std::min(status.find('\n', at), status.size());
    const std::string_view line = status.substr(at, eol - at);
    at = eol + 1;
    if (!line.starts_with(key)) continue;
    const std::string value(line.substr(key.size()));
    char* end = nullptr;
    const unsigned long long kb = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || std::string_view(end) != " kB") {
      return std::nullopt;
    }
    return kb;
  }
  return std::nullopt;
}

double Mb(uint64_t kb) { return static_cast<double>(kb) / 1024.0; }

}  // namespace

std::optional<ProcessMemory> ParseProcessMemory(std::string_view status) {
  const std::optional<uint64_t> rss = FieldKb(status, "VmRSS:");
  const std::optional<uint64_t> hwm = FieldKb(status, "VmHWM:");
  if (!rss || !hwm) return std::nullopt;
  return ProcessMemory{*rss, *hwm};
}

std::optional<ProcessMemory> ReadProcessMemory() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return ParseProcessMemory(text);
#else
  return std::nullopt;
#endif
}

void ReleaseFreedHeap(const char* stage) {
#if defined(__GLIBC__)
  const std::optional<ProcessMemory> before = ReadProcessMemory();
  Timer timer;
  malloc_trim(0);
  const double ms = timer.ElapsedMillis();
  const std::optional<ProcessMemory> after = ReadProcessMemory();
  std::ostringstream memory;
  if (before && after) {
    memory << ", VmRSS " << Mb(before->rss_kb) << " -> " << Mb(after->rss_kb)
           << " MB, VmHWM " << Mb(before->hwm_kb) << " MB";
  }
  INFLEX_LOG(Info) << stage << ": freed heap returned in " << ms << " ms"
                   << memory.str();
#else
  (void)stage;
#endif
}

}  // namespace util
}  // namespace inflex

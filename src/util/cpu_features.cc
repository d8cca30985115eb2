#include "util/cpu_features.h"

#include <cstdlib>
#include <cstring>

namespace inflex {
namespace util {

bool CpuHasAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool ForceScalarRequested(const char* value) {
  if (value == nullptr) return false;
  if (value[0] == '\0') return false;
  return std::strcmp(value, "0") != 0;
}

bool ForceScalarFromEnv() {
  return ForceScalarRequested(std::getenv("INFLEX_FORCE_SCALAR"));
}

}  // namespace util
}  // namespace inflex

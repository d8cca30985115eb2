#include "util/heap.h"

#include <cstdlib>  // defines __GLIBC__ on glibc

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/logging.h"
#include "util/timer.h"

namespace inflex {
namespace util {

void ReleaseFreedHeap(const char* stage) {
#if defined(__GLIBC__)
  Timer timer;
  malloc_trim(0);
  INFLEX_LOG(Info) << stage << ": freed heap returned in "
                   << timer.ElapsedMillis() << " ms";
#else
  (void)stage;
#endif
}

}  // namespace util
}  // namespace inflex

// Explicit-SIMD KL kernels with runtime ISA dispatch. Read the contract in
// kl_kernel_simd.h before touching any loop here: the AVX2 variant must
// reproduce the scalar fixed-order reduction bit-for-bit, which is enforced
// by kernel_test.cc across dims, tails, eps-clamped zeros, and subnormal
// mixture entries. This translation unit is compiled with -ffp-contract=off
// (see src/simplex/CMakeLists.txt) so neither the scalar loops nor the
// vector tails can be contracted into FMAs behind our back.
#include "simplex/kl_kernel_simd.h"

#include <algorithm>

#include "util/cpu_features.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define INFLEX_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace inflex {
namespace simplex {
namespace {

// ------------------------------------------------------------------ scalar --

// The reference reduction the AVX2 variant must match bit-for-bit: four
// independent partial sums (element z feeds sum z mod 4), scalar tail into
// s0, horizontal reduction (s0+s1)+(s2+s3).
double DotScalar(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t z = 0;
  for (; z + 4 <= n; z += 4) {
    s0 += a[z] * b[z];
    s1 += a[z + 1] * b[z + 1];
    s2 += a[z + 2] * b[z + 2];
    s3 += a[z + 3] * b[z + 3];
  }
  for (; z < n; ++z) s0 += a[z] * b[z];
  return (s0 + s1) + (s2 + s3);
}

void KlBatchScalar(const double* rows, const double* neg_entropies, size_t m,
                   size_t n, size_t row_stride, const double* log_q,
                   double* out) {
  for (size_t i = 0; i < m; ++i) {
    out[i] =
        std::max(neg_entropies[i] - DotScalar(rows + i * row_stride, log_q, n),
                 0.0);
  }
}

void KlBatchTargetsScalar(const double* q, double q_neg_entropy,
                          const double* log_targets, size_t m, size_t n,
                          size_t row_stride, double* out) {
  for (size_t i = 0; i < m; ++i) {
    out[i] = std::max(
        q_neg_entropy - DotScalar(q, log_targets + i * row_stride, n), 0.0);
  }
}

constexpr KlKernelOps kScalarOps = {
    "scalar", DotScalar, KlBatchScalar, KlBatchTargetsScalar,
};

#ifdef INFLEX_KERNEL_X86

// -------------------------------------------------------------------- AVX2 --

// Lane j of `acc` is exactly the scalar partial sum s_j: _mm256_loadu_pd
// reads elements z..z+3 into lanes 0..3, the separate mul/add rounds exactly
// like the scalar `s_j += a*b` (contraction is off), and the loop body's
// iteration order matches the scalar's. loadu vs load is a non-issue on
// every AVX2 CPU when the address is aligned — what alignment buys is that
// the tree's stride-padded rows never straddle cache lines — so the kernels
// accept unaligned callers (e.g. KlQueryContext's buffers) for free.
__attribute__((target("avx2"))) inline __m256d
DotAccumulateAvx2(const double* a, const double* b, size_t n, size_t* z_out) {
  __m256d acc = _mm256_setzero_pd();
  size_t z = 0;
  for (; z + 4 <= n; z += 4) {
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_loadu_pd(a + z),
                                      _mm256_loadu_pd(b + z)));
  }
  *z_out = z;
  return acc;
}

// Scalar tail into lane 0's sum, then the scalar's horizontal order.
__attribute__((target("avx2"))) inline double
DotReduceAvx2(__m256d acc, const double* a, const double* b, size_t n,
              size_t z) {
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  double s0 = s[0];
  for (; z < n; ++z) s0 += a[z] * b[z];
  return (s0 + s[1]) + (s[2] + s[3]);
}

__attribute__((target("avx2"))) double DotAvx2(const double* a,
                                               const double* b, size_t n) {
  size_t z = 0;
  const __m256d acc = DotAccumulateAvx2(a, b, n, &z);
  return DotReduceAvx2(acc, a, b, n, z);
}

// Finishes four row reductions at once without leaving registers: a 4x4
// transpose turns the row accumulators into per-partial-sum vectors (v_j's
// lane r is row r's s_j), the tail loop feeds element z into every row's s0
// in the scalar's sequence (one broadcast multiply per element), and the
// final adds associate (s0+s1)+(s2+s3) lane-wise. Every lane therefore
// computes exactly the DotReduceAvx2 arithmetic for its row — the epilogue
// is vectorized across ROWS, not reordered within one.
__attribute__((target("avx2"))) inline __m256d
DotReduce4Avx2(__m256d a0, __m256d a1, __m256d a2, __m256d a3,
               const double* r0, const double* r1, const double* r2,
               const double* r3, const double* shared, size_t n, size_t z) {
  const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
  const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
  const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
  const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
  __m256d v0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  const __m256d v1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  const __m256d v2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  const __m256d v3 = _mm256_permute2f128_pd(t1, t3, 0x31);
  for (; z < n; ++z) {
    const __m256d pz = _mm256_set_pd(r3[z], r2[z], r1[z], r0[z]);
    v0 = _mm256_add_pd(v0, _mm256_mul_pd(pz, _mm256_set1_pd(shared[z])));
  }
  return _mm256_add_pd(_mm256_add_pd(v0, v1), _mm256_add_pd(v2, v3));
}

// max(diff, 0.0) with std::max's exact semantics: maxpd returns the SECOND
// operand on ties and NaN, so putting diff second reproduces
// `(diff < 0.0) ? 0.0 : diff` bit-for-bit (including -0.0 and NaN).
__attribute__((target("avx2"))) inline __m256d ClampNonNegAvx2(__m256d diff) {
  return _mm256_max_pd(_mm256_setzero_pd(), diff);
}

// Four rows in flight per outer step. Bit-identity pins each ROW's reduction
// to one dependent add chain (lane j is s_j, nothing else may touch it), so
// a single row can never retire faster than one vector-add latency per four
// elements — at any ISA width. Rows, however, are independent outputs:
// giving four rows four private accumulators hides that latency behind ILP
// and loads the shared query vector once per step instead of once per row.
// Each row still sees exactly the single-row mul/add sequence, so results
// stay bit-identical to DotAvx2 and to the scalar reference.
__attribute__((target("avx2"))) void KlBatchAvx2(
    const double* rows, const double* neg_entropies, size_t m, size_t n,
    size_t row_stride, const double* log_q, double* out) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* p0 = rows + i * row_stride;
    const double* p1 = p0 + row_stride;
    const double* p2 = p1 + row_stride;
    const double* p3 = p2 + row_stride;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    size_t z = 0;
    for (; z + 4 <= n; z += 4) {
      const __m256d lq = _mm256_loadu_pd(log_q + z);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p0 + z), lq));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p1 + z), lq));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p2 + z), lq));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p3 + z), lq));
    }
    const __m256d dots =
        DotReduce4Avx2(a0, a1, a2, a3, p0, p1, p2, p3, log_q, n, z);
    _mm256_storeu_pd(
        out + i,
        ClampNonNegAvx2(_mm256_sub_pd(_mm256_loadu_pd(neg_entropies + i),
                                      dots)));
  }
  for (; i < m; ++i) {
    const double* p = rows + i * row_stride;
    size_t z = 0;
    const __m256d acc = DotAccumulateAvx2(p, log_q, n, &z);
    out[i] =
        std::max(neg_entropies[i] - DotReduceAvx2(acc, p, log_q, n, z), 0.0);
  }
}

__attribute__((target("avx2"))) void KlBatchTargetsAvx2(
    const double* q, double q_neg_entropy, const double* log_targets, size_t m,
    size_t n, size_t row_stride, double* out) {
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* t0 = log_targets + i * row_stride;
    const double* t1 = t0 + row_stride;
    const double* t2 = t1 + row_stride;
    const double* t3 = t2 + row_stride;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    size_t z = 0;
    for (; z + 4 <= n; z += 4) {
      const __m256d qv = _mm256_loadu_pd(q + z);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(qv, _mm256_loadu_pd(t0 + z)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(qv, _mm256_loadu_pd(t1 + z)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(qv, _mm256_loadu_pd(t2 + z)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(qv, _mm256_loadu_pd(t3 + z)));
    }
    const __m256d dots =
        DotReduce4Avx2(a0, a1, a2, a3, t0, t1, t2, t3, q, n, z);
    _mm256_storeu_pd(
        out + i,
        ClampNonNegAvx2(_mm256_sub_pd(_mm256_set1_pd(q_neg_entropy), dots)));
  }
  for (; i < m; ++i) {
    const double* t = log_targets + i * row_stride;
    size_t z = 0;
    const __m256d acc = DotAccumulateAvx2(q, t, n, &z);
    out[i] = std::max(q_neg_entropy - DotReduceAvx2(acc, q, t, n, z), 0.0);
  }
}

constexpr KlKernelOps kAvx2Ops = {
    "avx2", DotAvx2, KlBatchAvx2, KlBatchTargetsAvx2,
};

#endif  // INFLEX_KERNEL_X86

}  // namespace

const KlKernelOps& ScalarKernelOps() { return kScalarOps; }

const KlKernelOps* Avx2KernelOps() {
#ifdef INFLEX_KERNEL_X86
  return &kAvx2Ops;
#else
  return nullptr;
#endif
}

const KlKernelOps& ResolveKernelOps(bool force_scalar) {
  if (force_scalar || !util::CpuHasAvx2() || Avx2KernelOps() == nullptr) {
    return kScalarOps;
  }
  return *Avx2KernelOps();
}

namespace {
// One-time resolution: cpuid + the INFLEX_FORCE_SCALAR escape hatch, read
// exactly once (magic static). Everything downstream — every search, every
// cache key, every golden seed list — sees one variant for the process
// lifetime, which is what keeps replay bit-identical.
struct ActiveKernels {
  bool forced_scalar = util::ForceScalarFromEnv();
  const KlKernelOps* ops = &ResolveKernelOps(forced_scalar);
};
const ActiveKernels& Active() {
  static const ActiveKernels active;
  return active;
}
}  // namespace

const KlKernelOps& ActiveKernelOps() { return *Active().ops; }

const char* DetectedSimdName() { return ResolveKernelOps(false).name; }

bool ActiveKernelsForcedScalar() { return Active().forced_scalar; }

}  // namespace simplex
}  // namespace inflex

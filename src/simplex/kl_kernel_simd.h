#ifndef INFLEX_SIMPLEX_KL_KERNEL_SIMD_H_
#define INFLEX_SIMPLEX_KL_KERNEL_SIMD_H_

#include <cstddef>

namespace inflex {
namespace simplex {

/// \brief Explicit-SIMD implementation of the KL kernel primitives with
/// runtime ISA dispatch (DESIGN.md §10): AVX2 when the CPU has it and
/// INFLEX_FORCE_SCALAR is unset, else the scalar reference.
///
/// The contract the AVX2 variant must honor is *bit-determinism*: the public
/// kernels (simplex/kl_kernel.h) promise the exact floating-point result of
/// the fixed-order 4-accumulator scalar reduction, because cache keys,
/// golden seed lists, and the per-generation bit-identical replay tests all
/// compare doubles across code paths. So the SIMD variant is not free to
/// reduce however is fastest; it must reproduce the scalar reduction
/// bit-for-bit. It keeps ONE 4×f64 accumulator whose lane j is exactly the
/// scalar partial sum s_j (lane→accumulator mapping: element z accumulates
/// into lane z mod 4), multiplies and adds as separate rounded operations
/// (no FMA — the scalar TU is pinned to -ffp-contract=off for the same
/// reason), finishes the tail scalar into lane 0's sum, and reduces
/// horizontally in the scalar's exact order (s0+s1)+(s2+s3).
///
/// Selection happens once per process (cpuid + the INFLEX_FORCE_SCALAR
/// escape hatch) through ActiveKernelOps(); tests pin variants explicitly.
struct KlKernelOps {
  /// Variant name as recorded in bench artifacts: "scalar"|"avx2".
  const char* name;
  /// ⟨a, b⟩ with the fixed 4-accumulator reduction order.
  double (*dot)(const double* a, const double* b, size_t n);
  /// out[i] = max(neg_entropies[i] − ⟨rows + i·row_stride, log_q⟩, 0) over m
  /// rows of n entries each (row_stride ≥ n; padding is never read).
  void (*kl_batch)(const double* rows, const double* neg_entropies, size_t m,
                   size_t n, size_t row_stride, const double* log_q,
                   double* out);
  /// The reverse-direction batch used by the bisection screen:
  /// out[i] = max(q_neg_entropy − ⟨q, log_targets + i·row_stride⟩, 0).
  void (*kl_batch_targets)(const double* q, double q_neg_entropy,
                           const double* log_targets, size_t m, size_t n,
                           size_t row_stride, double* out);
};

/// The portable fixed-order scalar kernels (always available; also the
/// reference the bit-identity tests compare the AVX2 variant against).
const KlKernelOps& ScalarKernelOps();

/// The AVX2 variant, or nullptr when the binary was compiled without x86
/// target-attribute support. Callers must additionally check cpuid before
/// invoking (tests use util::CpuHasAvx2()).
const KlKernelOps* Avx2KernelOps();

/// Picks the AVX2 variant when the executing CPU supports it, else the
/// scalar kernels; always scalar when `force_scalar` is set. Pure function
/// of (cpuid, force_scalar): callable repeatedly from tests.
const KlKernelOps& ResolveKernelOps(bool force_scalar);

/// The process-wide variant: resolved once on first use from cpuid and the
/// INFLEX_FORCE_SCALAR environment variable, then immutable.
const KlKernelOps& ActiveKernelOps();

/// Name of the best variant the executing CPU supports, ignoring the
/// escape hatch ("what the hardware has"), for bench artifact host records.
const char* DetectedSimdName();

/// True when INFLEX_FORCE_SCALAR pinned ActiveKernelOps() to scalar.
bool ActiveKernelsForcedScalar();

}  // namespace simplex
}  // namespace inflex

#endif  // INFLEX_SIMPLEX_KL_KERNEL_SIMD_H_

#ifndef INFLEX_UTIL_CPU_FEATURES_H_
#define INFLEX_UTIL_CPU_FEATURES_H_

namespace inflex {
namespace util {

/// \brief True when the executing CPU can run AVX2 code — the one
/// explicit-SIMD tier of the KL kernels (simplex/kl_kernel_simd.*), the
/// snapshot sampler and the vote-row kernel. Detection goes through the
/// compiler's cpuid support (__builtin_cpu_supports), which also checks OS
/// state (OSXSAVE/XCR0) before reporting a vector extension as usable; on
/// non-x86 targets it is false and the scalar kernels serve every call.
/// Queries the CPU on every call: callers cache the result (each dispatch
/// does so behind a function-local static).
bool CpuHasAvx2();

/// True when `value` (the content of INFLEX_FORCE_SCALAR, or nullptr when
/// the variable is unset) requests the scalar kernels. Any non-empty value
/// other than "0" forces scalar — the escape hatch must err toward honoring
/// the operator's intent.
bool ForceScalarRequested(const char* value);

/// Reads INFLEX_FORCE_SCALAR from the environment and applies
/// ForceScalarRequested.
bool ForceScalarFromEnv();

}  // namespace util
}  // namespace inflex

#endif  // INFLEX_UTIL_CPU_FEATURES_H_

#include "simplex/kl_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simplex/kl_kernel_simd.h"

namespace inflex {
namespace simplex {

double NegativeEntropy(const double* p, size_t n) {
  double s = 0.0;
  for (size_t z = 0; z < n; ++z) {
    if (p[z] > 0.0) s += p[z] * std::log(p[z]);
  }
  return s;
}

// Not dispatched: a vector clamp in front of the libm calls measured no
// faster (EXPERIMENTS.md "One SIMD tier").
void ClampedLog(const double* v, size_t n, double eps, double* out) {
  for (size_t z = 0; z < n; ++z) out[z] = std::log(std::max(v[z], eps));
}

// The dot-product kernels route through the process-wide dispatch table
// (kl_kernel_simd.h): resolved once from cpuid + INFLEX_FORCE_SCALAR, and
// the AVX2 variant reproduces the scalar fixed-order reduction bit-for-bit,
// so call sites keep the determinism guarantees they had when these were
// plain scalar loops.

double DotProduct(const double* a, const double* b, size_t n) {
  return ActiveKernelOps().dot(a, b, n);
}

void KlBatch(const double* rows, const double* neg_entropies, size_t m,
             size_t n, const double* log_q, double* out) {
  ActiveKernelOps().kl_batch(rows, neg_entropies, m, n, n, log_q, out);
}

void KlBatch(const double* rows, const double* neg_entropies, size_t m,
             size_t n, size_t row_stride, const double* log_q, double* out) {
  ActiveKernelOps().kl_batch(rows, neg_entropies, m, n, row_stride, log_q,
                             out);
}

void KlBatchTargets(const double* q, double q_neg_entropy,
                    const double* log_targets, size_t m, size_t n,
                    size_t row_stride, double* out) {
  ActiveKernelOps().kl_batch_targets(q, q_neg_entropy, log_targets, m, n,
                                     row_stride, out);
}

KlErrorBound::KlErrorBound(const double* p, size_t n) {
  double plogp = 0.0, mass = 0.0, max = 0.0;
  min_positive_ = std::numeric_limits<double>::infinity();
  for (size_t z = 0; z < n; ++z) {
    if (p[z] > 0.0) {
      plogp += p[z] * std::fabs(std::log(p[z]));
      mass += p[z];
      max = std::max(max, p[z]);
      min_positive_ = std::min(min_positive_, p[z]);
    }
  }
  // Twice the derived 2(n+4)u (DESIGN.md §10): the headroom absorbs the
  // rounding of this bound itself and of the screens' `f + δ` sums.
  const double c = 4.0 * (static_cast<double>(n) + 4.0) *
                   (std::numeric_limits<double>::epsilon() / 2);
  entropy_term_ = max > kKlBoundMaxCoordinate
                      ? std::numeric_limits<double>::infinity()
                      : c * plogp;
  mass_term_ = c * mass;
  slack_ = 4.0 * static_cast<double>(n) * std::numeric_limits<double>::min();
}

double KlErrorBound::Against(const double* q, const double* log_q,
                             size_t n) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double max_abs_log = 0.0, q_max = 0.0;
  for (size_t z = 0; z < n; ++z) {
    max_abs_log = std::max(max_abs_log, std::fabs(log_q[z]));
    q_max = std::max(q_max, q[z]);
  }
  if (!(max_abs_log < kInf)) return kInf;
  // With every q̂_z ≤ 1 a ratio p_z / q̂_z is ≥ p_z and the slack covers it;
  // above 1 it could underflow to zero and take the reference's log to −inf.
  if (q_max > 1.0 &&
      min_positive_ < q_max * std::numeric_limits<double>::min()) {
    return kInf;
  }
  return entropy_term_ + mass_term_ * (max_abs_log + 1.0) + slack_;
}

void KlQueryContext::Reset(const double* query, size_t n, double eps) {
  dim_ = n;
  q_.assign(query, query + n);
  log_q_.resize(n);
  ClampedLog(query, n, eps, log_q_.data());
  neg_entropy_q_ = NegativeEntropy(query, n);
}

}  // namespace simplex
}  // namespace inflex

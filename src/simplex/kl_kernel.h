#ifndef INFLEX_SIMPLEX_KL_KERNEL_H_
#define INFLEX_SIMPLEX_KL_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "simplex/divergence.h"
#include "simplex/topic_distribution.h"

namespace inflex {
namespace simplex {

/// \brief The vectorized right-sided KL kernel layer.
///
/// Every tree search evaluates D_KL(p ‖ q) for one fixed query q against many
/// stored points p (leaf scans, child-center descent, Eq. 5 bisection). The
/// reference KlDivergence() recomputes std::log for both arguments on every
/// call; this layer factorizes
///
///   D_KL(p ‖ q) = Σ_z p_z·log p_z − Σ_z p_z·log(max(q_z, eps))
///               = −H(p) − ⟨p, log q̂⟩
///
/// so that −H(p) is precomputed once per *stored point* (at index build /
/// insert time), log q̂ is computed once per *query* (KlQueryContext), and
/// each remaining evaluation is a single branch- and log-free dot product
/// over contiguous memory. Equivalence with the reference: terms with
/// p_z = 0 vanish in the dot product exactly as the reference skips them,
/// and both sides clamp the result at the mathematical lower bound 0; only
/// floating-point association differs. KlErrorBound below bounds the
/// difference (DESIGN.md §10).

/// Σ_{z : p_z > 0} p_z·log p_z — the negative Shannon entropy −H(p).
double NegativeEntropy(const double* p, size_t n);

/// out[z] = log(max(v[z], eps)) — the per-query (or per-center) clamped log
/// transform of the factorization. One scalar libm std::log per element on
/// every host (vector-log libraries are not bit-compatible with it).
void ClampedLog(const double* v, size_t n, double eps, double* out);

/// Plain dot product ⟨a, b⟩ with four independent partial sums in a fixed
/// summation order — deterministic across call sites AND across the
/// scalar/AVX2 variants behind the runtime dispatch (kl_kernel_simd.h):
/// both reproduce the same reduction bit-for-bit, so swapping ISAs never
/// moves a cached answer.
double DotProduct(const double* a, const double* b, size_t n);

/// The factorized kernel: max(p_neg_entropy − ⟨p, log_q⟩, 0).
inline double KlFactorized(double p_neg_entropy, const double* p,
                           const double* log_q, size_t n) {
  return std::max(p_neg_entropy - DotProduct(p, log_q, n), 0.0);
}

/// Batch kernel over a row-major matrix: out[i] = KlFactorized over row i of
/// `rows` (m rows × n columns) with its precomputed negative entropy.
void KlBatch(const double* rows, const double* neg_entropies, size_t m,
             size_t n, const double* log_q, double* out);

/// Strided batch kernel for 64-byte-aligned padded row storage: row i starts
/// at rows + i·row_stride (row_stride ≥ n; the padding is never read, so it
/// can hold anything). The dense overload above is row_stride == n.
void KlBatch(const double* rows, const double* neg_entropies, size_t m,
             size_t n, size_t row_stride, const double* log_q, double* out);

/// Reverse-direction batch (the batched bisection screen, DESIGN.md §10):
/// out[i] = max(q_neg_entropy − ⟨q, log_targets + i·row_stride⟩, 0)
///        = D_KL(q ‖ target_i) for targets with precomputed clamped logs.
/// Bit-identical to KlQueryContext::KlOfQueryAgainst per row.
void KlBatchTargets(const double* q, double q_neg_entropy,
                    const double* log_targets, size_t m, size_t n,
                    size_t row_stride, double* out);

/// \brief Forward-error bound of the factorized kernel against the reference
/// (DESIGN.md §10, "The screen bound"). For finite, non-negative p and q and
/// log_q = ClampedLog(q, eps) with the reference's eps,
///
///   |KlFactorized(NegativeEntropy(p), p, log_q) − KlDivergence(p, q, eps)|
///       ≤ KlErrorBound(p, n).Against(q, log_q, n).
///
/// The bound is 4(n+4)·u·(Σ p_z|log p_z| + (max_z |log q̂_z| + 1)·Σ p_z) +
/// 4n·DBL_MIN, with u the unit roundoff; it does not assume Σp = 1. It is
/// +inf where the written argument does not cover the pair: p above
/// kKlBoundMaxCoordinate, a non-finite center, or a center above 1 against a
/// p_z small enough for p_z / q̂_z to underflow. The point's side is built
/// once per point. Against() reads the center's largest coordinate and
/// largest |log q̂_z|, so a vector holding the extremes of a set of centers
/// (with its own clamped logs, of any length) bounds every center in the set.
class KlErrorBound {
 public:
  KlErrorBound(const double* p, size_t n);

  double Against(const double* q, const double* log_q, size_t n) const;

 private:
  double entropy_term_;  // 4(n+4)u·Σ p|log p|, +inf past the coordinate cap
  double mass_term_;     // 4(n+4)u·Σ p
  double slack_;         // 4n·DBL_MIN: subnormal products and ratios
  double min_positive_;  // smallest p_z > 0, +inf if none
};

/// Coordinates above this take KlErrorBound to +inf: below it no
/// intermediate of either kernel can overflow.
inline constexpr double kKlBoundMaxCoordinate = 0x1p500;

/// \brief Per-query evaluation context: owns a copy of the query, its
/// clamped log transform, and its negative entropy. Reset() once per query,
/// then every KL evaluation against the query is one dot product. Reusable
/// across queries without reallocation (buffers are retained), which is what
/// makes the tree searches allocation-free in steady state.
class KlQueryContext {
 public:
  KlQueryContext() = default;

  void Reset(const double* query, size_t n, double eps = kKlSmoothingEps);
  void Reset(const TopicVector& query, double eps = kKlSmoothingEps) {
    Reset(query.data(), query.size(), eps);
  }

  size_t dim() const { return dim_; }
  const double* query() const { return q_.data(); }
  /// log(max(q_z, eps)) — shared by the KL factorization and the geodesic
  /// bisection (both clamp at kKlSmoothingEps).
  const double* log_query() const { return log_q_.data(); }
  /// −H(q), for divergences *of the query* against a stored center.
  double query_neg_entropy() const { return neg_entropy_q_; }

  /// D_KL(p ‖ q) for a stored point with precomputed −H(p).
  double Kl(const double* p, double p_neg_entropy) const {
    return KlFactorized(p_neg_entropy, p, log_q_.data(), dim_);
  }

  /// D_KL(q ‖ t) against a target with precomputed log(max(t_z, eps)).
  double KlOfQueryAgainst(const double* log_target) const {
    return KlFactorized(neg_entropy_q_, q_.data(), log_target, dim_);
  }

  /// Retained buffer capacity in doubles (the query copy + its log).
  size_t retained_capacity() const {
    return q_.capacity() + log_q_.capacity();
  }

  /// Releases the retained buffers when their capacity is far beyond `dim`
  /// (long-lived contexts serve queries of different dimension back to back;
  /// see bbtree::SearchContext::BindTo for the hysteresis contract).
  void ShrinkTo(size_t dim) {
    if (q_.capacity() > std::max<size_t>(4 * dim, 64)) {
      std::vector<double>().swap(q_);
      std::vector<double>().swap(log_q_);
      q_.reserve(dim);
      log_q_.reserve(dim);
      dim_ = 0;
      neg_entropy_q_ = 0.0;
    }
  }

 private:
  std::vector<double> q_;
  std::vector<double> log_q_;
  double neg_entropy_q_ = 0.0;
  size_t dim_ = 0;
};

}  // namespace simplex
}  // namespace inflex

#endif  // INFLEX_SIMPLEX_KL_KERNEL_H_

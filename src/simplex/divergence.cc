#include "simplex/divergence.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace inflex {
namespace simplex {

double KlDivergence(const TopicVector& p, const TopicVector& q, double eps) {
  INFLEX_CHECK_EQ(p.size(), q.size());
  return KlDivergence(p.data(), q.data(), p.size(), eps);
}

double KlDivergence(const double* p, const double* q, size_t n, double eps) {
  double kl = 0.0;
  for (size_t z = 0; z < n; ++z) {
    if (p[z] > 0.0) {
      kl += p[z] * std::log(p[z] / std::max(q[z], eps));
    }
  }
  // Tiny negative values can arise from floating-point cancellation when
  // p ≈ q; clamp to the mathematical lower bound.
  return std::max(kl, 0.0);
}

double KlDivergence(const TopicDistribution& p, const TopicDistribution& q,
                    double eps) {
  return KlDivergence(p.probs(), q.probs(), eps);
}

double SymmetrizedKl(const TopicVector& p, const TopicVector& q, double eps) {
  return 0.5 * (KlDivergence(p, q, eps) + KlDivergence(q, p, eps));
}

double KlMaxBound(double eps) {
  INFLEX_CHECK_GT(eps, 0.0);
  // D_KL(e_i ‖ e_j) with the second argument clamped at eps: 1·log(1/eps).
  return std::log(1.0 / eps);
}

double Entropy(const TopicVector& p) {
  double h = 0.0;
  for (double v : p) {
    if (v > 0.0) h -= v * std::log(v);
  }
  return h;
}

double SquaredEuclidean(const TopicVector& p, const TopicVector& q) {
  INFLEX_CHECK_EQ(p.size(), q.size());
  return SquaredEuclidean(p.data(), q.data(), p.size());
}

double SquaredEuclidean(const double* p, const double* q, size_t n) {
  double s = 0.0;
  for (size_t z = 0; z < n; ++z) {
    const double d = p[z] - q[z];
    s += d * d;
  }
  return s;
}

}  // namespace simplex
}  // namespace inflex

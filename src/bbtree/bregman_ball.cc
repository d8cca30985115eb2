#include "bbtree/bregman_ball.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simplex/divergence.h"
#include "util/check.h"
#include "util/timer.h"

namespace inflex {
namespace bbtree {

namespace {

constexpr int kMaxBisectionIters = 60;
constexpr double kLambdaTolerance = 1e-10;

// Fills scratch->x with the normalized geodesic point between q (λ=0) and μ
// (λ=1) — the componentwise geometric mixture x_λ ∝ q̂^{1−λ} μ̂^λ — and
// returns Σ_z x_z·log x_z (its negative entropy). The entropy falls out of
// the log-mixture coordinates u_z = (1−λ)·log q̂_z + λ·log μ̂_z without
// further log calls: log x_z = u_z − log S, where S normalizes exp(u).
double GeodesicPoint(const double* log_q, const double* log_mu, size_t n,
                     double lambda, BisectionScratch* scratch) {
  scratch->x.resize(n);
  scratch->u.resize(n);
  double sum = 0.0;
  for (size_t z = 0; z < n; ++z) {
    const double u = (1.0 - lambda) * log_q[z] + lambda * log_mu[z];
    scratch->u[z] = u;
    const double e = std::exp(u);
    scratch->x[z] = e;
    sum += e;
  }
  const double inv = 1.0 / sum;
  for (size_t z = 0; z < n; ++z) scratch->x[z] *= inv;
  return simplex::DotProduct(scratch->x.data(), scratch->u.data(), n) -
         std::log(sum);
}

}  // namespace

BregmanBall::BregmanBall(simplex::TopicVector center, double radius)
    : center_(std::move(center)), radius_(radius) {
  log_center_.resize(center_.size());
  simplex::ClampedLog(center_.data(), center_.size(), simplex::kKlSmoothingEps,
                      log_center_.data());
  neg_entropy_ = simplex::NegativeEntropy(center_.data(), center_.size());
}

void BregmanBall::EnlargeRadius(double radius) {
  radius_ = std::max(radius_, radius);
}

bool BregmanBall::Contains(const simplex::TopicVector& x, double slack) const {
  return simplex::KlDivergence(x, center_) <= radius_ + slack;
}

bool BregmanBall::CanPruneScreened(const simplex::KlQueryContext& query,
                                   double div_q_center, double delta,
                                   BisectionScratch* scratch,
                                   SearchStats* stats) const {
  INFLEX_CHECK_EQ(query.dim(), center_.size());
  if (delta == std::numeric_limits<double>::infinity()) return false;
  Timer timer;
  size_t evals = 0;
  const double* log_q = query.log_query();
  bool prune = false;
  if (div_q_center > radius_) {
    const size_t n = center_.size();
    double lambda_out = 0.0, lambda_in = 1.0;
    for (int it = 0; it < kMaxBisectionIters; ++it) {
      const double mid = 0.5 * (lambda_out + lambda_in);
      const double neg_entropy_x =
          GeodesicPoint(log_q, log_center_.data(), n, mid, scratch);
      const double d_to_center = std::max(
          neg_entropy_x -
              simplex::DotProduct(scratch->x.data(), log_center_.data(), n),
          0.0);
      const double d_to_query = std::max(
          neg_entropy_x - simplex::DotProduct(scratch->x.data(), log_q, n),
          0.0);
      evals += 2;
      if (d_to_center > radius_) {
        lambda_out = mid;
        // x is infeasible but closer to q than the projection: lower bound.
        if (d_to_query >= delta) {
          prune = true;
          break;
        }
      } else {
        lambda_in = mid;
        // x is feasible: upper bound on the minimum.
        if (d_to_query < delta) {
          prune = false;
          break;
        }
      }
      if (lambda_in - lambda_out <= kLambdaTolerance) {
        prune = d_to_query >= delta;
        break;
      }
    }
  }
  if (stats != nullptr) {
    stats->kl_evaluations += evals;
    stats->kl_ns += static_cast<uint64_t>(timer.ElapsedSeconds() * 1e9);
  }
  return prune;
}

}  // namespace bbtree
}  // namespace inflex

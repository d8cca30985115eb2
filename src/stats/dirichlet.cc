#include "stats/dirichlet.h"

#include <algorithm>
#include <cmath>

#include "stats/special_functions.h"
#include "util/check.h"

namespace inflex {
namespace stats {

Dirichlet::Dirichlet(std::vector<double> alpha) : alpha_(std::move(alpha)) {
  INFLEX_CHECK(!alpha_.empty());
  alpha_sum_ = 0.0;
  for (double a : alpha_) {
    INFLEX_CHECK_GT(a, 0.0);
    alpha_sum_ += a;
  }
  log_norm_ = -std::lgamma(alpha_sum_);
  for (double a : alpha_) log_norm_ += std::lgamma(a);
}

std::vector<double> Dirichlet::Mean() const {
  std::vector<double> m(alpha_.size());
  for (size_t k = 0; k < alpha_.size(); ++k) m[k] = alpha_[k] / alpha_sum_;
  return m;
}

double Dirichlet::LogPdf(const std::vector<double>& gamma) const {
  INFLEX_CHECK_EQ(gamma.size(), alpha_.size());
  constexpr double kEps = 1e-12;
  double lp = -log_norm_;
  for (size_t k = 0; k < alpha_.size(); ++k) {
    lp += (alpha_[k] - 1.0) * std::log(std::max(gamma[k], kEps));
  }
  return lp;
}

void Dirichlet::SampleInto(Rng* rng, double* out) const {
  const size_t dim = alpha_.size();
  double sum = 0.0;
  for (size_t k = 0; k < dim; ++k) {
    out[k] = rng->Gamma(alpha_[k]);
    sum += out[k];
  }
  if (sum <= 0.0) {
    // All Gamma draws underflowed (possible for very small α); return the
    // uniform center as a safe fallback.
    std::fill(out, out + dim, 1.0 / static_cast<double>(dim));
    return;
  }
  for (size_t k = 0; k < dim; ++k) out[k] /= sum;
}

std::vector<double> Dirichlet::Sample(Rng* rng) const {
  std::vector<double> g(alpha_.size());
  SampleInto(rng, g.data());
  return g;
}

std::vector<std::vector<double>> Dirichlet::SampleMany(size_t n,
                                                       Rng* rng) const {
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Sample(rng));
  return out;
}

std::vector<double> Dirichlet::SampleRows(size_t n, Rng* rng) const {
  const size_t dim = alpha_.size();
  std::vector<double> rows(n * dim);
  for (size_t i = 0; i < n; ++i) SampleInto(rng, rows.data() + i * dim);
  return rows;
}

namespace {

// Sufficient statistics: log p̄_k = (1/N) Σ_i log x_{ik}, with ε clamping.
std::vector<double> MeanLog(size_t n, const DataRow& data, size_t dim,
                            double eps) {
  std::vector<double> mean_log(dim, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const std::span<const double> row = data(i);
    for (size_t k = 0; k < dim; ++k) {
      mean_log[k] += std::log(std::max(row[k], eps));
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (double& v : mean_log) v *= inv_n;
  return mean_log;
}

// Moment-matching initialization (Minka 2000, Eq. 23): estimate the precision
// from the first two moments of the first usable component.
std::vector<double> MomentInit(size_t n, const DataRow& data, size_t dim) {
  std::vector<double> mean(dim, 0.0), mean_sq(dim, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const std::span<const double> row = data(i);
    for (size_t k = 0; k < dim; ++k) {
      mean[k] += row[k];
      mean_sq[k] += row[k] * row[k];
    }
  }
  for (size_t k = 0; k < dim; ++k) {
    mean[k] /= static_cast<double>(n);
    mean_sq[k] /= static_cast<double>(n);
  }
  double precision = static_cast<double>(dim);
  for (size_t k = 0; k < dim; ++k) {
    const double var = mean_sq[k] - mean[k] * mean[k];
    if (var > 1e-12 && mean[k] > 1e-12) {
      precision = (mean[k] - mean_sq[k]) / var;
      break;
    }
  }
  precision = std::max(precision, 1e-3);
  std::vector<double> alpha(dim);
  for (size_t k = 0; k < dim; ++k) {
    alpha[k] = std::max(mean[k] * precision, 1e-6);
  }
  return alpha;
}

// One sweep of Minka's fixed-point iteration:
//   ψ(α_k^new) = ψ(Σ_j α_j) + log p̄_k.
void FixedPointSweep(const std::vector<double>& mean_log,
                     std::vector<double>* alpha) {
  double alpha_sum = 0.0;
  for (double a : *alpha) alpha_sum += a;
  const double psi_sum = Digamma(alpha_sum);
  for (size_t k = 0; k < alpha->size(); ++k) {
    (*alpha)[k] = InverseDigamma(psi_sum + mean_log[k]);
  }
}

// One step of Minka's generalized Newton iteration, exploiting the
// diagonal-plus-rank-one structure of the Hessian. Returns false (leaving
// alpha untouched) when the step would exit the positive orthant.
bool NewtonStep(const std::vector<double>& mean_log, size_t n,
                std::vector<double>* alpha) {
  const size_t dim = alpha->size();
  double alpha_sum = 0.0;
  for (double a : *alpha) alpha_sum += a;
  const double psi_sum = Digamma(alpha_sum);
  const double nn = static_cast<double>(n);

  std::vector<double> g(dim), q(dim);
  for (size_t k = 0; k < dim; ++k) {
    g[k] = nn * (psi_sum - Digamma((*alpha)[k]) + mean_log[k]);
    q[k] = -nn * Trigamma((*alpha)[k]);
  }
  const double z = nn * Trigamma(alpha_sum);
  double sum_g_over_q = 0.0, sum_inv_q = 0.0;
  for (size_t k = 0; k < dim; ++k) {
    sum_g_over_q += g[k] / q[k];
    sum_inv_q += 1.0 / q[k];
  }
  const double b = sum_g_over_q / (1.0 / z + sum_inv_q);

  std::vector<double> next(dim);
  for (size_t k = 0; k < dim; ++k) {
    next[k] = (*alpha)[k] - (g[k] - b) / q[k];
    if (!(next[k] > 0.0) || !std::isfinite(next[k])) return false;
  }
  *alpha = std::move(next);
  return true;
}

}  // namespace

Result<Dirichlet> FitDirichletMle(size_t num_rows, const DataRow& data,
                                  const DirichletMleOptions& options) {
  if (num_rows == 0) {
    return Status::InvalidArgument("Dirichlet MLE requires at least one point");
  }
  const size_t dim = data(0).size();
  if (dim < 2) {
    return Status::InvalidArgument("Dirichlet MLE requires dimension >= 2");
  }
  for (size_t i = 0; i < num_rows; ++i) {
    const std::span<const double> row = data(i);
    if (row.size() != dim) {
      return Status::InvalidArgument("inconsistent dimensions in MLE data");
    }
    for (double v : row) {
      if (!std::isfinite(v) || v < 0.0) {
        return Status::InvalidArgument("non-finite or negative simplex entry");
      }
    }
  }

  const std::vector<double> mean_log =
      MeanLog(num_rows, data, dim, options.smoothing_eps);
  std::vector<double> alpha = MomentInit(num_rows, data, dim);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::vector<double> prev = alpha;
    bool stepped = false;
    if (options.use_newton) {
      stepped = NewtonStep(mean_log, num_rows, &alpha);
    }
    if (!stepped) {
      FixedPointSweep(mean_log, &alpha);
    }
    double max_rel = 0.0;
    for (size_t k = 0; k < dim; ++k) {
      max_rel = std::max(max_rel,
                         std::fabs(alpha[k] - prev[k]) / (1.0 + prev[k]));
    }
    if (max_rel < options.tolerance) break;
  }
  for (double a : alpha) {
    if (!(a > 0.0) || !std::isfinite(a)) {
      return Status::Internal("Dirichlet MLE diverged");
    }
  }
  return Dirichlet(std::move(alpha));
}

Result<Dirichlet> FitDirichletMle(const std::vector<std::vector<double>>& data,
                                  const DirichletMleOptions& options) {
  return FitDirichletMle(
      data.size(),
      [&data](size_t i) { return std::span<const double>(data[i]); },
      options);
}

}  // namespace stats
}  // namespace inflex

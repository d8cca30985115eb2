#ifndef INFLEX_STATS_DIRICHLET_H_
#define INFLEX_STATS_DIRICHLET_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace inflex {
namespace stats {

/// \brief Dirichlet distribution over the (Z−1)-simplex with concentration
/// parameters α. Used both to model the item catalog (index-point selection,
/// §3.1 of the paper) and to synthesize catalogs in the data substrate.
class Dirichlet {
 public:
  /// Constructs Dirichlet(α). All α_k must be positive.
  explicit Dirichlet(std::vector<double> alpha);

  size_t dim() const { return alpha_.size(); }
  const std::vector<double>& alpha() const { return alpha_; }

  /// Sum of concentration parameters (the "precision").
  double alpha_sum() const { return alpha_sum_; }

  /// Expected value E[γ] (the normalized α vector).
  std::vector<double> Mean() const;

  /// Log density at a point on the simplex; the point is ε-clamped away from
  /// the boundary to keep the density finite for sparse inputs.
  double LogPdf(const std::vector<double>& gamma) const;

  /// Draws one sample via normalized Gamma variates.
  std::vector<double> Sample(Rng* rng) const;

  /// Draws `n` samples.
  std::vector<std::vector<double>> SampleMany(size_t n, Rng* rng) const;

  /// Draws the `n` samples SampleMany draws, bit for bit, into one
  /// row-major n × dim() matrix allocated once at its exact size.
  std::vector<double> SampleRows(size_t n, Rng* rng) const;

 private:
  // One sample into out[0, dim()).
  void SampleInto(Rng* rng, double* out) const;

  std::vector<double> alpha_;
  double alpha_sum_;
  double log_norm_;  // log B(α)
};

/// \brief Options for maximum-likelihood Dirichlet estimation.
struct DirichletMleOptions {
  /// Maximum Newton / fixed-point sweeps.
  int max_iterations = 1000;
  /// Convergence threshold on max |Δα_k| / (1 + |α_k|).
  double tolerance = 1e-9;
  /// Boundary clamp applied to the observations before taking logs.
  double smoothing_eps = 1e-10;
  /// When true uses Minka's generalized Newton iteration (with the
  /// diagonal-plus-rank-one Hessian inverse); otherwise the slower but
  /// unconditionally stable fixed-point iteration. Newton falls back to a
  /// fixed-point sweep whenever a step would leave the positive orthant.
  bool use_newton = true;
};

/// Row i of the data FitDirichletMle reads, a point on the simplex. Rows
/// are read in index order, so callers fit their own storage without
/// copying it.
using DataRow = std::function<std::span<const double>(size_t)>;

/// Fits Dirichlet concentration parameters that maximize the likelihood of
/// rows 0 … num_rows − 1 following Minka (2000). Fails when there are no
/// rows, rows disagree on dimension, or any row has a non-finite or
/// negative entry.
Result<Dirichlet> FitDirichletMle(size_t num_rows, const DataRow& row,
                                  const DirichletMleOptions& options = {});

/// The same fit over rows held one vector each.
Result<Dirichlet> FitDirichletMle(const std::vector<std::vector<double>>& data,
                                  const DirichletMleOptions& options = {});

}  // namespace stats
}  // namespace inflex

#endif  // INFLEX_STATS_DIRICHLET_H_

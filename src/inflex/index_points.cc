#include "inflex/index_points.h"

#include <algorithm>
#include <limits>
#include <span>

#include "cluster/kmeans.h"
#include "simplex/divergence.h"
#include "util/random.h"

namespace inflex {
namespace core {

namespace {

// The catalog's fitted Dirichlet, read in place from the items' own
// probability vectors.
Result<stats::Dirichlet> FitCatalog(
    const std::vector<simplex::TopicDistribution>& catalog) {
  return stats::FitDirichletMle(catalog.size(), [&catalog](size_t i) {
    return std::span<const double>(catalog[i].probs());
  });
}

}  // namespace

Result<IndexPointSelection> SelectIndexPoints(
    const std::vector<simplex::TopicDistribution>& catalog,
    const IndexPointOptions& options) {
  if (catalog.empty()) {
    return Status::InvalidArgument("index-point selection needs a catalog");
  }
  if (options.num_index_points == 0) {
    return Status::InvalidArgument("num_index_points must be positive");
  }
  if (options.num_dirichlet_samples < options.num_index_points) {
    return Status::InvalidArgument(
        "need at least as many Dirichlet samples as index points");
  }

  const size_t z_count = catalog.front().num_topics();
  for (const auto& item : catalog) {
    if (item.num_topics() != z_count) {
      return Status::InvalidArgument("catalog items disagree on dimension");
    }
  }

  IndexPointSelection selection;

  // Phase 1: maximum-likelihood Dirichlet (Minka 2000).
  INFLEX_ASSIGN_OR_RETURN(stats::Dirichlet fitted, FitCatalog(catalog));
  selection.dirichlet_alpha = fitted.alpha();

  // Phase 2: sample the item space the catalog induces.
  Rng rng(options.seed);
  selection.samples = fitted.SampleRows(options.num_dirichlet_samples, &rng);

  // Phase 3: Bregman K-means++ — centroids become the index points.
  cluster::KMeansOptions kopts;
  kopts.num_clusters = options.num_index_points;
  kopts.max_iterations = options.kmeans_max_iterations;
  kopts.divergence = cluster::BregmanDivergenceKind::kKl;
  kopts.seed = rng.Next();
  INFLEX_ASSIGN_OR_RETURN(cluster::KMeansResult clustering,
                          cluster::KMeansPlusPlus(selection.samples, z_count,
                                                  kopts));
  selection.points = std::move(clustering.centroids);
  return selection;
}

Result<size_t> SuggestIndexPointCount(
    const std::vector<simplex::TopicDistribution>& catalog,
    const IndexSizeCriterion& criterion) {
  if (catalog.empty()) {
    return Status::InvalidArgument("index sizing needs a catalog");
  }
  if (criterion.min_points == 0 ||
      criterion.min_points > criterion.max_points) {
    return Status::InvalidArgument("require 0 < min_points <= max_points");
  }
  if (criterion.quantile <= 0.0 || criterion.quantile > 1.0) {
    return Status::InvalidArgument("quantile must lie in (0, 1]");
  }
  if (!(criterion.target_divergence > 0.0)) {
    return Status::InvalidArgument("target_divergence must be positive");
  }
  if (criterion.validation_samples == 0) {
    return Status::InvalidArgument("validation_samples must be positive");
  }

  INFLEX_ASSIGN_OR_RETURN(stats::Dirichlet fitted, FitCatalog(catalog));
  const size_t z_count = fitted.dim();

  Rng rng(criterion.seed);
  const size_t num_validation = criterion.validation_samples;
  const std::vector<double> validation =
      fitted.SampleRows(num_validation, &rng);
  // The quantile index of the NN-divergence order statistic to test.
  const size_t q_index = std::min(
      num_validation - 1,
      static_cast<size_t>(criterion.quantile * (num_validation - 1)));

  for (size_t h = criterion.min_points;; h *= 2) {
    h = std::min(h, criterion.max_points);
    const size_t train_n =
        std::min<size_t>(criterion.training_samples, 20 * h);
    const std::vector<double> training =
        fitted.SampleRows(std::max(train_n, h), &rng);
    cluster::KMeansOptions kopts;
    kopts.num_clusters = h;
    kopts.max_iterations = 15;
    kopts.divergence = cluster::BregmanDivergenceKind::kKl;
    kopts.seed = rng.Next();
    INFLEX_ASSIGN_OR_RETURN(cluster::KMeansResult clustering,
                            cluster::KMeansPlusPlus(training, z_count, kopts));

    std::vector<double> nn(num_validation);
    for (size_t i = 0; i < num_validation; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : clustering.centroids) {
        best = std::min(best,
                        simplex::KlDivergence(c.data(),
                                              validation.data() + i * z_count,
                                              z_count));
      }
      nn[i] = best;
    }
    std::nth_element(nn.begin(), nn.begin() + q_index, nn.end());
    if (nn[q_index] <= criterion.target_divergence ||
        h >= criterion.max_points) {
      return h;
    }
  }
}

}  // namespace core
}  // namespace inflex

#ifndef INFLEX_INFLEX_INDEX_POINTS_H_
#define INFLEX_INFLEX_INDEX_POINTS_H_

#include <vector>

#include "simplex/topic_distribution.h"
#include "stats/dirichlet.h"
#include "util/status.h"

namespace inflex {
namespace core {

/// \brief Options for index-point selection (§3.1).
struct IndexPointOptions {
  /// Number h of index points (K-means++ centroids).
  size_t num_index_points = 1000;
  /// Samples drawn from the fitted Dirichlet before clustering (the paper
  /// uses 100k).
  size_t num_dirichlet_samples = 100000;
  /// K-means sweeps over the sample.
  int kmeans_max_iterations = 30;
  uint64_t seed = 5;
};

/// \brief Output of the three-phase selection pipeline, keeping the
/// intermediate artifacts Figure 3 visualizes.
struct IndexPointSelection {
  /// Hyper-parameters α of the maximum-likelihood Dirichlet fitted to the
  /// catalog (Minka's generalized Newton iteration).
  std::vector<double> dirichlet_alpha;
  /// The Dirichlet sample the centroids were clustered from:
  /// num_dirichlet_samples points of Z coordinates, row-major in one array.
  std::vector<double> samples;
  /// The h selected index points (K-means++ centroids).
  std::vector<simplex::TopicVector> points;
};

/// Runs the paper's index-point selection: fit Dirichlet(α) to the catalog
/// by maximum likelihood, draw `num_dirichlet_samples` points from it, and
/// keep the h Bregman K-means++ centroids — the compromise between
/// space-based and fully data-driven indexing discussed in §3.1.
/// Fails on an empty catalog or h = 0.
Result<IndexPointSelection> SelectIndexPoints(
    const std::vector<simplex::TopicDistribution>& catalog,
    const IndexPointOptions& options);

/// \brief Accuracy criterion for the automatic choice of the index size h
/// (the paper's §6 future work: "automatic determination of the number of
/// items to index for maintaining the accuracy of the framework").
///
/// Rationale: Figure 4 shows seed-list disagreement grows monotonically
/// with KL divergence, so bounding the divergence from future queries to
/// their nearest index point bounds the answer error. The criterion asks
/// that a chosen quantile of held-out catalog-like queries lie within
/// `target_divergence` of an index point.
struct IndexSizeCriterion {
  /// Maximum acceptable D_KL(nearest index point ‖ query).
  double target_divergence = 0.25;
  /// Fraction of validation queries that must satisfy the target.
  double quantile = 0.9;
  /// Search range; the result is the smallest power-of-two-scaled h in
  /// [min_points, max_points] meeting the criterion (max_points when none
  /// does).
  size_t min_points = 16;
  size_t max_points = 4096;
  /// Held-out queries drawn from the fitted Dirichlet.
  size_t validation_samples = 1000;
  /// Training sample used for clustering candidates (per candidate h the
  /// training size is min(20·h, this)).
  size_t training_samples = 20000;
  uint64_t seed = 29;
};

/// Suggests the number of index points h: doubles h from min_points until
/// the coverage criterion holds on held-out Dirichlet samples. Each
/// candidate costs one K-means++ run (no influence maximization), so this
/// is cheap relative to the seed-list precompute it sizes.
Result<size_t> SuggestIndexPointCount(
    const std::vector<simplex::TopicDistribution>& catalog,
    const IndexSizeCriterion& criterion = {});

}  // namespace core
}  // namespace inflex

#endif  // INFLEX_INFLEX_INDEX_POINTS_H_

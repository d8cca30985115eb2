#ifndef INFLEX_CLUSTER_KMEANS_H_
#define INFLEX_CLUSTER_KMEANS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "simplex/topic_distribution.h"
#include "util/random.h"
#include "util/status.h"

namespace inflex {
namespace cluster {

/// Bregman divergences supported by the clustering layer. For every Bregman
/// divergence d_f(x, μ) the minimizer of Σ_i d_f(x_i, μ) over μ is the
/// arithmetic mean (Banerjee et al. 2005), so Lloyd's update is shared; only
/// the assignment step differs.
enum class BregmanDivergenceKind {
  /// d(x, μ) = D_KL(x ‖ μ) — the paper's dissimilarity (generator: negative
  /// Shannon entropy).
  kKl,
  /// d(x, μ) = ‖x − μ‖² — classic k-means (generator: squared norm).
  kSquaredEuclidean,
};

/// Evaluates the chosen divergence d(x, center).
double BregmanDivergence(BregmanDivergenceKind kind,
                         const simplex::TopicVector& x,
                         const simplex::TopicVector& center);

/// \brief Options for Bregman K-means++.
struct KMeansOptions {
  size_t num_clusters = 8;
  int max_iterations = 100;
  /// Stop when the relative objective improvement falls below this.
  double tolerance = 1e-7;
  BregmanDivergenceKind divergence = BregmanDivergenceKind::kKl;
  uint64_t seed = 1;
};

/// \brief Clustering output.
struct KMeansResult {
  /// One centroid per cluster (arithmetic mean of members).
  std::vector<simplex::TopicVector> centroids;
  /// Cluster id per input point.
  std::vector<uint32_t> assignment;
  /// Final Σ_i d(x_i, μ_{a(i)}).
  double objective = 0.0;
  int iterations = 0;
  /// KL only: how many divergences the screen confirmed with the reference
  /// KlDivergence, out of n·k for seeding plus n·k per iteration.
  uint64_t kl_reference_evaluations = 0;
};

/// Runs K-means++ seeding (Arthur & Vassilvitskii 2007, with the divergence
/// replacing squared distance — "Bregman K-means++" as used by the paper for
/// index-point selection and bb-tree construction) followed by Lloyd
/// iterations over `rows`: n = rows.size() / dim points of `dim`
/// coordinates each, row-major. Fails when `rows` is empty, dim is 0 or
/// does not divide rows.size(), a coordinate is NaN or ±Inf (or negative,
/// for KL), or num_clusters is 0. When num_clusters >= n, every point
/// becomes its own centroid. KL divergences are screened with the
/// factorized kernel and confirmed with the reference, so the result equals
/// a reference-only run bit for bit (DESIGN.md §10).
Result<KMeansResult> KMeansPlusPlus(std::span<const double> rows, size_t dim,
                                    const KMeansOptions& options);

/// The same run over points held one vector each: packs them into rows and
/// runs the overload above. Also fails when `points` is empty or the points
/// disagree on dimension.
Result<KMeansResult> KMeansPlusPlus(
    const std::vector<simplex::TopicVector>& points,
    const KMeansOptions& options);

}  // namespace cluster
}  // namespace inflex

#endif  // INFLEX_CLUSTER_KMEANS_H_

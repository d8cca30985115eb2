#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "simplex/divergence.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace inflex {
namespace cluster {

double BregmanDivergence(BregmanDivergenceKind kind,
                         const simplex::TopicVector& x,
                         const simplex::TopicVector& center) {
  switch (kind) {
    case BregmanDivergenceKind::kKl:
      return simplex::KlDivergence(x, center);
    case BregmanDivergenceKind::kSquaredEuclidean:
      return simplex::SquaredEuclidean(x, center);
  }
  INFLEX_CHECK(false);
  return 0.0;
}

namespace {

// Below this many divergence evaluations per pass (n·k) the loops stay
// serial: G-means' two-way splits in BbTree::Build and in maintainer tree
// rebuilds are far smaller, and a pool round trip would dominate them.
constexpr size_t kParallelWork = size_t{1} << 15;

// Runs fn(i) for i in [0, n): across the global pool when the pass is large
// enough, else serially. Each i writes only its own slots, so the result is
// the same either way.
void ForEachPoint(size_t n, size_t k, const std::function<void(size_t)>& fn) {
  if (n * k >= kParallelWork) {
    ParallelFor(0, n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

// K-means++ seeding: first center uniform, then proportional to the current
// divergence to the closest chosen center.
std::vector<simplex::TopicVector> SeedCenters(
    const std::vector<simplex::TopicVector>& points, size_t k,
    BregmanDivergenceKind kind, Rng* rng) {
  const size_t n = points.size();
  std::vector<simplex::TopicVector> centers;
  centers.reserve(k);
  centers.push_back(points[rng->UniformInt(n)]);

  std::vector<double> min_div(n);
  ForEachPoint(n, k, [&](size_t i) {
    min_div[i] = BregmanDivergence(kind, points[i], centers.back());
  });
  while (centers.size() < k) {
    double total = 0.0;
    for (double d : min_div) total += d;
    size_t chosen;
    if (total <= 0.0) {
      // All points coincide with existing centers; pick uniformly.
      chosen = rng->UniformInt(n);
    } else {
      double r = rng->Uniform() * total;
      chosen = n - 1;
      for (size_t i = 0; i < n; ++i) {
        r -= min_div[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centers.push_back(points[chosen]);
    ForEachPoint(n, k, [&](size_t i) {
      min_div[i] = std::min(
          min_div[i], BregmanDivergence(kind, points[i], centers.back()));
    });
  }
  return centers;
}

}  // namespace

Result<KMeansResult> KMeansPlusPlus(
    const std::vector<simplex::TopicVector>& points,
    const KMeansOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("k-means requires at least one point");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("k-means requires num_clusters >= 1");
  }
  const size_t dim = points.front().size();
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("k-means points disagree on dimension");
    }
  }
  const size_t n = points.size();
  const size_t k = std::min(options.num_clusters, n);

  Rng rng(options.seed);
  KMeansResult result;
  result.centroids = SeedCenters(points, k, options.divergence, &rng);
  result.assignment.assign(n, 0);

  std::vector<double> sums(k * dim);
  std::vector<size_t> counts(k);
  std::vector<double> best_div(n);
  double prev_objective = std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step, per point; the objective is then summed serially in
    // point order, so it does not depend on how the points were split.
    ForEachPoint(n, k, [&](size_t i) {
      double best = std::numeric_limits<double>::infinity();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d =
            BregmanDivergence(options.divergence, points[i],
                              result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = static_cast<uint32_t>(c);
        }
      }
      result.assignment[i] = best_c;
      best_div[i] = best;
    });
    double objective = 0.0;
    for (double d : best_div) objective += d;
    result.objective = objective;

    // Update step: arithmetic mean (the right-type Bregman centroid).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = result.assignment[i];
      ++counts[c];
      for (size_t d = 0; d < dim; ++d) sums[c * dim + d] += points[i][d];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        result.centroids[c] = points[rng.UniformInt(n)];
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        result.centroids[c][d] =
            sums[c * dim + d] / static_cast<double>(counts[c]);
      }
    }

    if (prev_objective - objective <=
        options.tolerance * std::max(1.0, prev_objective)) {
      break;
    }
    prev_objective = objective;
  }
  return result;
}

}  // namespace cluster
}  // namespace inflex

#include "cluster/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "simplex/divergence.h"
#include "simplex/kl_kernel.h"
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

constexpr double kInf = std::numeric_limits<double>::infinity();

// Below this many divergence evaluations per pass (n·k) the loops stay
// serial: G-means' two-way splits in BbTree::Build and in maintainer tree
// rebuilds are far smaller, and a pool round trip would dominate them.
constexpr size_t kParallelWork = size_t{1} << 15;

// Points per block: the unit of parallel work, and one KlBatch call of the
// seeding screen.
constexpr size_t kBlock = 256;

// Runs fn(begin, end) over [0, n) in blocks of kBlock points: across the
// global pool when the pass is large enough, else serially. Each block
// writes only its own points' slots, so the result is the same either way.
void ForEachBlock(size_t n, size_t k,
                  const std::function<void(size_t, size_t)>& fn) {
  const size_t blocks = (n + kBlock - 1) / kBlock;
  const auto run = [&](size_t b) {
    fn(b * kBlock, std::min(n, (b + 1) * kBlock));
  };
  if (n * k >= kParallelWork) {
    ParallelFor(0, blocks, run);
  } else {
    for (size_t b = 0; b < blocks; ++b) run(b);
  }
}

// The points of a run: n rows of dim coordinates, row-major.
struct Rows {
  const double* data;
  size_t n;
  size_t dim;

  const double* operator[](size_t i) const { return data + i * dim; }
  simplex::TopicVector Copy(size_t i) const {
    return simplex::TopicVector((*this)[i], (*this)[i] + dim);
  }
};

// The KL screen (DESIGN.md §10, "Screened k-means"). Every D_KL(p ‖ c) is
// first evaluated with the factorized kernel; the reference KlDivergence
// runs only where the kernel value, widened by its error bound δ, cannot
// rule the pair out. Only reference values are ever stored or compared, so
// the result is bit-identical to evaluating the reference everywhere.
struct KlScreen {
  KlScreen(const Rows& points, size_t k)
      : neg_entropy(points.n), delta(points.n) {
    // Every center of the run is a point or a mean of points, so its
    // coordinates lie in [0, max] (the mean's rounding is inside the
    // bound's headroom): one cover serves every center, and δ is computed
    // once per point.
    const size_t dim = points.dim;
    double max = 0.0;
    for (size_t i = 0; i < points.n * dim; ++i) {
      max = std::max(max, points.data[i]);
    }
    const double cover[2] = {0.0, max};
    double cover_logs[2];
    simplex::ClampedLog(cover, 2, simplex::kKlSmoothingEps, cover_logs);
    ForEachBlock(points.n, k, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double* p = points[i];
        neg_entropy[i] = simplex::NegativeEntropy(p, dim);
        delta[i] = simplex::KlErrorBound(p, dim).Against(cover, cover_logs, 2);
      }
    });
  }

  std::vector<double> neg_entropy;
  std::vector<double> delta;  // |factorized − reference| ≤ delta[i]
  std::atomic<uint64_t> reference_evaluations{0};
};

// min over v[0, n), skipping NaN; four independent chains, since min is
// exact and its order cannot change the result.
double MinOf(const double* v, size_t n) {
  double m[4] = {kInf, kInf, kInf, kInf};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t j = 0; j < 4; ++j) m[j] = std::min(m[j], v[i + j]);
  }
  for (; i < n; ++i) m[0] = std::min(m[0], v[i]);
  return std::min(std::min(m[0], m[1]), std::min(m[2], m[3]));
}

// Sets min_div[i] to d(points[i], center) when `first`, else lowers it to
// that divergence; setting rather than std::min against +inf keeps a NaN
// divergence, as the reference scan does. Under the screen a point is
// skipped when f > min_div + δ: then the reference is > min_div and
// std::min would keep min_div. An unset min_div is +inf, so the first
// center evaluates every reference.
void UpdateMinDivergence(const Rows& points, const simplex::TopicVector& center,
                         bool first, size_t k, KlScreen* screen,
                         std::vector<double>* min_div) {
  const size_t dim = points.dim;
  const auto update = [&](size_t i, double d) {
    (*min_div)[i] = first ? d : std::min((*min_div)[i], d);
  };
  if (screen == nullptr) {
    ForEachBlock(points.n, k, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        update(i, simplex::SquaredEuclidean(points[i], center.data(), dim));
      }
    });
    return;
  }
  std::vector<double> log_c(dim);
  simplex::ClampedLog(center.data(), dim, simplex::kKlSmoothingEps,
                      log_c.data());
  ForEachBlock(points.n, k, [&](size_t begin, size_t end) {
    double f[kBlock];
    simplex::KlBatch(points[begin], screen->neg_entropy.data() + begin,
                     end - begin, dim, log_c.data(), f);
    uint64_t references = 0;
    for (size_t i = begin; i < end; ++i) {
      if (f[i - begin] > (*min_div)[i] + screen->delta[i]) continue;
      ++references;
      update(i, simplex::KlDivergence(points[i], center.data(), dim));
    }
    screen->reference_evaluations += references;
  });
}

// K-means++ seeding: first center uniform, then proportional to the current
// divergence to the closest chosen center.
std::vector<simplex::TopicVector> SeedCenters(const Rows& points, size_t k,
                                              KlScreen* screen, Rng* rng) {
  const size_t n = points.n;
  std::vector<simplex::TopicVector> centers;
  centers.reserve(k);
  centers.push_back(points.Copy(rng->UniformInt(n)));

  std::vector<double> min_div(n, kInf);
  UpdateMinDivergence(points, centers.back(), /*first=*/true, k, screen,
                      &min_div);
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
    centers.push_back(points.Copy(chosen));
    UpdateMinDivergence(points, centers.back(), /*first=*/false, k, screen,
                        &min_div);
  }
  return centers;
}

// Lloyd's assignment step: the closest centroid per point, the lowest index
// on ties. Under the screen only centroids with f ≤ f_min + 2δ are confirmed
// with the reference, in index order with the same strict `<`; every
// centroid the reference scan could pick is among them (DESIGN.md §10), so
// the argmin and its divergence are the reference scan's.
void AssignPoints(const Rows& points,
                  const std::vector<simplex::TopicVector>& centroids,
                  KlScreen* screen, std::vector<uint32_t>* assignment,
                  std::vector<double>* best_div) {
  const size_t dim = points.dim;
  const size_t k = centroids.size();
  if (screen == nullptr) {
    ForEachBlock(points.n, k, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        double best = kInf;
        uint32_t best_c = 0;
        for (size_t c = 0; c < k; ++c) {
          const double d =
              simplex::SquaredEuclidean(points[i], centroids[c].data(), dim);
          if (d < best) {
            best = d;
            best_c = static_cast<uint32_t>(c);
          }
        }
        (*assignment)[i] = best_c;
        (*best_div)[i] = best;
      }
    });
    return;
  }
  std::vector<double> logs(k * dim);
  for (size_t c = 0; c < k; ++c) {
    simplex::ClampedLog(centroids[c].data(), dim, simplex::kKlSmoothingEps,
                        logs.data() + c * dim);
  }
  ForEachBlock(points.n, k, [&](size_t begin, size_t end) {
    std::vector<double> f(k);
    uint64_t references = 0;
    for (size_t i = begin; i < end; ++i) {
      simplex::KlBatchTargets(points[i], screen->neg_entropy[i], logs.data(),
                              k, dim, dim, f.data());
      const double limit = MinOf(f.data(), k) + 2.0 * screen->delta[i];
      double best = kInf;
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        if (f[c] > limit) continue;
        ++references;
        const double d =
            simplex::KlDivergence(points[i], centroids[c].data(), dim);
        if (d < best) {
          best = d;
          best_c = static_cast<uint32_t>(c);
        }
      }
      (*assignment)[i] = best_c;
      (*best_div)[i] = best;
    }
    screen->reference_evaluations += references;
  });
}

}  // namespace

Result<KMeansResult> KMeansPlusPlus(std::span<const double> rows, size_t dim,
                                    const KMeansOptions& options) {
  if (rows.empty() || dim == 0) {
    return Status::InvalidArgument("k-means requires at least one point");
  }
  if (rows.size() % dim != 0) {
    return Status::InvalidArgument(
        "k-means rows are not a whole number of points");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("k-means requires num_clusters >= 1");
  }
  const bool kl = options.divergence == BregmanDivergenceKind::kKl;
  for (double x : rows) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("k-means point has a NaN or Inf");
    }
    if (kl && x < 0.0) {
      return Status::InvalidArgument(
          "KL k-means point has a negative coordinate");
    }
  }
  const Rows points{rows.data(), rows.size() / dim, dim};
  const size_t n = points.n;
  const size_t k = std::min(options.num_clusters, n);

  std::unique_ptr<KlScreen> screen;
  if (kl) screen = std::make_unique<KlScreen>(points, k);

  Rng rng(options.seed);
  KMeansResult result;
  result.centroids = SeedCenters(points, k, screen.get(), &rng);
  result.assignment.assign(n, 0);

  std::vector<double> sums(k * dim);
  std::vector<size_t> counts(k);
  std::vector<double> best_div(n);
  double prev_objective = kInf;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step, per point; the objective is then summed serially in
    // point order, so it does not depend on how the points were split.
    AssignPoints(points, result.centroids, screen.get(), &result.assignment,
                 &best_div);
    double objective = 0.0;
    for (double d : best_div) objective += d;
    result.objective = objective;

    // Update step: arithmetic mean (the right-type Bregman centroid).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = result.assignment[i];
      ++counts[c];
      const double* p = points[i];
      for (size_t d = 0; d < dim; ++d) sums[c * dim + d] += p[d];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        result.centroids[c] = points.Copy(rng.UniformInt(n));
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
  if (screen != nullptr) {
    result.kl_reference_evaluations = screen->reference_evaluations.load();
  }
  return result;
}

Result<KMeansResult> KMeansPlusPlus(
    const std::vector<simplex::TopicVector>& points,
    const KMeansOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("k-means requires at least one point");
  }
  const size_t dim = points.front().size();
  std::vector<double> rows;
  rows.reserve(points.size() * dim);
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("k-means points disagree on dimension");
    }
    rows.insert(rows.end(), p.begin(), p.end());
  }
  return KMeansPlusPlus(rows, dim, options);
}

}  // namespace cluster
}  // namespace inflex

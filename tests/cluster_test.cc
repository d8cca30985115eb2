#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "cluster/gmeans.h"
#include "cluster/kmeans.h"
#include "simplex/divergence.h"
#include "simplex/kl_kernel.h"
#include "simplex/sampling.h"
#include "stats/dirichlet.h"
#include "util/random.h"

namespace inflex {
namespace cluster {
namespace {

using simplex::TopicVector;

// Three well-separated Dirichlet blobs on the 4-simplex.
std::vector<TopicVector> MakeThreeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopicVector> points;
  const std::vector<std::vector<double>> alphas = {
      {40.0, 2.0, 2.0, 2.0}, {2.0, 40.0, 2.0, 2.0}, {2.0, 2.0, 40.0, 2.0}};
  for (const auto& alpha : alphas) {
    stats::Dirichlet d(alpha);
    for (size_t i = 0; i < per_blob; ++i) points.push_back(d.Sample(&rng));
  }
  return points;
}

TEST(BregmanDivergenceTest, MatchesUnderlyingKernels) {
  const TopicVector p = {0.3, 0.7};
  const TopicVector q = {0.6, 0.4};
  EXPECT_GT(BregmanDivergence(BregmanDivergenceKind::kKl, p, q), 0.0);
  EXPECT_DOUBLE_EQ(
      BregmanDivergence(BregmanDivergenceKind::kSquaredEuclidean, p, q),
      2 * 0.09);
  EXPECT_DOUBLE_EQ(BregmanDivergence(BregmanDivergenceKind::kKl, p, p), 0.0);
}

TEST(KMeansTest, RejectsBadInput) {
  EXPECT_FALSE(KMeansPlusPlus({}, {}).ok());
  KMeansOptions o;
  o.num_clusters = 0;
  EXPECT_FALSE(KMeansPlusPlus({{0.5, 0.5}}, o).ok());
  KMeansOptions o2;
  EXPECT_FALSE(KMeansPlusPlus({{0.5, 0.5}, {0.3, 0.3, 0.4}}, o2).ok());

  // Non-finite coordinates fail for both divergences, negative ones for KL
  // (squared Euclidean clusters signed vectors, e.g. the TIC learner's).
  KMeansOptions kl, euclid;
  euclid.divergence = BregmanDivergenceKind::kSquaredEuclidean;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    const std::vector<TopicVector> points = {{0.5, 0.5}, {bad, 0.5}};
    for (const KMeansOptions& opts : {kl, euclid}) {
      const auto r = KMeansPlusPlus(points, opts);
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
  const std::vector<TopicVector> negative = {{0.5, 0.5}, {1.5, -0.5}};
  EXPECT_EQ(KMeansPlusPlus(negative, kl).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(KMeansPlusPlus(negative, euclid).ok());
}

// ------------------------------------- screened KL vs the full reference ---

// K-means++ with the reference KlDivergence on every pair, serial, written
// out independently of the library: the screened KMeansPlusPlus must match
// it bit for bit. Records the seeds and counts the clusters it re-seeded,
// so a test can show it covered those paths.
struct ReferenceRun {
  KMeansResult result;
  std::vector<TopicVector> seeds;
  size_t reseeded = 0;
};

ReferenceRun ReferenceKlKMeans(const std::vector<TopicVector>& points,
                               const KMeansOptions& opts) {
  const size_t n = points.size();
  const size_t dim = points.front().size();
  const size_t k = std::min(opts.num_clusters, n);
  Rng rng(opts.seed);
  ReferenceRun run;
  KMeansResult& out = run.result;
  out.centroids.push_back(points[rng.UniformInt(n)]);
  std::vector<double> min_div(n);
  for (size_t i = 0; i < n; ++i) {
    min_div[i] = simplex::KlDivergence(points[i], out.centroids.back());
  }
  while (out.centroids.size() < k) {
    double total = 0.0;
    for (double d : min_div) total += d;
    size_t chosen = n - 1;
    if (total <= 0.0) {
      chosen = rng.UniformInt(n);
    } else {
      double r = rng.Uniform() * total;
      for (size_t i = 0; i < n; ++i) {
        r -= min_div[i];
        if (r <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    out.centroids.push_back(points[chosen]);
    for (size_t i = 0; i < n; ++i) {
      min_div[i] = std::min(
          min_div[i], simplex::KlDivergence(points[i], out.centroids.back()));
    }
  }
  run.seeds = out.centroids;
  out.assignment.assign(n, 0);
  double prev = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    out.iterations = iter + 1;
    double objective = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const double d = simplex::KlDivergence(points[i], out.centroids[c]);
        if (d < best) {
          best = d;
          out.assignment[i] = static_cast<uint32_t>(c);
        }
      }
      objective += best;
    }
    out.objective = objective;
    std::vector<double> sums(k * dim, 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      ++counts[out.assignment[i]];
      for (size_t d = 0; d < dim; ++d) {
        sums[out.assignment[i] * dim + d] += points[i][d];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        ++run.reseeded;
        out.centroids[c] = points[rng.UniformInt(n)];
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        out.centroids[c][d] =
            sums[c * dim + d] / static_cast<double>(counts[c]);
      }
    }
    if (prev - objective <= opts.tolerance * std::max(1.0, prev)) break;
    prev = objective;
  }
  return run;
}

void ExpectBitIdentical(const KMeansResult& got, const KMeansResult& want) {
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  for (size_t c = 0; c < got.centroids.size(); ++c) {
    ASSERT_EQ(got.centroids[c].size(), want.centroids[c].size());
    for (size_t d = 0; d < got.centroids[c].size(); ++d) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got.centroids[c][d]),
                std::bit_cast<uint64_t>(want.centroids[c][d]))
          << "centroid " << c << " coordinate " << d;
    }
  }
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.objective),
            std::bit_cast<uint64_t>(want.objective));
  EXPECT_EQ(got.iterations, want.iterations);
}

// Every KL evaluation is either screened out or confirmed: seeding confirms
// at least the first center's n, each pass at least one per point.
void ExpectReferenceShareIsPartial(const KMeansResult& r, size_t n, size_t k) {
  const uint64_t all = static_cast<uint64_t>(n) * k * (1 + r.iterations);
  EXPECT_GE(r.kl_reference_evaluations,
            static_cast<uint64_t>(n) * (1 + r.iterations));
  EXPECT_LE(r.kl_reference_evaluations, all);
}

TEST(ScreenedKMeansTest, MatchesFullReferenceScanBelowAndAboveParallelWork) {
  // n·k = 2,400 stays serial; 3,000·40 = 120,000 fans out over the pool.
  struct Case {
    size_t n, dim, k;
    double alpha;
  };
  for (const Case& c : {Case{300, 5, 8, 0.7}, Case{3000, 8, 40, 0.5},
                        Case{2000, 8, 30, 0.03}}) {
    Rng rng(101 + c.n);
    const auto points =
        stats::Dirichlet(std::vector<double>(c.dim, c.alpha))
            .SampleMany(c.n, &rng);
    // A negative tolerance never stops early, so the second variant runs
    // all five Lloyd passes against moving centroids.
    for (double tolerance : {1e-7, -1.0}) {
      KMeansOptions opts;
      opts.num_clusters = c.k;
      opts.max_iterations = 5;
      opts.tolerance = tolerance;
      opts.seed = 9;
      auto r = KMeansPlusPlus(points, opts);
      ASSERT_TRUE(r.ok());
      SCOPED_TRACE(testing::Message() << "n=" << c.n << " k=" << c.k
                                      << " alpha=" << c.alpha
                                      << " tolerance=" << tolerance);
      ExpectBitIdentical(r.ValueOrDie(),
                         ReferenceKlKMeans(points, opts).result);
      ExpectReferenceShareIsPartial(r.ValueOrDie(), c.n, c.k);
      if (tolerance < 0.0) {
        EXPECT_EQ(r.ValueOrDie().iterations, 5);
      }
      if (c.n * c.k > 100000) {
        // Far from every pair: the screen earns its keep at this size.
        EXPECT_LT(r.ValueOrDie().kl_reference_evaluations,
                  c.n * c.k * (1 + r.ValueOrDie().iterations) / 10);
      }
    }
  }
}

// Five distinct locations, each repeated, clustered into eight: seeding
// runs out of positive mass and picks duplicate centers, so the assignment
// meets exact reference ties (the lowest index must win) and the duplicates
// left empty are re-seeded. The locations are ones whose factorized
// D(p ‖ p) rounds above the reference's exact 0, so seeding only sees zero
// mass if it stores reference values; one location does not sum to 1.
TEST(ScreenedKMeansTest, DuplicatesTieToLowestIndexAndEmptyClustersReseed) {
  Rng rng(37);
  std::vector<TopicVector> locations;
  while (locations.size() < 5) {
    TopicVector p = stats::Dirichlet(std::vector<double>(6, 1.0)).Sample(&rng);
    if (locations.size() == 3) {
      for (double& v : p) v *= 2.0;
    }
    simplex::KlQueryContext ctx;
    ctx.Reset(p);
    if (ctx.Kl(p.data(), simplex::NegativeEntropy(p.data(), 6)) > 0.0) {
      locations.push_back(p);
    }
  }
  std::vector<TopicVector> points;
  for (int rep = 0; rep < 12; ++rep) {
    for (const TopicVector& l : locations) points.push_back(l);
  }
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    KMeansOptions opts;
    opts.num_clusters = 8;
    opts.seed = seed;
    auto r = KMeansPlusPlus(points, opts);
    ASSERT_TRUE(r.ok());
    const ReferenceRun want = ReferenceKlKMeans(points, opts);
    EXPECT_GT(want.reseeded, 0u) << "seed " << seed;
    ExpectBitIdentical(r.ValueOrDie(), want.result);
  }
}

// Centers A and B are A with topics 0 and 2 swapped, and every other point
// has p_0 = p_2, so D(p ‖ A) = D(p ‖ B) exactly in real arithmetic and only
// rounding separates them. The factorized kernel and the reference sum in
// different orders, so they disagree on which is smaller: the reference's
// order must decide every one of these near-ties.
TEST(ScreenedKMeansTest, NearTiesAreDecidedByTheReference) {
  const TopicVector a = {0.6, 0.05, 0.1, 0.15, 0.1};
  const TopicVector b = {0.1, 0.05, 0.6, 0.15, 0.1};
  std::vector<TopicVector> points(40, a);
  points.insert(points.end(), 40, b);
  Rng rng(31);
  for (int j = 0; j < 60; ++j) {
    TopicVector p(5);
    for (double& v : p) v = rng.Uniform(0.05, 1.0);
    p[2] = p[0];
    double sum = 0.0;
    for (double v : p) sum += v;
    for (double& v : p) v /= sum;
    points.push_back(p);
  }
  size_t seeded_a_and_b = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    KMeansOptions opts;
    opts.num_clusters = 2;
    opts.seed = seed;
    auto r = KMeansPlusPlus(points, opts);
    ASSERT_TRUE(r.ok());
    const ReferenceRun want = ReferenceKlKMeans(points, opts);
    if (want.seeds == std::vector<TopicVector>{a, b} ||
        want.seeds == std::vector<TopicVector>{b, a}) {
      ++seeded_a_and_b;
    }
    ExpectBitIdentical(r.ValueOrDie(), want.result);
  }
  EXPECT_GT(seeded_a_and_b, 0u);
}

TEST(ScreenedKMeansTest, KAtLeastNMatchesFullReferenceScan) {
  Rng rng(5);
  const auto points =
      stats::Dirichlet({0.5, 0.5, 0.5, 0.5}).SampleMany(6, &rng);
  for (size_t k : {6u, 10u}) {
    KMeansOptions opts;
    opts.num_clusters = k;
    opts.seed = 3;
    auto r = KMeansPlusPlus(points, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie().centroids.size(), 6u);
    ExpectBitIdentical(r.ValueOrDie(), ReferenceKlKMeans(points, opts).result);
  }
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  const auto points = MakeThreeBlobs(100, 21);
  KMeansOptions opts;
  opts.num_clusters = 3;
  opts.seed = 5;
  auto r = KMeansPlusPlus(points, opts);
  ASSERT_TRUE(r.ok());
  const auto& result = r.ValueOrDie();
  ASSERT_EQ(result.centroids.size(), 3u);
  // Each blob should be internally pure: points 0..99 share a label, etc.
  for (int blob = 0; blob < 3; ++blob) {
    const uint32_t label = result.assignment[blob * 100];
    int agree = 0;
    for (int i = 0; i < 100; ++i) {
      if (result.assignment[blob * 100 + i] == label) ++agree;
    }
    EXPECT_GE(agree, 97) << "blob " << blob;
  }
  // And the three blobs get three distinct labels.
  std::set<uint32_t> labels = {result.assignment[0], result.assignment[100],
                               result.assignment[200]};
  EXPECT_EQ(labels.size(), 3u);
}

TEST(KMeansTest, CentroidIsMeanOfMembers) {
  const auto points = MakeThreeBlobs(50, 22);
  KMeansOptions opts;
  opts.num_clusters = 3;
  auto r = KMeansPlusPlus(points, opts);
  ASSERT_TRUE(r.ok());
  const auto& res = r.ValueOrDie();
  for (size_t c = 0; c < res.centroids.size(); ++c) {
    TopicVector mean(points.front().size(), 0.0);
    size_t count = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      if (res.assignment[i] == c) {
        ++count;
        for (size_t d = 0; d < mean.size(); ++d) mean[d] += points[i][d];
      }
    }
    if (count == 0) continue;
    for (size_t d = 0; d < mean.size(); ++d) {
      EXPECT_NEAR(res.centroids[c][d], mean[d] / count, 1e-9);
    }
  }
}

TEST(KMeansTest, MoreClustersNeverIncreaseObjective) {
  const auto points = MakeThreeBlobs(60, 23);
  double prev = std::numeric_limits<double>::infinity();
  for (size_t k : {1u, 2u, 4u, 8u, 16u}) {
    KMeansOptions opts;
    opts.num_clusters = k;
    opts.seed = 7;
    opts.max_iterations = 200;
    auto r = KMeansPlusPlus(points, opts);
    ASSERT_TRUE(r.ok());
    // k-means++ is randomized; allow small non-monotonicity slack.
    EXPECT_LE(r.ValueOrDie().objective, prev * 1.05) << "k=" << k;
    prev = std::min(prev, r.ValueOrDie().objective);
  }
}

TEST(KMeansTest, KGreaterThanNClampsToN) {
  std::vector<TopicVector> points = {{0.5, 0.5}, {0.9, 0.1}};
  KMeansOptions opts;
  opts.num_clusters = 10;
  auto r = KMeansPlusPlus(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().centroids.size(), 2u);
  EXPECT_NEAR(r.ValueOrDie().objective, 0.0, 1e-9);
}

TEST(KMeansTest, EuclideanDivergenceWorksToo) {
  const auto points = MakeThreeBlobs(50, 29);
  KMeansOptions opts;
  opts.num_clusters = 3;
  opts.divergence = BregmanDivergenceKind::kSquaredEuclidean;
  auto r = KMeansPlusPlus(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().centroids.size(), 3u);
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  const auto points = MakeThreeBlobs(40, 31);
  KMeansOptions opts;
  opts.num_clusters = 4;
  opts.seed = 77;
  auto a = KMeansPlusPlus(points, opts);
  auto b = KMeansPlusPlus(points, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().assignment, b.ValueOrDie().assignment);
  EXPECT_DOUBLE_EQ(a.ValueOrDie().objective, b.ValueOrDie().objective);
}

// K-means++ pinned bit-for-bit: centroids, assignment, objective and
// iteration count for both divergences on a sample big enough (n·k well
// past the parallel threshold) that seeding and Lloyd's assignment step
// fan out over the pool. The constants were recorded on the serial code in
// the default (non-INFLEX_NATIVE) build.
TEST(KMeansTest, MatchesPinnedDigestAboveParallelThreshold) {
#ifdef __FMA__
  GTEST_SKIP() << "digests are pinned for builds without FMA contraction";
#endif
  Rng rng(77);
  const std::vector<TopicVector> points =
      stats::Dirichlet({0.6, 0.9, 0.4, 1.2, 0.7, 0.5}).SampleMany(4000, &rng);
  struct Pinned {
    BregmanDivergenceKind kind;
    uint64_t digest;
  };
  const Pinned pinned[] = {
      {BregmanDivergenceKind::kKl, 0xa8df5504748b97e4ULL},
      {BregmanDivergenceKind::kSquaredEuclidean, 0xc27f387a7240aa2eULL},
  };
  for (const Pinned& config : pinned) {
    KMeansOptions opts;
    opts.num_clusters = 40;
    opts.max_iterations = 12;
    opts.divergence = config.kind;
    opts.seed = 5;
    auto r = KMeansPlusPlus(points, opts);
    ASSERT_TRUE(r.ok());
    const KMeansResult& result = r.ValueOrDie();
    uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](uint64_t v) {
      digest = (digest ^ v) * 0x100000001b3ULL;
    };
    for (const TopicVector& c : result.centroids) {
      for (double x : c) fold(std::bit_cast<uint64_t>(x));
    }
    for (uint32_t a : result.assignment) fold(a);
    fold(std::bit_cast<uint64_t>(result.objective));
    fold(static_cast<uint64_t>(result.iterations));
    EXPECT_EQ(digest, config.digest)
        << "divergence " << static_cast<int>(config.kind) << std::hex
        << " digest 0x" << digest;
  }
}

// ------------------------------------------------------------------ G-means ---

TEST(ProjectedGaussianTest, GaussianNotSplit) {
  Rng rng(41);
  std::vector<TopicVector> points;
  for (int i = 0; i < 300; ++i) {
    // Isotropic Gaussian blob around the simplex center, projected back.
    TopicVector p = {0.5 + 0.05 * rng.Normal(), 0.0};
    p[0] = std::clamp(p[0], 0.01, 0.99);
    p[1] = 1.0 - p[0];
    points.push_back(p);
  }
  EXPECT_TRUE(ProjectedGaussianTest(points, {1.0, -1.0}, 0.05));
}

TEST(ProjectedGaussianTest, BimodalSplit) {
  Rng rng(43);
  std::vector<TopicVector> points;
  for (int i = 0; i < 300; ++i) {
    const double center = i % 2 == 0 ? 0.2 : 0.8;
    TopicVector p = {std::clamp(center + 0.02 * rng.Normal(), 0.01, 0.99),
                     0.0};
    p[1] = 1.0 - p[0];
    points.push_back(p);
  }
  EXPECT_FALSE(ProjectedGaussianTest(points, {1.0, -1.0}, 0.05));
}

TEST(ProjectedGaussianTest, DegenerateInputsNotSplit) {
  EXPECT_TRUE(ProjectedGaussianTest({}, {1.0, 0.0}, 0.05));
  EXPECT_TRUE(ProjectedGaussianTest({{0.5, 0.5}}, {1.0, 0.0}, 0.05));
  std::vector<TopicVector> pts(10, {0.5, 0.5});
  EXPECT_TRUE(ProjectedGaussianTest(pts, {0.0, 0.0}, 0.05));  // zero direction
}

TEST(GMeansTest, FindsMultipleClustersInSeparatedData) {
  const auto points = MakeThreeBlobs(150, 47);
  GMeansOptions opts;
  opts.max_clusters = 8;
  opts.seed = 3;
  auto r = GMeans(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.ValueOrDie().centroids.size(), 3u);
  EXPECT_LE(r.ValueOrDie().centroids.size(), 8u);
}

TEST(GMeansTest, SingleBlobStaysWhole) {
  Rng rng(53);
  stats::Dirichlet d({30.0, 30.0, 30.0});
  std::vector<TopicVector> points;
  for (int i = 0; i < 200; ++i) points.push_back(d.Sample(&rng));
  GMeansOptions opts;
  opts.max_clusters = 8;
  opts.ad_alpha = 0.01;  // conservative splitting
  auto r = GMeans(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.ValueOrDie().centroids.size(), 2u);
}

TEST(GMeansTest, RespectsMaxClusters) {
  const auto points = MakeThreeBlobs(100, 59);
  GMeansOptions opts;
  opts.max_clusters = 2;
  auto r = GMeans(points, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.ValueOrDie().centroids.size(), 2u);
}

TEST(GMeansTest, RejectsBadInput) {
  EXPECT_FALSE(GMeans({}, {}).ok());
  GMeansOptions opts;
  opts.max_clusters = 0;
  EXPECT_FALSE(GMeans({{0.5, 0.5}}, opts).ok());
}

TEST(GMeansTest, AssignmentCoversAllPoints) {
  const auto points = MakeThreeBlobs(80, 61);
  GMeansOptions opts;
  auto r = GMeans(points, opts);
  ASSERT_TRUE(r.ok());
  const auto& res = r.ValueOrDie();
  ASSERT_EQ(res.assignment.size(), points.size());
  for (uint32_t label : res.assignment) {
    EXPECT_LT(label, res.centroids.size());
  }
}

}  // namespace
}  // namespace cluster
}  // namespace inflex

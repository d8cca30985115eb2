#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "cluster/gmeans.h"
#include "cluster/kmeans.h"
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

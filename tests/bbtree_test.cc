#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>

#include "bbtree/bbtree.h"
#include "bbtree/bregman_ball.h"
#include "simplex/divergence.h"
#include "simplex/sampling.h"
#include "stats/dirichlet.h"
#include "util/aligned.h"
#include "util/random.h"

namespace inflex {
namespace bbtree {
namespace {

using simplex::TopicVector;

// Clustered points resembling real index points (peaked Dirichlet mixture).
std::vector<TopicVector> ClusteredPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopicVector> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> alpha(dim, 0.3);
    alpha[i % dim] = 6.0;
    stats::Dirichlet d(alpha);
    points.push_back(d.Sample(&rng));
  }
  return points;
}

// Brute-force reference with the reference divergence, deliberately not
// touching the tree's storage or kernel.
std::vector<Neighbor> ReferenceKnn(const std::vector<TopicVector>& points,
                                   const TopicVector& q, size_t k) {
  std::vector<Neighbor> all;
  all.reserve(points.size());
  for (uint32_t id = 0; id < points.size(); ++id) {
    all.push_back({id, simplex::KlDivergence(points[id], q)});
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

// The Eq. 5 pruning test with its screen D_KL(q ‖ μ) evaluated on the spot.
bool Prunes(const BregmanBall& ball, const TopicVector& q, double delta) {
  simplex::KlQueryContext ctx;
  ctx.Reset(q);
  BisectionScratch scratch;
  return ball.CanPruneScreened(
      ctx, ctx.KlOfQueryAgainst(ball.log_center().data()), delta, &scratch);
}

// ------------------------------------------------------------ BregmanBall ---

TEST(BregmanBallTest, ContainsCenterAndRespectsRadius) {
  const TopicVector center = {0.4, 0.3, 0.3};
  BregmanBall ball(center, 0.05);
  EXPECT_TRUE(ball.Contains(center));
  EXPECT_TRUE(ball.Contains({0.41, 0.3, 0.29}));
  EXPECT_FALSE(ball.Contains({0.95, 0.03, 0.02}));
}

TEST(BregmanBallTest, MinDivergenceZeroWhenQueryInside) {
  // A query inside the ball is at divergence 0 from the ball's closest
  // point, so no positive δ may prune it.
  BregmanBall ball({0.5, 0.5}, 0.1);
  EXPECT_FALSE(Prunes(ball, {0.52, 0.48}, 1e-12));
}

TEST(BregmanBallTest, MinDivergenceIsValidLowerBound) {
  // Soundness: the test must never prune a ball that holds a point x with
  // D_KL(x ‖ q) < δ. Checked for every x sampled inside the ball, at δ just
  // above its divergence.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const TopicVector center = simplex::SampleUniformSimplex(4, &rng);
    const double radius = rng.Uniform(0.01, 0.2);
    BregmanBall ball(center, radius);
    const TopicVector q = simplex::SampleUniformSimplex(4, &rng);
    // Rejection-sample points inside the ball around its center.
    int checked = 0;
    for (int i = 0; i < 3000 && checked < 300; ++i) {
      TopicVector x(4);
      double sum = 0.0;
      for (size_t d = 0; d < 4; ++d) {
        x[d] = std::max(center[d] * std::exp(0.5 * rng.Normal()), 1e-9);
        sum += x[d];
      }
      for (double& v : x) v /= sum;
      if (!ball.Contains(x)) continue;
      ++checked;
      EXPECT_FALSE(Prunes(ball, q, simplex::KlDivergence(x, q) + 1e-7))
          << "trial " << trial;
    }
    ASSERT_GT(checked, 0) << "sampler never hit the ball";
  }
}

TEST(BregmanBallTest, MinDivergenceTightOnBoundaryCase) {
  // For a tiny ball the minimum approaches KL(center ‖ q): the test prunes
  // just below it and keeps just above it.
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    const TopicVector center = simplex::SampleUniformSimplex(3, &rng);
    const TopicVector q = simplex::SampleUniformSimplex(3, &rng);
    BregmanBall ball(center, 1e-10);
    const double d = simplex::KlDivergence(center, q);
    if (d < 1e-2) continue;
    EXPECT_TRUE(Prunes(ball, q, d - 1e-3)) << "t=" << t;
    EXPECT_FALSE(Prunes(ball, q, d + 1e-3)) << "t=" << t;
  }
}

TEST(BregmanBallTest, CanPruneConsistentWithBound) {
  // The center lies in the ball, so δ above D_KL(μ ‖ q) never prunes; and
  // the decision is monotone in δ: pruning at δ implies pruning below it.
  Rng rng(7);
  int pruned = 0;
  for (int t = 0; t < 50; ++t) {
    const TopicVector center = simplex::SampleUniformSimplex(4, &rng);
    BregmanBall ball(center, rng.Uniform(0.01, 0.3));
    const TopicVector q = simplex::SampleUniformSimplex(4, &rng);
    const double d = simplex::KlDivergence(center, q);
    EXPECT_FALSE(Prunes(ball, q, d + 1e-6)) << "t=" << t;
    bool pruned_above = false;
    for (double delta = d; delta > 1e-6; delta *= 0.5) {
      const bool prune = Prunes(ball, q, delta);
      if (pruned_above) {
        EXPECT_TRUE(prune) << "t=" << t << " delta=" << delta;
      }
      pruned_above = pruned_above || prune;
    }
    pruned += pruned_above;
  }
  EXPECT_GT(pruned, 0);  // the check above is not vacuous
}

TEST(BregmanBallTest, InfiniteDeltaNeverPrunes) {
  BregmanBall ball({0.5, 0.5}, 0.01);
  EXPECT_FALSE(
      Prunes(ball, {0.9, 0.1}, std::numeric_limits<double>::infinity()));
}

TEST(BregmanBallTest, ScreenedPrimitivesMatchUnscreenedExactly) {
  // InflexSearch screens a whole bypassed frontier in one KlBatchTargets
  // sweep over the balls' cached log-centers. Each batched screen must equal
  // the scalar KlOfQueryAgainst bit for bit, so the pruning decision cannot
  // depend on which path computed it.
  constexpr size_t kDim = 6;
  constexpr size_t kBalls = 7;
  const size_t stride = util::AlignedRowStride(kDim);
  Rng rng(471);
  simplex::KlQueryContext ctx;
  BisectionScratch scratch;
  for (int t = 0; t < 10; ++t) {
    std::vector<BregmanBall> balls;
    util::AlignedVector<double> rows(kBalls * stride, 0.0);
    for (size_t b = 0; b < kBalls; ++b) {
      balls.emplace_back(simplex::SampleUniformSimplex(kDim, &rng),
                         rng.Uniform(0.005, 0.3));
      std::copy(balls[b].log_center().begin(), balls[b].log_center().end(),
                rows.begin() + b * stride);
    }
    const TopicVector q = simplex::SampleUniformSimplex(kDim, &rng);
    ctx.Reset(q);
    std::vector<double> screens(kBalls);
    simplex::KlBatchTargets(ctx.query(), ctx.query_neg_entropy(), rows.data(),
                            kBalls, kDim, stride, screens.data());
    for (size_t b = 0; b < kBalls; ++b) {
      const double scalar = ctx.KlOfQueryAgainst(balls[b].log_center().data());
      EXPECT_EQ(screens[b], scalar) << "t=" << t << " ball=" << b;
      for (double delta : {scalar * 0.1, scalar * 0.5, scalar, scalar + 0.5,
                           std::numeric_limits<double>::infinity()}) {
        EXPECT_EQ(balls[b].CanPruneScreened(ctx, screens[b], delta, &scratch),
                  balls[b].CanPruneScreened(ctx, scalar, delta, &scratch))
            << "t=" << t << " delta=" << delta;
      }
    }
  }
}

// ------------------------------------------------------------- tree build ---

TEST(BbTreeBuildTest, RejectsBadInput) {
  EXPECT_FALSE(BbTree::Build({}, {}).ok());
  EXPECT_FALSE(BbTree::Build({{1.0}}, {}).ok());  // dimension 1
  BbTreeOptions zero_leaf;
  zero_leaf.max_leaf_size = 0;
  EXPECT_FALSE(BbTree::Build({{0.5, 0.5}}, zero_leaf).ok());
  EXPECT_FALSE(BbTree::Build({{0.5, 0.5}, {0.2, 0.3, 0.5}}, {}).ok());
}

TEST(BbTreeBuildTest, SinglePointTree) {
  auto tree = BbTree::Build({{0.5, 0.5}}, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.ValueOrDie().num_points(), 1u);
  EXPECT_EQ(tree.ValueOrDie().num_leaves(), 1u);
}

TEST(BbTreeBuildTest, AllPointsReachableViaLeaves) {
  const auto points = ClusteredPoints(300, 6, 11);
  BbTreeOptions opts;
  opts.max_leaf_size = 12;
  auto tree_r = BbTree::Build(points, opts);
  ASSERT_TRUE(tree_r.ok());
  const BbTree& tree = tree_r.ValueOrDie();
  EXPECT_GT(tree.num_leaves(), 1u);
  EXPECT_GT(tree.depth(), 1u);
  // Exhaustive leaf-bounded search over all leaves must see every point.
  SearchStats stats;
  const auto all = tree.LeafBoundedKnn(points[0], 300, tree.num_leaves() * 2,
                                       &stats);
  std::set<uint32_t> ids;
  for (const auto& nb : all) ids.insert(nb.point_id);
  EXPECT_EQ(ids.size(), 300u);
  EXPECT_EQ(stats.leaves_visited, tree.num_leaves());
}

TEST(BbTreeBuildTest, DuplicatePointsHandled) {
  std::vector<TopicVector> points(100, {0.3, 0.7});
  BbTreeOptions opts;
  opts.max_leaf_size = 8;
  auto tree = BbTree::Build(points, opts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.ValueOrDie().num_points(), 100u);
}

TEST(BbTreeBuildTest, DeterministicForFixedSeed) {
  const auto points = ClusteredPoints(150, 5, 13);
  BbTreeOptions opts;
  opts.seed = 99;
  auto a = BbTree::Build(points, opts);
  auto b = BbTree::Build(points, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().num_nodes(), b.ValueOrDie().num_nodes());
  EXPECT_EQ(a.ValueOrDie().num_leaves(), b.ValueOrDie().num_leaves());
}

// ---------------------------------------------------------------- queries ---

class ExactKnnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactKnnPropertyTest, MatchesLinearScan) {
  // Against the brute-force reference scan.
  const auto points = ClusteredPoints(250, 6, GetParam());
  BbTreeOptions opts;
  opts.max_leaf_size = 10;
  opts.seed = GetParam();
  auto tree_r = BbTree::Build(points, opts);
  ASSERT_TRUE(tree_r.ok());
  const BbTree& tree = tree_r.ValueOrDie();

  Rng rng(GetParam() + 1);
  for (int t = 0; t < 25; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(6, &rng);
    for (size_t k : {1u, 5u, 10u}) {
      const auto exact = tree.ExactKnn(q, k);
      const auto linear = ReferenceKnn(points, q, k);
      ASSERT_EQ(exact.size(), k);
      ASSERT_EQ(linear.size(), k);
      for (size_t i = 0; i < k; ++i) {
        // Compare divergences (ids may swap on exact ties).
        EXPECT_NEAR(exact[i].divergence, linear[i].divergence, 1e-10)
            << "k=" << k << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactKnnPropertyTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(ExactKnnTest, EqualDivergencesComeBackInAscendingIdOrder) {
  // The maintainer re-points a published delta at its 1-NN
  // (index_maintainer.cc) and relies on a deterministic answer when index
  // points coincide: ties are broken by ascending point id, whatever the
  // physical row order.
  const auto base = ClusteredPoints(40, 5, 33);
  std::vector<TopicVector> points;
  for (int copy = 0; copy < 3; ++copy) {
    points.insert(points.end(), base.begin(), base.end());
  }
  auto tree_r = BbTree::Build(points, {});
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  // An inserted fourth copy lands in a later row than its twins.
  ASSERT_TRUE(tree.Insert(base[7]).ok());
  const uint32_t inserted = 120;

  const auto nn = tree.ExactKnn(base[7], 4);
  ASSERT_EQ(nn.size(), 4u);
  const std::vector<uint32_t> want = {7, 47, 87, inserted};
  for (size_t i = 0; i < nn.size(); ++i) {
    EXPECT_EQ(nn[i].point_id, want[i]) << "i=" << i;
    EXPECT_EQ(nn[i].divergence, nn[0].divergence) << "i=" << i;
  }
  // A k-boundary inside a block of ties keeps the smallest ids.
  const auto nn2 = tree.ExactKnn(base[7], 2);
  ASSERT_EQ(nn2.size(), 2u);
  EXPECT_EQ(nn2[0].point_id, 7u);
  EXPECT_EQ(nn2[1].point_id, 47u);
  // Every answer is ascending by (divergence, id).
  Rng rng(34);
  for (int t = 0; t < 20; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(5, &rng);
    const auto got = tree.ExactKnn(q, 9);
    for (size_t i = 1; i < got.size(); ++i) {
      ASSERT_TRUE(got[i - 1] < got[i]) << "t=" << t << " i=" << i;
    }
  }
}

TEST(LeafBoundedKnnTest, RecallImprovesWithLeafBudget) {
  const auto points = ClusteredPoints(400, 6, 41);
  BbTreeOptions opts;
  opts.max_leaf_size = 10;
  auto tree_r = BbTree::Build(points, opts);
  ASSERT_TRUE(tree_r.ok());
  const BbTree& tree = tree_r.ValueOrDie();

  Rng rng(42);
  const size_t k = 10;
  double recall1 = 0.0, recall5 = 0.0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(6, &rng);
    const auto truth = tree.ExactKnn(q, k);
    std::set<uint32_t> truth_ids;
    for (const auto& nb : truth) truth_ids.insert(nb.point_id);
    auto count_hits = [&truth_ids](const std::vector<Neighbor>& got) {
      int hits = 0;
      for (const auto& nb : got) hits += truth_ids.count(nb.point_id);
      return hits;
    };
    recall1 += count_hits(tree.LeafBoundedKnn(q, k, 1));
    recall5 += count_hits(tree.LeafBoundedKnn(q, k, 5));
  }
  recall1 /= trials * k;
  recall5 /= trials * k;
  EXPECT_GE(recall5, recall1);
  EXPECT_GT(recall5, 0.5);  // 5 leaves should recover most of the top-10
}

TEST(InflexSearchTest, EpsilonExactShortCircuit) {
  const auto points = ClusteredPoints(200, 5, 51);
  auto tree_r = BbTree::Build(points, {});
  ASSERT_TRUE(tree_r.ok());
  InflexSearchOptions opts;
  opts.epsilon_exact = 1e-9;
  // Query an indexed point exactly.
  const auto result = tree_r.ValueOrDie().InflexSearch(points[17], opts);
  EXPECT_TRUE(result.epsilon_exact);
  ASSERT_EQ(result.neighbors.size(), 1u);
  EXPECT_NEAR(result.neighbors[0].divergence, 0.0, 1e-9);
  // The matched id must reference an identical point (duplicates possible).
  const auto& matched =
      tree_r.ValueOrDie().point(result.neighbors[0].point_id);
  EXPECT_NEAR(simplex::KlDivergence(matched, points[17]), 0.0, 1e-12);
}

TEST(InflexSearchTest, RespectsMaxLeaves) {
  const auto points = ClusteredPoints(400, 6, 61);
  BbTreeOptions bopts;
  bopts.max_leaf_size = 10;
  auto tree_r = BbTree::Build(points, bopts);
  ASSERT_TRUE(tree_r.ok());
  Rng rng(62);
  InflexSearchOptions opts;
  opts.max_leaves = 3;
  opts.use_ad_early_stop = false;
  opts.epsilon_exact = -1.0;
  for (int t = 0; t < 10; ++t) {
    const auto r = tree_r.ValueOrDie().InflexSearch(
        simplex::SampleUniformSimplex(6, &rng), opts);
    EXPECT_LE(r.stats.leaves_visited, 3u);
    EXPECT_FALSE(r.neighbors.empty());
  }
}

TEST(InflexSearchTest, AdEarlyStopVisitsAtMostLeafCap) {
  const auto points = ClusteredPoints(400, 6, 71);
  BbTreeOptions bopts;
  bopts.max_leaf_size = 20;
  auto tree_r = BbTree::Build(points, bopts);
  ASSERT_TRUE(tree_r.ok());
  Rng rng(72);
  InflexSearchOptions opts;  // AD stop enabled, cap 5
  size_t total_leaves = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const auto r = tree_r.ValueOrDie().InflexSearch(
        simplex::SampleUniformSimplex(6, &rng), opts);
    EXPECT_GE(r.stats.leaves_visited, 1u);
    EXPECT_LE(r.stats.leaves_visited, 5u);
    total_leaves += r.stats.leaves_visited;
  }
  // The early stop should trigger before the cap at least sometimes.
  EXPECT_LT(total_leaves, trials * 5u);
}

TEST(InflexSearchTest, NeighborsSortedAscending) {
  const auto points = ClusteredPoints(300, 6, 81);
  auto tree_r = BbTree::Build(points, {});
  ASSERT_TRUE(tree_r.ok());
  Rng rng(82);
  const auto r = tree_r.ValueOrDie().InflexSearch(
      simplex::SampleUniformSimplex(6, &rng), {});
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    EXPECT_LE(r.neighbors[i - 1].divergence, r.neighbors[i].divergence);
  }
}

TEST(InflexSearchTest, PruningDoesNotChangeVisitedLeafResults) {
  // With and without Eq. 5 pruning the search returns neighbors of equal
  // quality (pruned subtrees cannot contain closer points than δ).
  const auto points = ClusteredPoints(400, 6, 91);
  BbTreeOptions bopts;
  bopts.max_leaf_size = 12;
  auto tree_r = BbTree::Build(points, bopts);
  ASSERT_TRUE(tree_r.ok());
  Rng rng(92);
  for (int t = 0; t < 10; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(6, &rng);
    InflexSearchOptions with_pruning;
    with_pruning.use_ad_early_stop = false;
    with_pruning.max_leaves = 4;
    InflexSearchOptions without_pruning = with_pruning;
    without_pruning.use_pruning = false;
    const auto a = tree_r.ValueOrDie().InflexSearch(q, with_pruning);
    const auto b = tree_r.ValueOrDie().InflexSearch(q, without_pruning);
    ASSERT_FALSE(a.neighbors.empty());
    ASSERT_FALSE(b.neighbors.empty());
    // The closest retrieved neighbor must agree.
    EXPECT_NEAR(a.neighbors[0].divergence, b.neighbors[0].divergence, 1e-9);
  }
}

// ----------------------------------------------------------- online insert ---

TEST(InsertTest, RejectsDimensionMismatch) {
  auto tree_r = BbTree::Build(ClusteredPoints(50, 4, 301), {});
  ASSERT_TRUE(tree_r.ok());
  EXPECT_FALSE(tree_r.ValueOrDie().Insert({0.5, 0.5}).ok());
}

TEST(InsertTest, InsertedPointsFoundByExactKnn) {
  // ExactKnn must stay exact after inserts, which append rows out of leaf
  // order.
  auto points = ClusteredPoints(200, 5, 311);
  auto tree_r = BbTree::Build(points, {});
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  Rng rng(312);
  for (int i = 0; i < 25; ++i) {
    points.push_back(simplex::SampleUniformSimplex(5, &rng));
    auto id = tree.Insert(points.back());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(id.ValueOrDie(), 200u + static_cast<uint32_t>(i));
  }
  EXPECT_EQ(tree.num_points(), 225u);
  EXPECT_EQ(tree.num_inserted(), 25u);
  for (int t = 0; t < 20; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(5, &rng);
    const auto got = tree.ExactKnn(q, 7);
    const auto want = ReferenceKnn(points, q, 7);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].point_id, want[i].point_id) << "query " << t;
      EXPECT_NEAR(got[i].divergence, want[i].divergence, 1e-12);
    }
  }
}

TEST(InsertTest, InsertedPointServedEpsilonExactByInflexSearch) {
  // A query identical to a freshly inserted point descends along the same
  // closest-center path the insert took, so the ε-exact shortcut fires.
  auto tree_r = BbTree::Build(ClusteredPoints(150, 4, 321), {});
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  const TopicVector fresh = {0.86, 0.06, 0.05, 0.03};
  auto id = tree.Insert(fresh);
  ASSERT_TRUE(id.ok());
  const auto r = tree.InflexSearch(fresh, {});
  ASSERT_TRUE(r.epsilon_exact);
  ASSERT_EQ(r.neighbors.size(), 1u);
  EXPECT_EQ(r.neighbors[0].point_id, id.ValueOrDie());
}

TEST(InsertTest, DegradationGrowsAndResetsOnRebuild) {
  BbTreeOptions bopts;
  bopts.max_leaf_size = 8;
  auto tree_r = BbTree::Build(ClusteredPoints(100, 4, 331), bopts);
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  EXPECT_DOUBLE_EQ(tree.degradation(), 0.0);

  Rng rng(332);
  double last = 0.0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree.Insert(simplex::SampleUniformSimplex(4, &rng)).ok());
    EXPECT_GE(tree.degradation(), last);
    last = tree.degradation();
  }
  EXPECT_GT(last, 0.2);  // ≥ the inserted fraction alone (30/130)

  // A full rebuild over the same points restores a pristine tree.
  std::vector<TopicVector> all;
  for (uint32_t i = 0; i < tree.num_points(); ++i) all.push_back(tree.point(i));
  auto rebuilt = BbTree::Build(std::move(all), bopts);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.ValueOrDie().num_inserted(), 0u);
  EXPECT_DOUBLE_EQ(rebuilt.ValueOrDie().degradation(), 0.0);
}

// ---------------------------------------------------------- online removal ---

TEST(RemoveTest, RejectsBadInputWithoutMutating) {
  auto tree_r = BbTree::Build(ClusteredPoints(40, 4, 401), {});
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();

  const std::vector<uint32_t> out_of_range = {3, 40};
  EXPECT_FALSE(tree.RemovePoints(out_of_range).ok());
  EXPECT_EQ(tree.num_points(), 40u);
  EXPECT_EQ(tree.num_removed(), 0u);

  std::vector<uint32_t> everything(40);
  for (uint32_t i = 0; i < 40; ++i) everything[i] = i;
  EXPECT_FALSE(tree.RemovePoints(everything).ok());
  EXPECT_EQ(tree.num_points(), 40u);
  EXPECT_DOUBLE_EQ(tree.degradation(), 0.0);

  EXPECT_TRUE(tree.RemovePoints({}).ok());  // no-op
  EXPECT_EQ(tree.num_points(), 40u);
}

TEST(RemoveTest, PrunedTreeSearchesMatchFreshBuildOnSurvivors) {
  // After removing a mix of built and inserted points, every search on the
  // pruned tree must agree bit-for-bit with a fresh tree built over the
  // survivors in order: the renumbering is dense and order-preserving, and
  // the KL kernel evaluates every point row in a fixed reduction order, so
  // ids AND divergences are comparable exactly.
  const auto points = ClusteredPoints(180, 5, 411);
  auto tree_r = BbTree::Build(points, {});
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  Rng rng(412);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(simplex::SampleUniformSimplex(5, &rng)).ok());
  }

  // Drop every 7th id (covers built rows and the inserted tail), plus a
  // duplicate to confirm duplicates are tolerated.
  std::vector<uint32_t> victims;
  for (uint32_t id = 0; id < 200; id += 7) victims.push_back(id);
  victims.push_back(victims.front());
  std::vector<TopicVector> survivors;
  for (uint32_t id = 0; id < 200; ++id) {
    if (id % 7 != 0) survivors.push_back(tree.point(id));
  }

  ASSERT_TRUE(tree.RemovePoints(victims).ok());
  EXPECT_EQ(tree.num_points(), survivors.size());
  EXPECT_EQ(tree.num_removed(), 200u / 7 + 1);
  EXPECT_GT(tree.degradation(), 0.0);

  auto fresh_r = BbTree::Build(survivors, {});
  ASSERT_TRUE(fresh_r.ok());
  const BbTree& fresh = fresh_r.ValueOrDie();

  for (int t = 0; t < 20; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(5, &rng);
    // Exactness within the pruned tree itself...
    const auto got = tree.ExactKnn(q, 6);
    const auto scan = ReferenceKnn(survivors, q, 6);
    // ...and bit-identity against the pristine rebuild.
    const auto want = fresh.ExactKnn(q, 6);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].point_id, scan[i].point_id) << "query " << t;
      EXPECT_EQ(got[i].point_id, want[i].point_id) << "query " << t;
      EXPECT_NEAR(got[i].divergence, scan[i].divergence, 1e-12);
      EXPECT_DOUBLE_EQ(got[i].divergence, want[i].divergence);
    }
  }
}

TEST(RemoveTest, SurvivingPointsKeepTheirDataUnderRenumbering) {
  const auto points = ClusteredPoints(60, 4, 421);
  auto tree_r = BbTree::Build(points, {});
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  ASSERT_TRUE(tree.RemovePoints(std::vector<uint32_t>{0, 13, 27, 59}).ok());
  // Survivor with old id `old` now answers to old minus dropped-before-it.
  uint32_t new_id = 0;
  for (uint32_t old = 0; old < 60; ++old) {
    if (old == 0 || old == 13 || old == 27 || old == 59) continue;
    const auto got = tree.point(new_id);
    ASSERT_EQ(got.size(), points[old].size());
    for (size_t d = 0; d < got.size(); ++d) {
      EXPECT_EQ(got[d], points[old][d]) << "survivor " << old;
    }
    ++new_id;
  }
  EXPECT_EQ(new_id, tree.num_points());
}

// Regression: degradation() used to compare the largest leaf against
// max_leaf_size, so a build whose degenerate split legitimately left an
// oversized leaf (duplicate-heavy data) reported phantom degradation — and a
// rebuild could never bring it back to 0.
TEST(RemoveTest, DegradationIsZeroAfterBuildEvenWithOversizedLeaves) {
  std::vector<TopicVector> points;
  for (int i = 0; i < 40; ++i) points.push_back({0.7, 0.1, 0.1, 0.1});
  for (int i = 0; i < 4; ++i) {
    points.push_back({0.1, 0.7, 0.1, 0.1});
  }
  BbTreeOptions bopts;
  bopts.max_leaf_size = 4;  // duplicates cannot split below this
  auto tree_r = BbTree::Build(points, bopts);
  ASSERT_TRUE(tree_r.ok());
  BbTree& tree = tree_r.ValueOrDie();
  EXPECT_DOUBLE_EQ(tree.degradation(), 0.0);

  // Degrade it, then rebuild over the same points: back to exactly 0.
  Rng rng(431);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(simplex::SampleUniformSimplex(4, &rng)).ok());
  }
  ASSERT_TRUE(tree.RemovePoints(std::vector<uint32_t>{1, 2, 3}).ok());
  EXPECT_GT(tree.degradation(), 0.0);
  std::vector<TopicVector> all;
  for (uint32_t i = 0; i < tree.num_points(); ++i) all.push_back(tree.point(i));
  auto rebuilt = BbTree::Build(std::move(all), bopts);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_DOUBLE_EQ(rebuilt.ValueOrDie().degradation(), 0.0);
}

// ------------------------------------------------------- copy-on-write ---

// Every answer a search gives over a fixed query set, divergences as bits,
// plus the work InflexSearch did (a ball's radius moves its pruning).
struct SearchAnswers {
  std::vector<std::pair<uint32_t, uint64_t>> exact;
  std::vector<std::pair<uint32_t, uint64_t>> inflex;
  std::vector<size_t> inflex_work;
  bool operator==(const SearchAnswers&) const = default;
};

SearchAnswers AnswersOf(const BbTree& tree, size_t dim) {
  constexpr int kQueries = 200;
  Rng rng(501);
  SearchAnswers out;
  const auto add = [](const std::vector<Neighbor>& found, auto* into) {
    into->emplace_back(UINT32_MAX, found.size());  // query separator
    for (const Neighbor& n : found) {
      into->emplace_back(n.point_id, std::bit_cast<uint64_t>(n.divergence));
    }
  };
  for (int t = 0; t < kQueries; ++t) {
    const TopicVector q = simplex::SampleUniformSimplex(dim, &rng);
    add(tree.ExactKnn(q, 10), &out.exact);
    const InflexSearchResult r = tree.InflexSearch(q, {});
    add(r.neighbors, &out.inflex);
    out.inflex_work.insert(out.inflex_work.end(),
                           {r.stats.kl_evaluations, r.stats.leaves_visited,
                            r.stats.subtrees_pruned});
  }
  return out;
}

// Points far from the clustered population: each insert enlarges balls on
// its path and lands in some leaf.
std::vector<TopicVector> OutlierPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopicVector> points;
  for (size_t i = 0; i < n; ++i) {
    points.push_back(simplex::SampleUniformSimplex(dim, &rng));
  }
  return points;
}

TEST(CopyOnWriteTest, CloneSharesBuiltRowsAndNeverWritesThem) {
  auto tree_r = BbTree::Build(ClusteredPoints(200, 5, 511), {});
  ASSERT_TRUE(tree_r.ok());
  const BbTree& base = tree_r.ValueOrDie();
  std::vector<const double*> rows;
  std::vector<TopicVector> values;
  for (uint32_t id = 0; id < base.num_points(); ++id) {
    rows.push_back(base.point_span(id).data());
    values.push_back(base.point(id));
  }

  BbTree clone = base;
  for (uint32_t id = 0; id < base.num_points(); ++id) {
    EXPECT_EQ(clone.point_span(id).data(), rows[id]) << "id " << id;
  }
  for (const TopicVector& p : OutlierPoints(12, 5, 512)) {
    ASSERT_TRUE(clone.Insert(p).ok());
  }
  ASSERT_TRUE(clone.RemovePoints(std::vector<uint32_t>{0, 9, 150, 205}).ok());

  // The clone compacted its rows into a block of its own; the base's rows
  // are where and what they were.
  EXPECT_NE(clone.point_span(0).data(), rows[1]);
  for (uint32_t id = 0; id < base.num_points(); ++id) {
    EXPECT_EQ(base.point_span(id).data(), rows[id]) << "id " << id;
    EXPECT_EQ(base.point(id), values[id]) << "id " << id;
  }
}

TEST(CopyOnWriteTest, EditsOnACloneLeaveTheBaseAnswersUnchanged) {
  BbTreeOptions bopts;
  bopts.max_leaf_size = 8;
  auto tree_r = BbTree::Build(ClusteredPoints(240, 5, 521), bopts);
  ASSERT_TRUE(tree_r.ok());
  BbTree& base = tree_r.ValueOrDie();
  // The base holds appended rows and copied nodes of its own as well.
  for (const TopicVector& p : OutlierPoints(6, 5, 522)) {
    ASSERT_TRUE(base.Insert(p).ok());
  }
  const SearchAnswers before = AnswersOf(base, 5);

  BbTree clone = base;
  for (const TopicVector& p : OutlierPoints(30, 5, 523)) {
    ASSERT_TRUE(clone.Insert(p).ok());
  }
  EXPECT_EQ(AnswersOf(base, 5), before) << "after Insert";
  std::vector<uint32_t> victims;
  for (uint32_t id = 3; id < clone.num_points(); id += 11) {
    victims.push_back(id);
  }
  ASSERT_TRUE(clone.RemovePoints(victims).ok());
  EXPECT_EQ(AnswersOf(base, 5), before) << "after RemovePoints";
  std::vector<TopicVector> survivors;
  for (uint32_t id = 0; id < clone.num_points(); ++id) {
    survivors.push_back(clone.point(id));
  }
  auto rebuilt = BbTree::Build(std::move(survivors), bopts);
  ASSERT_TRUE(rebuilt.ok());
  clone = std::move(rebuilt).ValueOrDie();  // what a Compact does
  EXPECT_EQ(AnswersOf(base, 5), before) << "after the rebuild";
}

TEST(CopyOnWriteTest, CloneOutlivesItsBase) {
  const auto points = ClusteredPoints(160, 4, 531);
  const auto extra = OutlierPoints(2, 4, 532);
  const auto built = [&] { return BbTree::Build(points, {}).ValueOrDie(); };

  auto base = std::make_unique<BbTree>(built());
  BbTree first = *base;
  base.reset();
  ASSERT_TRUE(first.Insert(extra[0]).ok());
  BbTree second = first;
  ASSERT_TRUE(second.Insert(extra[1]).ok());
  ASSERT_TRUE(second.RemovePoints(std::vector<uint32_t>{3}).ok());

  // Independent trees that took the same edits (Build is deterministic).
  BbTree first_ref = built();
  ASSERT_TRUE(first_ref.Insert(extra[0]).ok());
  BbTree second_ref = built();
  ASSERT_TRUE(second_ref.Insert(extra[0]).ok());
  ASSERT_TRUE(second_ref.Insert(extra[1]).ok());
  ASSERT_TRUE(second_ref.RemovePoints(std::vector<uint32_t>{3}).ok());
  EXPECT_EQ(AnswersOf(first, 4), AnswersOf(first_ref, 4));
  EXPECT_EQ(AnswersOf(second, 4), AnswersOf(second_ref, 4));
}

// ------------------------------------------------- search context lifetime ---

// Regression: a long-lived SearchContext (the thread_local fallback on a
// serving thread) used to keep its worst-case scratch forever and was never
// re-validated against the tree it was about to search, so one context
// serving trees of different dimension back to back was unsound by
// construction. Every entry point now re-binds the scratch per search.
TEST(SearchContextTest, OneContextServesTreesOfDifferentDimension) {
  auto small_r = BbTree::Build(ClusteredPoints(80, 4, 441), {});
  auto big_r = BbTree::Build(ClusteredPoints(600, 16, 442), {});
  ASSERT_TRUE(small_r.ok());
  ASSERT_TRUE(big_r.ok());
  const BbTree& small = small_r.ValueOrDie();
  const BbTree& big = big_r.ValueOrDie();

  SearchContext ctx;
  Rng rng(443);
  for (int t = 0; t < 8; ++t) {
    // Alternate trees through ONE context; answers must match fresh-context
    // searches exactly (same kernel, same traversal — scratch is invisible).
    const TopicVector qs = simplex::SampleUniformSimplex(4, &rng);
    const TopicVector qb = simplex::SampleUniformSimplex(16, &rng);
    const auto got_s = small.ExactKnn(qs, 5, nullptr, &ctx);
    const auto want_s = small.ExactKnn(qs, 5);
    const auto got_b = big.ExactKnn(qb, 5, nullptr, &ctx);
    const auto want_b = big.ExactKnn(qb, 5);
    ASSERT_EQ(got_s.size(), want_s.size());
    ASSERT_EQ(got_b.size(), want_b.size());
    for (size_t i = 0; i < got_s.size(); ++i) {
      EXPECT_EQ(got_s[i].point_id, want_s[i].point_id);
      EXPECT_DOUBLE_EQ(got_s[i].divergence, want_s[i].divergence);
    }
    for (size_t i = 0; i < got_b.size(); ++i) {
      EXPECT_EQ(got_b[i].point_id, want_b[i].point_id);
      EXPECT_DOUBLE_EQ(got_b[i].divergence, want_b[i].divergence);
    }
    // InflexSearch through the same context as well.
    const auto r = small.InflexSearch(qs, {}, &ctx);
    ASSERT_FALSE(r.neighbors.empty());
  }
}

TEST(SearchContextTest, RetainedCapacityIsBoundedAfterWorstCaseSearch) {
  auto small_r = BbTree::Build(ClusteredPoints(60, 4, 451), {});
  // Worst case by construction: one 500-point leaf (max_leaf_size above the
  // point count), so a single search inflates the leaf-scan scratch to 500 —
  // far beyond the release threshold of the small tree's ≤16-point leaves.
  BbTreeOptions one_leaf;
  one_leaf.max_leaf_size = 600;
  auto big_r = BbTree::Build(ClusteredPoints(500, 8, 452), one_leaf);
  // A deep wide tree of larger dimension inflates the other scratch family:
  // the batched-screen gather rows (frontier × stride doubles) plus the
  // sibling queue, which the one-leaf tree never touches.
  BbTreeOptions deep_opts;
  deep_opts.max_leaf_size = 4;
  auto deep_r = BbTree::Build(ClusteredPoints(400, 16, 454), deep_opts);
  ASSERT_TRUE(small_r.ok());
  ASSERT_TRUE(big_r.ok());
  ASSERT_TRUE(deep_r.ok());
  const BbTree& small = small_r.ValueOrDie();
  const BbTree& big = big_r.ValueOrDie();
  const BbTree& deep = deep_r.ValueOrDie();

  SearchContext ctx;
  Rng rng(453);
  InflexSearchOptions explore;
  explore.use_ad_early_stop = false;
  explore.max_leaves = 32;
  // Phase 1 — every descent's bypassed frontier of the deep tree is
  // gathered into ctx's screen rows.
  for (int t = 0; t < 3; ++t) {
    deep.InflexSearch(simplex::SampleUniformSimplex(16, &rng), explore, &ctx);
  }
  const size_t after_deep = ctx.retained_capacity();
  ASSERT_GT(after_deep, 0u);  // includes the screen gather rows
  // Phase 2 — the one-leaf tree inflates the leaf-scan scratch on top (its
  // dim-8 bind keeps phase 1's screen scratch: not "far beyond" its needs).
  for (int t = 0; t < 3; ++t) {
    big.InflexSearch(simplex::SampleUniformSimplex(8, &rng), explore, &ctx);
  }
  const size_t inflated = ctx.retained_capacity();
  ASSERT_GT(inflated, after_deep);

  // Re-binding to the small tree must release the far-oversized buffers
  // instead of pinning the high-water mark forever.
  small.ExactKnn(simplex::SampleUniformSimplex(4, &rng), 5, nullptr, &ctx);
  const size_t rebound = ctx.retained_capacity();
  EXPECT_LT(rebound, inflated);

  // Steady-state reuse on one tree is stable (hysteresis: no realloc churn).
  small.ExactKnn(simplex::SampleUniformSimplex(4, &rng), 5, nullptr, &ctx);
  EXPECT_EQ(ctx.retained_capacity(), rebound);
}

}  // namespace
}  // namespace bbtree
}  // namespace inflex

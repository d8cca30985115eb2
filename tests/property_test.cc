// Cross-module property tests: parameterized sweeps asserting invariants
// that must hold for ANY configuration, not just the tuned defaults.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "bbtree/bbtree.h"
#include "data/synthetic.h"
#include "im/snapshot_oracle.h"
#include "im/spread_estimator.h"
#include "rank/aggregators.h"
#include "rank/kendall_tau.h"
#include "simplex/divergence.h"
#include "simplex/sampling.h"
#include "stats/dirichlet.h"
#include "util/random.h"

namespace inflex {
namespace {

// ------------------------------------------------ spread estimator accord ---

struct SpreadRegime {
  double p_lo;
  double p_hi;
  size_t arcs;
};

class SpreadAgreementTest : public ::testing::TestWithParam<SpreadRegime> {};

TEST_P(SpreadAgreementTest, SnapshotOracleTracksMonteCarlo) {
  // The two spread estimators are independent implementations of the same
  // expectation; across sparse/dense and weak/strong regimes they must
  // agree within sampling noise.
  const SpreadRegime regime = GetParam();
  Rng rng(1234);
  graph::TopicGraphBuilder b(150, 1);
  std::set<std::pair<graph::NodeId, graph::NodeId>> used;
  while (used.size() < regime.arcs) {
    const auto u = static_cast<graph::NodeId>(rng.UniformInt(150));
    const auto v = static_cast<graph::NodeId>(rng.UniformInt(150));
    if (u == v || used.count({u, v})) continue;
    used.insert({u, v});
    ASSERT_TRUE(b.AddArc(u, v, {rng.Uniform(regime.p_lo, regime.p_hi)}).ok());
  }
  const auto g = b.Build().ValueOrDie();
  graph::ArcProbabilities probs(g.num_arcs());
  for (graph::ArcId a = 0; a < g.num_arcs(); ++a) {
    probs[a] = g.ArcTopicProb(a, 0);
  }

  im::SnapshotSpreadOracle::Options oopts;
  oopts.num_snapshots = 4000;
  auto oracle = im::SnapshotSpreadOracle::Create(g, probs, oopts);
  ASSERT_TRUE(oracle.ok());
  auto ws = oracle.ValueOrDie().MakeWorkspace();

  im::MonteCarloOptions mc;
  mc.num_simulations = 20000;
  mc.parallel = false;
  const std::vector<graph::NodeId> seeds = {3, 77, 140};
  const double snap = oracle.ValueOrDie().SpreadOf(seeds, &ws);
  const double monte =
      im::EstimateSpread(g, probs, seeds, mc).ValueOrDie().mean;
  EXPECT_NEAR(snap, monte, 0.06 * monte + 0.6)
      << "regime p=[" << regime.p_lo << "," << regime.p_hi << "] arcs="
      << regime.arcs;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SpreadAgreementTest,
    ::testing::Values(SpreadRegime{0.01, 0.05, 400},   // weak, sparse
                      SpreadRegime{0.05, 0.2, 800},    // medium
                      SpreadRegime{0.2, 0.6, 400},     // strong, sparse
                      SpreadRegime{0.3, 0.9, 1500}));  // near-percolating

// ------------------------------------------------------- Kendall distance ---

TEST(KendallPropertyTest, MonotoneInPerturbationStrength) {
  // More adjacent transpositions applied to a list ⇒ the top-ℓ distance to
  // the original never decreases (in expectation; we assert on averages).
  Rng rng(77);
  const size_t ell = 20;
  double prev_avg = -1.0;
  for (int swaps : {0, 3, 10, 30, 90}) {
    double total = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      rank::RankedList base(ell);
      std::iota(base.begin(), base.end(), 1000u);
      rank::RankedList perturbed = base;
      for (int s = 0; s < swaps; ++s) {
        const size_t i = rng.UniformInt(ell - 1);
        std::swap(perturbed[i], perturbed[i + 1]);
      }
      total += rank::KendallTauTopL(base, perturbed).ValueOrDie();
    }
    const double avg = total / trials;
    EXPECT_GE(avg, prev_avg - 1e-9) << swaps;
    prev_avg = avg;
  }
}

TEST(KendallPropertyTest, TopLDistanceIsBounded) {
  Rng rng(78);
  for (int t = 0; t < 60; ++t) {
    const size_t ell = 2 + rng.UniformInt(30);
    std::set<rank::Item> pool;
    while (pool.size() < 2 * ell) {
      pool.insert(static_cast<rank::Item>(rng.UniformInt(10000)));
    }
    std::vector<rank::Item> items(pool.begin(), pool.end());
    rng.Shuffle(&items);
    rank::RankedList a(items.begin(), items.begin() + ell);
    rng.Shuffle(&items);
    rank::RankedList b(items.begin(), items.begin() + ell);
    const double d = rank::KendallTauTopL(a, b).ValueOrDie();
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    EXPECT_DOUBLE_EQ(rank::KendallTauTopL(a, a).ValueOrDie(), 0.0);
    EXPECT_DOUBLE_EQ(d, rank::KendallTauTopL(b, a).ValueOrDie());
  }
}

// ------------------------------------------------------------ aggregation ---

TEST(AggregationPropertyTest, UnanimousPrefixIsPreserved) {
  // When every input list starts with the same two items in the same order,
  // any aggregation method must keep them on top in that order.
  Rng rng(79);
  for (auto method :
       {rank::AggregationMethod::kBorda, rank::AggregationMethod::kCopeland}) {
    for (int t = 0; t < 10; ++t) {
      std::vector<rank::RankedList> lists;
      for (int j = 0; j < 4; ++j) {
        rank::RankedList tail(8);
        std::iota(tail.begin(), tail.end(), 100u);
        rng.Shuffle(&tail);
        rank::RankedList l = {1, 2};
        l.insert(l.end(), tail.begin(), tail.begin() + 5);
        lists.push_back(l);
      }
      rank::AggregationOptions opts;
      opts.method = method;
      auto r = rank::AggregateRankings(lists, {}, 7, opts);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.ValueOrDie()[0], 1u) << static_cast<int>(method);
      EXPECT_EQ(r.ValueOrDie()[1], 2u) << static_cast<int>(method);
    }
  }
}

TEST(AggregationPropertyTest, SingleListIsReturnedVerbatim) {
  const rank::RankedList l = {9, 4, 6, 2, 8};
  for (auto method :
       {rank::AggregationMethod::kBorda, rank::AggregationMethod::kCopeland}) {
    rank::AggregationOptions opts;
    opts.method = method;
    auto r = rank::AggregateRankings({l}, {}, 5, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie(), l) << static_cast<int>(method);
  }
}

// -------------------------------------------------------------- divergence ---

class KlSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KlSweepTest, BasicAxiomsAcrossDimensions) {
  const size_t dim = GetParam();
  Rng rng(dim * 31 + 1);
  for (int t = 0; t < 40; ++t) {
    const auto p = simplex::SampleUniformSimplex(dim, &rng);
    const auto q = simplex::SampleUniformSimplex(dim, &rng);
    const double d_pq = simplex::KlDivergence(p, q);
    EXPECT_GE(d_pq, 0.0);
    EXPECT_DOUBLE_EQ(simplex::KlDivergence(p, p), 0.0);
    EXPECT_LE(d_pq, simplex::KlMaxBound() + 1e-9);
    // Symmetrized version bounds both sided versions from below / above.
    const double sym = simplex::SymmetrizedKl(p, q);
    EXPECT_LE(std::min(d_pq, simplex::KlDivergence(q, p)), sym + 1e-12);
    EXPECT_GE(std::max(d_pq, simplex::KlDivergence(q, p)) + 1e-12, sym);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, KlSweepTest, ::testing::Values(2, 3, 8, 32));

// --------------------------------------------------------------- bb-tree ---

class BbTreeInvariantTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BbTreeInvariantTest, SearchResultsAreAlwaysValidPoints) {
  const size_t leaf_size = GetParam();
  Rng rng(leaf_size * 7 + 5);
  std::vector<simplex::TopicVector> points;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> alpha(6, 0.4);
    alpha[i % 6] = 5.0;
    stats::Dirichlet d(alpha);
    points.push_back(d.Sample(&rng));
  }
  bbtree::BbTreeOptions opts;
  opts.max_leaf_size = leaf_size;
  auto tree = bbtree::BbTree::Build(points, opts);
  ASSERT_TRUE(tree.ok());

  for (int t = 0; t < 15; ++t) {
    const auto q = simplex::SampleUniformSimplex(6, &rng);
    // All three searches: ids in range, divergences correct and sorted.
    bbtree::SearchStats stats;
    for (const auto& result :
         {tree.ValueOrDie().ExactKnn(q, 7, &stats),
          tree.ValueOrDie().LeafBoundedKnn(q, 7, 3, &stats),
          tree.ValueOrDie().InflexSearch(q).neighbors}) {
      for (size_t i = 0; i < result.size(); ++i) {
        ASSERT_LT(result[i].point_id, points.size());
        EXPECT_NEAR(result[i].divergence,
                    simplex::KlDivergence(
                        points[result[i].point_id], q),
                    1e-12);
        if (i > 0) {
          EXPECT_LE(result[i - 1].divergence, result[i].divergence);
        }
      }
    }
    EXPECT_GT(stats.kl_evaluations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, BbTreeInvariantTest,
                         ::testing::Values(2, 4, 16, 64));

// ---------------------------------------------------- dataset invariants ---

class DatasetSweepTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(DatasetSweepTest, GeneratorInvariantsAcrossShapes) {
  const auto [users, topics] = GetParam();
  data::SyntheticDatasetOptions opts;
  opts.num_users = users;
  opts.num_topics = topics;
  opts.num_items = 60;
  opts.seed = users + topics;
  tic::PropagationLog log(1, 1);
  auto ds = data::GenerateSyntheticDataset(opts, &log);
  ASSERT_TRUE(ds.ok());
  const auto& d = ds.ValueOrDie();
  EXPECT_EQ(d.graph.num_nodes(), users);
  EXPECT_EQ(d.graph.num_topics(), topics);
  // Log activations reference valid users/items and are time-ordered per
  // item.
  for (tic::ItemId i = 0; i < 60; ++i) {
    double prev = -1.0;
    for (const auto& a : log.ItemActivations(i)) {
      EXPECT_LT(a.user, users);
      EXPECT_GE(a.timestamp, prev);
      prev = a.timestamp;
    }
  }
  // Every catalog entry is a valid distribution.
  for (const auto& item : d.catalog) {
    double sum = 0.0;
    for (double p : item.probs()) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DatasetSweepTest,
    ::testing::Values(std::make_pair<size_t, size_t>(50, 2),
                      std::make_pair<size_t, size_t>(200, 5),
                      std::make_pair<size_t, size_t>(500, 12)));

}  // namespace
}  // namespace inflex

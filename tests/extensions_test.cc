// Tests for the extension features beyond the paper's core: MC4 rank
// aggregation, segment-targeted TIM queries, seed-candidate restriction in
// the IM algorithms, RIS influence maximization, and the automatic
// index-size suggestion.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "data/synthetic.h"
#include "im/celf.h"
#include "im/ris.h"
#include "im/spread_estimator.h"
#include "inflex/index_points.h"
#include "simplex/sampling.h"
#include "inflex/inflex_index.h"
#include "inflex/query_cache.h"
#include "rank/aggregators.h"
#include "rank/kendall_tau.h"
#include "rank/markov_chain.h"
#include "util/random.h"

namespace inflex {
namespace {

// ---------------------------------------------------------------------- MC4 ---

// MC4 alone: no Local Kemenization, every item of the union returned.
Result<rank::RankedList> Mc4Only(const std::vector<rank::RankedList>& lists,
                                 const std::vector<double>& weights) {
  rank::AggregationOptions opts;
  opts.method = rank::AggregationMethod::kMarkovChainMc4;
  opts.local_kemenization = false;
  return rank::AggregateRankings(
      lists, weights, std::max<size_t>(1, rank::UnionOfLists(lists).size()),
      opts);
}

TEST(Mc4Test, RecoversPerfectConsensus) {
  const rank::RankedList consensus = {4, 1, 9, 2};
  auto r = Mc4Only({consensus, consensus, consensus}, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), consensus);
}

TEST(Mc4Test, CondorcetWinnerRanksFirst) {
  // Item 1 beats everyone pairwise in a majority of the lists.
  auto r = Mc4Only({{1, 2, 3}, {1, 3, 2}, {2, 1, 3}}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().front(), 1u);
}

TEST(Mc4Test, StationaryDistributionIsProbability) {
  Rng rng(5);
  std::vector<rank::RankedList> lists;
  for (int j = 0; j < 4; ++j) {
    rank::RankedList l(8);
    std::iota(l.begin(), l.end(), 0u);
    rng.Shuffle(&l);
    l.resize(5);
    lists.push_back(l);
  }
  auto pi = rank::Mc4StationaryDistribution(
      rank::PreferenceMatrix::Build(lists, {}).ValueOrDie());
  ASSERT_TRUE(pi.ok());
  double sum = 0.0;
  for (double p : pi.ValueOrDie()) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mc4Test, WeightsShiftTheOutcome) {
  const std::vector<rank::RankedList> lists = {{1, 2}, {2, 1}, {2, 1}};
  auto unweighted = Mc4Only(lists, {});
  ASSERT_TRUE(unweighted.ok());
  EXPECT_EQ(unweighted.ValueOrDie().front(), 2u);  // majority
  auto weighted = Mc4Only(lists, {10.0, 1.0, 1.0});
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted.ValueOrDie().front(), 1u);  // dominant first list
}

TEST(Mc4Test, RejectsBadInput) {
  EXPECT_FALSE(Mc4Only({}, {}).ok());
  EXPECT_FALSE(Mc4Only({{1, 2}, {}}, {}).ok());
  rank::Mc4Options bad;
  bad.damping = 0.0;
  EXPECT_FALSE(rank::Mc4StationaryDistribution(
                   rank::PreferenceMatrix::Build({{1, 2}}, {}).ValueOrDie(),
                   bad)
                   .ok());
}

TEST(Mc4Test, WorksAsAggregationMethodInPipeline) {
  rank::AggregationOptions opts;
  opts.method = rank::AggregationMethod::kMarkovChainMc4;
  auto r = rank::AggregateRankings({{1, 2, 3}, {1, 3, 2}}, {}, 3, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().size(), 3u);
  EXPECT_EQ(r.ValueOrDie().front(), 1u);
}

// --------------------------------------------------------- candidate masks ---

class CandidateMaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 200;
    dopts.num_topics = 4;
    dopts.num_items = 40;
    dopts.seed = 303;
    auto ds = data::GenerateSyntheticDataset(dopts);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<data::SyntheticDataset>(
        std::move(ds).ValueOrDie());
    const auto probs = dataset_->graph.ItemArcProbabilities(
        simplex::TopicDistribution::Uniform(4));
    im::SnapshotSpreadOracle::Options oopts;
    oopts.num_snapshots = 40;
    auto oracle = im::SnapshotSpreadOracle::Create(dataset_->graph, probs,
                                                   oopts);
    ASSERT_TRUE(oracle.ok());
    oracle_ = std::make_unique<im::SnapshotSpreadOracle>(
        std::move(oracle).ValueOrDie());
  }

  std::unique_ptr<data::SyntheticDataset> dataset_;
  std::unique_ptr<im::SnapshotSpreadOracle> oracle_;
};

TEST_F(CandidateMaskTest, AllSelectorsRespectTheMask) {
  // Only even node ids are eligible.
  im::SeedSelectionOptions opts;
  opts.parallel_first_iteration = false;
  opts.candidate_mask.assign(200, 0);
  for (size_t v = 0; v < 200; v += 2) opts.candidate_mask[v] = 1;

  auto greedy = im::SelectSeedsGreedy(oracle_.get(), 6, opts);
  auto celf = im::SelectSeedsCelf(oracle_.get(), 6, opts);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(celf.ok());
  for (const auto* r : {&greedy.ValueOrDie(), &celf.ValueOrDie()}) {
    for (graph::NodeId v : r->seeds) EXPECT_EQ(v % 2, 0u);
  }
  // The algorithms still agree under the restriction.
  EXPECT_EQ(celf.ValueOrDie().seeds, greedy.ValueOrDie().seeds);
}

TEST_F(CandidateMaskTest, RestrictionNeverImprovesSpread) {
  im::SeedSelectionOptions unrestricted;
  unrestricted.parallel_first_iteration = false;
  auto full = im::SelectSeedsCelf(oracle_.get(), 5, unrestricted);
  ASSERT_TRUE(full.ok());

  im::SeedSelectionOptions restricted = unrestricted;
  restricted.candidate_mask.assign(200, 0);
  for (size_t v = 0; v < 100; ++v) restricted.candidate_mask[v] = 1;
  auto half = im::SelectSeedsCelf(oracle_.get(), 5, restricted);
  ASSERT_TRUE(half.ok());
  EXPECT_LE(half.ValueOrDie().expected_spread,
            full.ValueOrDie().expected_spread + 1e-9);
}

TEST_F(CandidateMaskTest, ValidatesMask) {
  im::SeedSelectionOptions wrong_size;
  wrong_size.candidate_mask.assign(10, 1);
  EXPECT_FALSE(im::SelectSeedsCelf(oracle_.get(), 3, wrong_size).ok());

  im::SeedSelectionOptions too_few;
  too_few.candidate_mask.assign(200, 0);
  too_few.candidate_mask[0] = 1;
  EXPECT_FALSE(im::SelectSeedsCelf(oracle_.get(), 3, too_few).ok());
}

// ------------------------------------------------------- segment TIM query ---

class SegmentQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 300;
    dopts.num_topics = 4;
    dopts.num_items = 100;
    dopts.seed = 404;
    auto ds = data::GenerateSyntheticDataset(dopts);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());
    core::InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 24;
    bopts.index_points.num_dirichlet_samples = 2000;
    bopts.seed_list_length = 15;
    bopts.oracle_snapshots = 40;
    auto index = core::InflexIndex::Build(dataset_->graph, dataset_->catalog,
                                          bopts);
    ASSERT_TRUE(index.ok());
    index_ = new core::InflexIndex(std::move(index).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    index_ = nullptr;
    dataset_ = nullptr;
  }
  static data::SyntheticDataset* dataset_;
  static core::InflexIndex* index_;
};

data::SyntheticDataset* SegmentQueryTest::dataset_ = nullptr;
core::InflexIndex* SegmentQueryTest::index_ = nullptr;

TEST_F(SegmentQueryTest, AnswersContainOnlySegmentMembers) {
  core::QueryOptions opts;
  opts.segment_mask.assign(300, 0);
  for (size_t v = 0; v < 300; v += 3) opts.segment_mask[v] = 1;
  Rng rng(1);
  for (int t = 0; t < 5; ++t) {
    auto q = simplex::TopicDistribution::Create(
                 simplex::SampleUniformSimplex(4, &rng))
                 .ValueOrDie();
    auto r = index_->Query(q, 5, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().seeds.empty());
    for (rank::Item v : r.ValueOrDie().seeds) EXPECT_EQ(v % 3, 0u);
  }
}

TEST_F(SegmentQueryTest, FullSegmentEqualsUnrestrictedAnswer) {
  // A mask admitting every user must not change the answer.
  core::QueryOptions unrestricted;
  core::QueryOptions seg;
  seg.segment_mask.assign(300, 1);
  Rng rng(2);
  for (int t = 0; t < 5; ++t) {
    auto q = simplex::TopicDistribution::Create(
                 simplex::SampleUniformSimplex(4, &rng))
                 .ValueOrDie();
    auto full = index_->Query(q, 10, unrestricted);
    auto masked = index_->Query(q, 10, seg);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(masked.ok());
    EXPECT_EQ(full.ValueOrDie().seeds, masked.ValueOrDie().seeds);
  }
}

TEST_F(SegmentQueryTest, EmptySegmentFailsCleanly) {
  core::QueryOptions opts;
  opts.segment_mask.assign(300, 0);  // nobody eligible
  auto r = index_->Query(simplex::TopicDistribution::Uniform(4), 5, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SegmentQueryTest, WrongMaskSizeRejected) {
  core::QueryOptions opts;
  opts.segment_mask.assign(7, 1);
  auto r = index_->Query(simplex::TopicDistribution::Uniform(4), 5, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------------- RIS ---

TEST(RisTest, MatchesCelfPpSpreadOnSameInstance) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 250;
  dopts.num_topics = 4;
  dopts.num_items = 40;
  dopts.seed = 77;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  const auto& g = ds.ValueOrDie().graph;
  const auto item =
      simplex::TopicDistribution::Delta(4, 1).SmoothedTowardUniform(0.1);
  const auto probs = g.ItemArcProbabilities(item);

  im::RisOptions ropts;
  ropts.num_rr_sets = 40000;
  auto ris = im::SelectSeedsRis(g, probs, 10, ropts);
  ASSERT_TRUE(ris.ok()) << ris.status().ToString();
  ASSERT_EQ(ris.ValueOrDie().seeds.size(), 10u);

  im::SnapshotSpreadOracle::Options oopts;
  oopts.num_snapshots = 100;
  auto oracle = im::SnapshotSpreadOracle::Create(g, probs, oopts);
  ASSERT_TRUE(oracle.ok());
  im::SeedSelectionOptions sopts;
  sopts.parallel_first_iteration = false;
  auto celf = im::SelectSeedsCelf(&oracle.ValueOrDie(), 10, sopts);
  ASSERT_TRUE(celf.ok());

  // Evaluate both seed sets with the same MC estimator: they must be within
  // a few percent of each other (both are (1−1/e)-approximations).
  im::MonteCarloOptions mc;
  mc.num_simulations = 8000;
  const double ris_spread =
      im::EstimateSpread(g, probs, ris.ValueOrDie().seeds, mc)
          .ValueOrDie()
          .mean;
  const double celf_spread =
      im::EstimateSpread(g, probs, celf.ValueOrDie().seeds, mc)
          .ValueOrDie()
          .mean;
  EXPECT_GT(ris_spread, 0.9 * celf_spread);
  // And the RIS internal estimate should be close to the MC evaluation.
  EXPECT_NEAR(ris.ValueOrDie().expected_spread, ris_spread,
              0.15 * ris_spread + 2.0);
}

TEST(RisTest, MarginalGainsNonIncreasingAndSeedsDistinct) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 150;
  dopts.num_topics = 3;
  dopts.num_items = 30;
  dopts.seed = 88;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  const auto& g = ds.ValueOrDie().graph;
  const auto probs =
      g.ItemArcProbabilities(simplex::TopicDistribution::Uniform(3));
  im::RisOptions ropts;
  ropts.num_rr_sets = 20000;
  auto r = im::SelectSeedsRis(g, probs, 12, ropts);
  ASSERT_TRUE(r.ok());
  const auto& gains = r.ValueOrDie().marginal_gains;
  for (size_t i = 1; i < gains.size(); ++i) {
    EXPECT_LE(gains[i], gains[i - 1] + 1e-9);
  }
  std::set<graph::NodeId> unique(r.ValueOrDie().seeds.begin(),
                                 r.ValueOrDie().seeds.end());
  EXPECT_EQ(unique.size(), 12u);
  // Spread equals the sum of marginal gains.
  double total = 0.0;
  for (double gn : gains) total += gn;
  EXPECT_NEAR(total, r.ValueOrDie().expected_spread, 1e-6);
}

TEST(RisTest, RejectsBadInput) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 50;
  dopts.num_topics = 2;
  dopts.num_items = 10;
  dopts.seed = 99;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  const auto& g = ds.ValueOrDie().graph;
  const auto probs =
      g.ItemArcProbabilities(simplex::TopicDistribution::Uniform(2));
  EXPECT_FALSE(im::SelectSeedsRis(g, probs, 0).ok());
  EXPECT_FALSE(im::SelectSeedsRis(g, probs, 51).ok());
  graph::ArcProbabilities wrong(3, 0.1);
  EXPECT_FALSE(im::SelectSeedsRis(g, wrong, 5).ok());
}

// RR-set ids are 32-bit: a count above UINT32_MAX used to loop forever.
// The request fails before any set is sampled or any array of that size is
// allocated, so this returns at once.
TEST(RisTest, RejectsRrSetCountBeyondSetIds) {
  graph::TopicGraphBuilder b(3, 1);
  ASSERT_TRUE(b.AddArc(0, 1, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(1, 2, {0.5}).ok());
  const graph::TopicGraph g = b.Build().ValueOrDie();
  const graph::ArcProbabilities probs(g.num_arcs(), 0.5);
  im::RisOptions ropts;
  ropts.num_rr_sets = size_t{1} << 32;
  auto r = im::SelectSeedsRis(g, probs, 1, ropts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- online index updates ---

TEST_F(SegmentQueryTest, AddIndexPointServesNewItemExactly) {
  // A freshly catalogued item arrives online with its precomputed list.
  core::InflexIndex index = [] {
    // Private copy so other tests' index is untouched: reload via parts.
    std::vector<simplex::TopicVector> points;
    std::vector<rank::RankedList> lists;
    for (uint32_t i = 0; i < index_->num_index_points(); ++i) {
      points.push_back(index_->index_point(i));
      lists.push_back(index_->seed_list(i));
    }
    return core::InflexIndex::FromParts(&dataset_->graph, std::move(points),
                                        std::move(lists), {})
        .ValueOrDie();
  }();
  const size_t before = index.num_index_points();

  const auto new_item = simplex::TopicDistribution::Create(
                            {0.85, 0.05, 0.05, 0.05})
                            .ValueOrDie();
  const rank::RankedList new_list = {7, 3, 99, 42, 11};
  ASSERT_TRUE(index.AddIndexPoint(new_item, new_list).ok());
  EXPECT_EQ(index.num_index_points(), before + 1);
  EXPECT_EQ(index.overflow_size(), 1u);

  // Querying the new item exactly must hit the ε-exact shortcut and return
  // its stored list.
  auto r = index.Query(new_item, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().epsilon_exact);
  EXPECT_EQ(r.ValueOrDie().seeds, new_list);

  // Compact folds the point into the tree; the answer must not change.
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.overflow_size(), 0u);
  EXPECT_EQ(index.num_index_points(), before + 1);
  auto r2 = index.Query(new_item, 5);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.ValueOrDie().epsilon_exact);
  EXPECT_EQ(r2.ValueOrDie().seeds, new_list);
}

TEST_F(SegmentQueryTest, AddIndexPointValidates) {
  std::vector<simplex::TopicVector> points = {index_->index_point(0)};
  std::vector<rank::RankedList> lists = {index_->seed_list(0)};
  auto index = core::InflexIndex::FromParts(&dataset_->graph,
                                            std::move(points),
                                            std::move(lists), {})
                   .ValueOrDie();
  EXPECT_FALSE(
      index.AddIndexPoint(simplex::TopicDistribution::Uniform(7), {1, 2})
          .ok());
  EXPECT_FALSE(
      index.AddIndexPoint(simplex::TopicDistribution::Uniform(4), {}).ok());
  EXPECT_FALSE(
      index.AddIndexPoint(simplex::TopicDistribution::Uniform(4), {5, 5})
          .ok());
  EXPECT_FALSE(index
                   .AddIndexPoint(simplex::TopicDistribution::Uniform(4),
                                  {9999999})
                   .ok());
}

TEST_F(SegmentQueryTest, OverflowPointsParticipateInKnnSearches) {
  std::vector<simplex::TopicVector> points;
  std::vector<rank::RankedList> lists;
  for (uint32_t i = 0; i < index_->num_index_points(); ++i) {
    points.push_back(index_->index_point(i));
    lists.push_back(index_->seed_list(i));
  }
  auto index = core::InflexIndex::FromParts(&dataset_->graph,
                                            std::move(points),
                                            std::move(lists), {})
                   .ValueOrDie();
  const auto near_item =
      simplex::TopicDistribution::Create({0.82, 0.06, 0.06, 0.06})
          .ValueOrDie();
  ASSERT_TRUE(index.AddIndexPoint(near_item, {1, 2, 3}).ok());

  // A query close (but not ε-equal) to the new point must retrieve it as a
  // top neighbor under the exact-KNN strategy.
  const auto query =
      simplex::TopicDistribution::Create({0.80, 0.07, 0.07, 0.06})
          .ValueOrDie();
  core::QueryOptions opts;
  opts.strategy = core::QueryStrategy::kExactKnn;
  opts.knn_k = 3;
  auto r = index.Query(query, 3, opts);
  ASSERT_TRUE(r.ok());
  bool found = false;
  for (const auto& nb : r.ValueOrDie().neighbors_used) {
    if (nb.point_id == index.num_index_points() - 1) found = true;
  }
  EXPECT_TRUE(found);
}

// -------------------------------------------------------------- query cache ---

TEST_F(SegmentQueryTest, QueryCacheHitsOnRepeatAndNearbyQueries) {
  core::QueryCache cache;
  const auto q =
      simplex::TopicDistribution::Create({0.4, 0.3, 0.2, 0.1}).ValueOrDie();
  auto first = cache.Query(*index_, q, 8);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  // Exact repeat: hit with identical seeds.
  auto second = cache.Query(*index_, q, 8);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second.ValueOrDie().seeds, first.ValueOrDie().seeds);

  // Within the quantization cell (default 0.01): also a hit.
  const auto near_q =
      simplex::TopicDistribution::Create({0.401, 0.299, 0.2, 0.1})
          .ValueOrDie();
  auto third = cache.Query(*index_, near_q, 8);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(cache.hits(), 2u);

  // Clearly different mixture: miss.
  const auto far_q =
      simplex::TopicDistribution::Create({0.1, 0.2, 0.3, 0.4}).ValueOrDie();
  auto fourth = cache.Query(*index_, far_q, 8);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(cache.misses(), 2u);

  // Different k: its own entry.
  auto fifth = cache.Query(*index_, q, 5);
  ASSERT_TRUE(fifth.ok());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(fifth.ValueOrDie().seeds.size(), 5u);
}

TEST_F(SegmentQueryTest, QueryCacheEvictsLru) {
  core::QueryCache::Options copts;
  copts.capacity = 2;
  // Strict global LRU order needs a single shard; with striping each shard
  // evicts independently.
  copts.num_shards = 1;
  core::QueryCache cache(copts);
  Rng rng(7);
  const auto a = simplex::TopicDistribution::Create(
                     simplex::SampleUniformSimplex(4, &rng))
                     .ValueOrDie();
  const auto b = simplex::TopicDistribution::Create(
                     simplex::SampleUniformSimplex(4, &rng))
                     .ValueOrDie();
  const auto c = simplex::TopicDistribution::Create(
                     simplex::SampleUniformSimplex(4, &rng))
                     .ValueOrDie();
  ASSERT_TRUE(cache.Query(*index_, a, 5).ok());
  ASSERT_TRUE(cache.Query(*index_, b, 5).ok());
  ASSERT_TRUE(cache.Query(*index_, c, 5).ok());  // evicts `a`
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Query(*index_, a, 5).ok());
  EXPECT_EQ(cache.hits(), 0u);  // `a` had been evicted
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// --------------------------------------------------- automatic index size ---

TEST(SuggestIndexPointCountTest, MoreDemandingTargetsNeedMorePoints) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 100;
  dopts.num_topics = 5;
  dopts.num_items = 200;
  dopts.seed = 131;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());

  core::IndexSizeCriterion loose;
  loose.target_divergence = 1.0;
  loose.validation_samples = 400;
  core::IndexSizeCriterion tight = loose;
  tight.target_divergence = 0.2;
  auto h_loose = core::SuggestIndexPointCount(ds.ValueOrDie().catalog, loose);
  auto h_tight = core::SuggestIndexPointCount(ds.ValueOrDie().catalog, tight);
  ASSERT_TRUE(h_loose.ok()) << h_loose.status().ToString();
  ASSERT_TRUE(h_tight.ok());
  EXPECT_GE(h_tight.ValueOrDie(), h_loose.ValueOrDie());
  EXPECT_GE(h_loose.ValueOrDie(), loose.min_points);
  EXPECT_LE(h_tight.ValueOrDie(), tight.max_points);
}

TEST(SuggestIndexPointCountTest, RespectsBounds) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 100;
  dopts.num_topics = 3;
  dopts.num_items = 100;
  dopts.seed = 137;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  core::IndexSizeCriterion impossible;
  impossible.target_divergence = 1e-9;  // unreachable
  impossible.max_points = 64;
  impossible.validation_samples = 200;
  auto h = core::SuggestIndexPointCount(ds.ValueOrDie().catalog, impossible);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.ValueOrDie(), 64u);
}

TEST(SuggestIndexPointCountTest, RejectsBadInput) {
  EXPECT_FALSE(core::SuggestIndexPointCount({}).ok());
  const auto item = simplex::TopicDistribution::Uniform(3);
  core::IndexSizeCriterion bad;
  bad.quantile = 1.5;
  EXPECT_FALSE(core::SuggestIndexPointCount({item}, bad).ok());
  core::IndexSizeCriterion bad2;
  bad2.min_points = 100;
  bad2.max_points = 10;
  EXPECT_FALSE(core::SuggestIndexPointCount({item}, bad2).ok());
}

}  // namespace
}  // namespace inflex

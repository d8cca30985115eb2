#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "cluster/kmeans.h"
#include "data/synthetic.h"
#include "inflex/index_points.h"
#include "inflex/inflex_index.h"
#include "inflex/weighting.h"
#include "oracle/celfpp_oracle.h"
#include "simplex/divergence.h"
#include "simplex/sampling.h"
#include "util/random.h"

namespace inflex {
namespace core {
namespace {

// --------------------------------------------------------------- weighting ---

std::vector<bbtree::Neighbor> MakeNeighbors(std::vector<double> divergences) {
  std::vector<bbtree::Neighbor> out;
  for (size_t i = 0; i < divergences.size(); ++i) {
    out.push_back({static_cast<uint32_t>(i), divergences[i]});
  }
  return out;
}

TEST(WeightingTest, ExponentialWeightsDecreasing) {
  WeightingOptions opts;
  auto w = ComputeImportanceWeights(MakeNeighbors({0.0, 0.1, 0.5, 2.0}), opts);
  ASSERT_TRUE(w.ok());
  const auto& weights = w.ValueOrDie();
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  for (size_t i = 1; i < weights.size(); ++i) {
    EXPECT_LT(weights[i], weights[i - 1]);
    EXPECT_GT(weights[i], 0.0);
  }
}

TEST(WeightingTest, PaperEq9InUnitIntervalAndMonotone) {
  WeightingOptions opts;
  opts.function = WeightFunction::kPaperEq9;
  opts.kl_max = 5.0;
  auto w = ComputeImportanceWeights(MakeNeighbors({0.0, 1.0, 3.0, 10.0}), opts);
  ASSERT_TRUE(w.ok());
  const auto& weights = w.ValueOrDie();
  EXPECT_NEAR(weights[0], 1.0, 1e-12);  // KL = 0 ⇒ maximal weight
  for (size_t i = 1; i < weights.size(); ++i) {
    EXPECT_LE(weights[i], weights[i - 1]);
    EXPECT_GE(weights[i], 0.0);
    EXPECT_LE(weights[i], 1.0);
  }
  EXPECT_NEAR(weights[3], 0.0, 1e-12);  // clamped at KL_max
}

TEST(WeightingTest, RejectsBadInput) {
  WeightingOptions opts;
  auto unsorted = MakeNeighbors({0.5, 0.1});
  EXPECT_FALSE(ComputeImportanceWeights(unsorted, opts).ok());
  auto negative = MakeNeighbors({-0.1});
  EXPECT_FALSE(ComputeImportanceWeights(negative, opts).ok());
  opts.exponential_scale = 0.0;
  EXPECT_FALSE(ComputeImportanceWeights(MakeNeighbors({0.1}), opts).ok());
}

TEST(SelectNeighborCountTest, EqualWeightsKeepEverything) {
  WeightingOptions opts;
  const std::vector<double> weights(10, 0.7);
  EXPECT_EQ(SelectNeighborCount(weights, opts), 10u);
}

TEST(SelectNeighborCountTest, SharpDropCutsTail) {
  WeightingOptions opts;
  opts.min_neighbors = 2;
  // Three equally strong neighbors then negligible ones: the rule keeps
  // exactly the equal-share head.
  const std::vector<double> weights = {1.0, 1.0, 1.0, 0.001, 0.001, 0.001};
  const size_t t = SelectNeighborCount(weights, opts);
  EXPECT_EQ(t, 3u);
}

TEST(SelectNeighborCountTest, AbsoluteGapRuleCutsOnGradualDecay) {
  WeightingOptions opts;
  opts.min_neighbors = 2;
  opts.selection_rule = SelectionRule::kAbsoluteGap;
  // 5%-steps: the third weight's normalized share is already 0.0175 below
  // the equal share 1/3 — past the paper's 0.005 — so only the first two
  // neighbors survive the (sign-corrected) printed rule.
  const std::vector<double> weights = {1.0, 0.95, 0.9, 0.85};
  EXPECT_EQ(SelectNeighborCount(weights, opts), 2u);
}

TEST(SelectNeighborCountTest, RelativeShareRuleToleratesGradualDecay) {
  WeightingOptions opts;
  opts.min_neighbors = 2;
  // Default rule: every weight pulls at least selection_ratio of an equal
  // share, so the whole gently decaying head is kept.
  const std::vector<double> weights = {1.0, 0.97, 0.94, 0.91, 0.88};
  EXPECT_EQ(SelectNeighborCount(weights, opts), 5u);
}

TEST(SelectNeighborCountTest, RespectsMinNeighbors) {
  WeightingOptions opts;
  opts.min_neighbors = 3;
  const std::vector<double> weights = {1.0, 0.01, 0.01, 0.01, 0.01};
  EXPECT_GE(SelectNeighborCount(weights, opts), 3u);
}

TEST(SelectNeighborCountTest, DisabledSelectionKeepsAll) {
  WeightingOptions opts;
  opts.enable_selection = false;
  const std::vector<double> weights = {1.0, 0.0001};
  EXPECT_EQ(SelectNeighborCount(weights, opts), 2u);
}

// ------------------------------------------------------------ index points ---

TEST(IndexPointsTest, PipelineProducesRequestedCount) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 150;
  dopts.num_topics = 4;
  dopts.num_items = 100;
  dopts.seed = 3;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());

  IndexPointOptions opts;
  opts.num_index_points = 25;
  opts.num_dirichlet_samples = 2000;
  auto sel = SelectIndexPoints(ds.ValueOrDie().catalog, opts);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ(sel.ValueOrDie().points.size(), 25u);
  EXPECT_EQ(sel.ValueOrDie().samples.size(), 2000u * 4u);  // 2000 × Z rows
  EXPECT_EQ(sel.ValueOrDie().dirichlet_alpha.size(), 4u);
  for (const auto& p : sel.ValueOrDie().points) {
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

data::SyntheticDataset SmallDataset() {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 150;
  dopts.num_topics = 4;
  dopts.num_items = 100;
  dopts.seed = 3;
  return data::GenerateSyntheticDataset(dopts).ValueOrDie();
}

// The Dirichlet sample is one row-major n × Z matrix, allocated once at its
// exact size.
TEST(IndexPointsTest, SampleIsOneMatrixOfExactSize) {
  const data::SyntheticDataset ds = SmallDataset();
  IndexPointOptions opts;
  opts.num_index_points = 25;
  opts.num_dirichlet_samples = 2000;
  auto sel = SelectIndexPoints(ds.catalog, opts);
  ASSERT_TRUE(sel.ok());
  const std::vector<double>& samples = sel.ValueOrDie().samples;
  EXPECT_EQ(samples.size(), 2000u * 4u);
  EXPECT_EQ(samples.capacity() * sizeof(double), 2000u * 4u * 8u);
}

// The selection written against one vector per row: the fit reads a copy
// of the catalog, the sample is n Dirichlet::Sample draws, and k-means
// clusters those vectors. The flat pipeline must give its alpha, its
// sample and its points bit for bit.
TEST(IndexPointsTest, MatchesPerVectorReference) {
  const data::SyntheticDataset ds = SmallDataset();
  IndexPointOptions opts;
  opts.num_index_points = 25;
  opts.num_dirichlet_samples = 2000;
  auto sel = SelectIndexPoints(ds.catalog, opts);
  ASSERT_TRUE(sel.ok());
  const IndexPointSelection& got = sel.ValueOrDie();

  std::vector<simplex::TopicVector> raw;
  for (const auto& item : ds.catalog) raw.push_back(item.probs());
  auto fitted = stats::FitDirichletMle(raw);
  ASSERT_TRUE(fitted.ok());
  Rng rng(opts.seed);
  std::vector<simplex::TopicVector> samples;
  for (size_t i = 0; i < opts.num_dirichlet_samples; ++i) {
    samples.push_back(fitted.ValueOrDie().Sample(&rng));
  }
  cluster::KMeansOptions kopts;
  kopts.num_clusters = opts.num_index_points;
  kopts.max_iterations = opts.kmeans_max_iterations;
  kopts.divergence = cluster::BregmanDivergenceKind::kKl;
  kopts.seed = rng.Next();
  auto want = cluster::KMeansPlusPlus(samples, kopts);
  ASSERT_TRUE(want.ok());

  const auto bits = [](const std::vector<double>& v) {
    std::vector<uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<uint64_t>(x));
    return out;
  };
  EXPECT_EQ(bits(got.dirichlet_alpha), bits(fitted.ValueOrDie().alpha()));
  std::vector<double> packed;
  for (const auto& s : samples) packed.insert(packed.end(), s.begin(), s.end());
  EXPECT_EQ(bits(got.samples), bits(packed));
  ASSERT_EQ(got.points.size(), want.ValueOrDie().centroids.size());
  for (size_t c = 0; c < got.points.size(); ++c) {
    EXPECT_EQ(bits(got.points[c]), bits(want.ValueOrDie().centroids[c]))
        << "point " << c;
  }
}

TEST(IndexPointsTest, CentroidsCoverCatalogRegion) {
  // Every catalog item should have a reasonably close index point — the
  // "good coverage" requirement of §3.1.
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 150;
  dopts.num_topics = 4;
  dopts.num_items = 100;
  dopts.seed = 5;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  IndexPointOptions opts;
  opts.num_index_points = 40;
  opts.num_dirichlet_samples = 5000;
  auto sel = SelectIndexPoints(ds.ValueOrDie().catalog, opts);
  ASSERT_TRUE(sel.ok());
  double worst = 0.0;
  for (const auto& item : ds.ValueOrDie().catalog) {
    double best = 1e18;
    for (const auto& p : sel.ValueOrDie().points) {
      best = std::min(best, simplex::KlDivergence(p, item.probs()));
    }
    worst = std::max(worst, best);
  }
  EXPECT_LT(worst, 3.0);
}

TEST(IndexPointsTest, RejectsBadInput) {
  EXPECT_FALSE(SelectIndexPoints({}, {}).ok());
  const auto item = simplex::TopicDistribution::Uniform(3);
  IndexPointOptions zero;
  zero.num_index_points = 0;
  EXPECT_FALSE(SelectIndexPoints({item}, zero).ok());
  IndexPointOptions few_samples;
  few_samples.num_index_points = 100;
  few_samples.num_dirichlet_samples = 10;
  EXPECT_FALSE(SelectIndexPoints({item}, few_samples).ok());
}

// ---------------------------------------------------------------- baselines ---

TEST(BaselinesTest, OfflineTicVsIcDifferOnTopicalItem) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 250;
  dopts.num_topics = 4;
  dopts.num_items = 40;
  dopts.seed = 7;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  const auto& g = ds.ValueOrDie().graph;

  const auto topical =
      simplex::TopicDistribution::Delta(4, 0).SmoothedTowardUniform(0.05);
  oracle::OfflineImOptions opts;
  opts.num_snapshots = 80;
  auto tic_seeds = oracle::OfflineTicSeeds(g, topical, 5, opts);
  auto ic_seeds = oracle::OfflineIcSeeds(g, 5, opts);
  ASSERT_TRUE(tic_seeds.ok());
  ASSERT_TRUE(ic_seeds.ok());
  EXPECT_EQ(tic_seeds.ValueOrDie().seeds.size(), 5u);
  EXPECT_EQ(ic_seeds.ValueOrDie().seeds.size(), 5u);
  // Topic-aware and topic-blind seed sets should differ on topical items.
  EXPECT_NE(tic_seeds.ValueOrDie().seeds, ic_seeds.ValueOrDie().seeds);
}

TEST(BaselinesTest, ValidatesDimensions) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 100;
  dopts.num_topics = 3;
  dopts.num_items = 20;
  dopts.seed = 9;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  const auto wrong_dim = simplex::TopicDistribution::Uniform(5);
  EXPECT_FALSE(
      oracle::OfflineTicSeeds(ds.ValueOrDie().graph, wrong_dim, 5, {}).ok());
}

// ------------------------------------------------------------- InflexIndex ---

class InflexIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 300;
    dopts.num_topics = 4;
    dopts.num_items = 120;
    dopts.seed = 11;
    auto ds = data::GenerateSyntheticDataset(dopts);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());

    InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 30;
    bopts.index_points.num_dirichlet_samples = 3000;
    bopts.seed_list_length = 10;
    bopts.oracle_snapshots = 40;
    bopts.tree.max_leaf_size = 6;
    auto index = InflexIndex::Build(dataset_->graph, dataset_->catalog, bopts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new InflexIndex(std::move(index).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static data::SyntheticDataset* dataset_;
  static InflexIndex* index_;
};

data::SyntheticDataset* InflexIndexTest::dataset_ = nullptr;
InflexIndex* InflexIndexTest::index_ = nullptr;

TEST_F(InflexIndexTest, BuildProducesExpectedShape) {
  EXPECT_EQ(index_->num_index_points(), 30u);
  EXPECT_EQ(index_->seed_list_length(), 10u);
  EXPECT_EQ(index_->num_topics(), 4u);
  for (uint32_t i = 0; i < index_->num_index_points(); ++i) {
    const auto& list = index_->seed_list(i);
    EXPECT_EQ(list.size(), 10u);
    std::set<rank::Item> unique(list.begin(), list.end());
    EXPECT_EQ(unique.size(), list.size());
    for (rank::Item v : list) EXPECT_LT(v, 300u);
  }
}

// The offline phase pinned bit-for-bit: every index point and seed list of
// the fixture's index (n = 300 users; 3000 samples × 30 clusters puts
// k-means past its parallel threshold). The constant was recorded with the
// bit-plane snapshot sampler, in the default (non-INFLEX_NATIVE) build.
TEST_F(InflexIndexTest, BuildMatchesPinnedDigest) {
#ifdef __FMA__
  GTEST_SKIP() << "digests are pinned for builds without FMA contraction";
#endif
  uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](uint64_t v) {
    digest = (digest ^ v) * 0x100000001b3ULL;
  };
  for (uint32_t i = 0; i < index_->num_index_points(); ++i) {
    for (double x : index_->index_point(i)) fold(std::bit_cast<uint64_t>(x));
    for (rank::Item v : index_->seed_list(i)) fold(v);
  }
  EXPECT_EQ(digest, 0x49e66e90e0b7353dULL) << std::hex << "digest 0x" << digest;
}

TEST_F(InflexIndexTest, QueryReturnsRequestedK) {
  Rng rng(21);
  for (size_t k : {1u, 5u, 10u}) {
    auto q = simplex::TopicDistribution::Create(
                 simplex::SampleUniformSimplex(4, &rng))
                 .ValueOrDie();
    auto r = index_->Query(q, k);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().seeds.size(), k);
    std::set<rank::Item> unique(r.ValueOrDie().seeds.begin(),
                                r.ValueOrDie().seeds.end());
    EXPECT_EQ(unique.size(), k);
    EXPECT_GT(r.ValueOrDie().total_ms, 0.0);
  }
}

TEST_F(InflexIndexTest, KGreaterThanEllIsServedFromTheUnion) {
  Rng rng(23);
  auto q = simplex::TopicDistribution::Create(
               simplex::SampleUniformSimplex(4, &rng))
               .ValueOrDie();
  QueryOptions opts;
  opts.search.epsilon_exact = -1.0;  // force aggregation
  auto r = index_->Query(q, 25, opts);
  ASSERT_TRUE(r.ok());
  // ℓ = 10 but the union of several lists can satisfy k = 25.
  EXPECT_GT(r.ValueOrDie().seeds.size(), 10u);
}

TEST_F(InflexIndexTest, EpsilonExactPathReturnsStoredList) {
  // Query an index point itself.
  const auto q = simplex::TopicDistribution::Create(index_->index_point(3))
                     .ValueOrDie();
  auto r = index_->Query(q, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().epsilon_exact);
  // The matched point may be a duplicate centroid; its seed list must equal
  // the queried point's list.
  EXPECT_EQ(r.ValueOrDie().seeds,
            index_->seed_list(r.ValueOrDie().neighbors_used[0].point_id));
}

TEST_F(InflexIndexTest, AllStrategiesProduceValidAnswers) {
  Rng rng(29);
  auto q = simplex::TopicDistribution::Create(
               simplex::SampleUniformSimplex(4, &rng))
               .ValueOrDie();
  for (QueryStrategy s :
       {QueryStrategy::kInflex, QueryStrategy::kExactKnn,
        QueryStrategy::kApproxKnn, QueryStrategy::kApproxKnnSel,
        QueryStrategy::kApproxAd}) {
    QueryOptions opts;
    opts.strategy = s;
    auto r = index_->Query(q, 8, opts);
    ASSERT_TRUE(r.ok()) << QueryStrategyName(s);
    EXPECT_EQ(r.ValueOrDie().seeds.size(), 8u) << QueryStrategyName(s);
    EXPECT_FALSE(r.ValueOrDie().neighbors_used.empty());
  }
}

TEST_F(InflexIndexTest, ExactKnnUsesExactlyK) {
  Rng rng(31);
  auto q = simplex::TopicDistribution::Create(
               simplex::SampleUniformSimplex(4, &rng))
               .ValueOrDie();
  QueryOptions opts;
  opts.strategy = QueryStrategy::kExactKnn;
  opts.knn_k = 7;
  auto r = index_->Query(q, 5, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().neighbors_used.size(), 7u);
}

TEST_F(InflexIndexTest, SelectionDiscardsOnlyTail) {
  Rng rng(37);
  auto q = simplex::TopicDistribution::Create(
               simplex::SampleUniformSimplex(4, &rng))
               .ValueOrDie();
  QueryOptions opts;
  opts.strategy = QueryStrategy::kInflex;
  auto r = index_->Query(q, 8, opts);
  ASSERT_TRUE(r.ok());
  if (!r.ValueOrDie().epsilon_exact) {
    const auto& used = r.ValueOrDie().neighbors_used;
    for (size_t i = 1; i < used.size(); ++i) {
      EXPECT_LE(used[i - 1].divergence, used[i].divergence);
    }
    EXPECT_EQ(used.size(), r.ValueOrDie().weights.size());
  }
}

TEST_F(InflexIndexTest, SaveLoadPreservesAnswers) {
  const std::string path = testing::TempDir() + "/index_roundtrip.bin";
  ASSERT_TRUE(index_->Save(path).ok());
  bbtree::BbTreeOptions topts;
  topts.max_leaf_size = 6;
  auto loaded = InflexIndex::Load(path, &dataset_->graph, topts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().num_index_points(),
            index_->num_index_points());

  Rng rng(41);
  for (int t = 0; t < 5; ++t) {
    auto q = simplex::TopicDistribution::Create(
                 simplex::SampleUniformSimplex(4, &rng))
                 .ValueOrDie();
    auto a = index_->Query(q, 8);
    auto b = loaded.ValueOrDie().Query(q, 8);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.ValueOrDie().seeds, b.ValueOrDie().seeds) << "trial " << t;
  }
}

// ------------------------------------------- generations (index copies) ---

std::vector<rank::RankedList> AllSeedLists(const InflexIndex& index) {
  std::vector<rank::RankedList> out;
  for (uint32_t i = 0; i < index.num_index_points(); ++i) {
    out.push_back(index.seed_list(i));
  }
  return out;
}

// Answers to a fixed set of queries: random mixtures (aggregation) and the
// first index points themselves (ε-exact).
std::vector<rank::RankedList> FixedAnswers(const InflexIndex& index) {
  std::vector<simplex::TopicVector> queries;
  Rng rng(53);
  for (int t = 0; t < 8; ++t) {
    queries.push_back(simplex::SampleUniformSimplex(4, &rng));
  }
  for (uint32_t i = 0; i < 3; ++i) queries.push_back(index.index_point(i));
  std::vector<rank::RankedList> out;
  for (const auto& q : queries) {
    auto r = index.Query(simplex::TopicDistribution::Create(q).ValueOrDie(), 8);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.push_back(r.ok() ? r.ValueOrDie().seeds : rank::RankedList{});
  }
  return out;
}

std::string SavedBytes(const InflexIndex& index, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(index.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST_F(InflexIndexTest, CloneSharesUnchangedSeedLists) {
  const size_t h = index_->num_index_points();
  const auto lists_before = AllSeedLists(*index_);
  const std::string bytes_before = SavedBytes(*index_, "base_before.bin");

  InflexIndex clone = *index_;
  rank::RankedList added = index_->seed_list(0);
  std::reverse(added.begin(), added.end());
  ASSERT_TRUE(
      clone.AddIndexPoint(simplex::TopicDistribution::Uniform(4), added).ok());

  ASSERT_EQ(clone.num_index_points(), h + 1);
  for (uint32_t i = 0; i < h; ++i) {
    EXPECT_EQ(&clone.seed_list(i), &index_->seed_list(i)) << "list " << i;
  }
  EXPECT_EQ(clone.seed_list(static_cast<uint32_t>(h)), added);
  EXPECT_EQ(index_->num_index_points(), h);
  EXPECT_EQ(AllSeedLists(*index_), lists_before);
  EXPECT_EQ(SavedBytes(*index_, "base_after.bin"), bytes_before);

  // The appended list sits in the clone's own tail. A copy of the clone
  // shares it as well, and an append to that copy (the same item, so it
  // reaches the same leaf) leaves the clone intact.
  const auto uniform = simplex::TopicDistribution::Uniform(4);
  const auto leaf_of_item = [&](const InflexIndex& index) {
    std::vector<std::pair<uint32_t, double>> out;
    for (const auto& n : index.tree().LeafBoundedKnn(uniform.probs(), h + 2,
                                                     /*max_leaves=*/1)) {
      out.emplace_back(n.point_id, n.divergence);
    }
    return out;
  };
  const auto clone_leaf = leaf_of_item(clone);
  const auto clone_lists = AllSeedLists(clone);
  const auto clone_fixed = FixedAnswers(clone);
  InflexIndex grandchild = clone;
  for (uint32_t i = 0; i <= h; ++i) {
    EXPECT_EQ(&grandchild.seed_list(i), &clone.seed_list(i)) << "list " << i;
  }
  ASSERT_TRUE(grandchild.AddIndexPoint(uniform, index_->seed_list(1)).ok());
  EXPECT_EQ(leaf_of_item(grandchild).size(), clone_leaf.size() + 1);
  EXPECT_EQ(leaf_of_item(clone), clone_leaf);
  EXPECT_EQ(clone.num_index_points(), h + 1);
  EXPECT_EQ(AllSeedLists(clone), clone_lists);
  EXPECT_EQ(FixedAnswers(clone), clone_fixed);
}

TEST_F(InflexIndexTest, RemoveOnCloneLeavesBaseIntact) {
  const auto lists_before = AllSeedLists(*index_);
  const auto answers_before = FixedAnswers(*index_);

  InflexIndex clone = *index_;
  std::vector<uint32_t> old_to_new;
  const std::vector<uint32_t> victims = {0, 7, 8, 29};
  ASSERT_TRUE(clone.RemoveIndexPoints(victims, &old_to_new).ok());
  bbtree::BbTreeOptions topts;
  topts.max_leaf_size = 6;
  ASSERT_TRUE(clone.Compact(topts).ok());

  EXPECT_EQ(AllSeedLists(*index_), lists_before);
  EXPECT_EQ(FixedAnswers(*index_), answers_before);
  ASSERT_EQ(clone.num_index_points(),
            index_->num_index_points() - victims.size());
  for (uint32_t old_id = 0; old_id < old_to_new.size(); ++old_id) {
    const uint32_t new_id = old_to_new[old_id];
    if (new_id == kDroppedIndexPoint) continue;
    EXPECT_EQ(clone.index_point(new_id), index_->index_point(old_id));
    EXPECT_EQ(clone.seed_list(new_id), lists_before[old_id]);
    EXPECT_EQ(&clone.seed_list(new_id), &index_->seed_list(old_id));
  }
}

TEST_F(InflexIndexTest, CloneOutlivesBase) {
  bbtree::BbTreeOptions topts;
  topts.max_leaf_size = 6;
  const auto from_fixture = [&] {
    std::vector<simplex::TopicVector> points;
    for (uint32_t i = 0; i < index_->num_index_points(); ++i) {
      points.push_back(index_->index_point(i));
    }
    return InflexIndex::FromParts(&dataset_->graph, std::move(points),
                                  AllSeedLists(*index_), topts)
        .ValueOrDie();
  };
  const auto item =
      simplex::TopicDistribution::Create({0.7, 0.1, 0.1, 0.1}).ValueOrDie();
  const rank::RankedList added = index_->seed_list(5);

  auto base = std::make_unique<InflexIndex>(from_fixture());
  InflexIndex clone = *base;
  ASSERT_TRUE(clone.AddIndexPoint(item, added).ok());
  base.reset();

  InflexIndex fresh = from_fixture();
  ASSERT_TRUE(fresh.AddIndexPoint(item, added).ok());
  EXPECT_EQ(AllSeedLists(clone), AllSeedLists(fresh));
  EXPECT_EQ(FixedAnswers(clone), FixedAnswers(fresh));
}

TEST_F(InflexIndexTest, QueryValidatesInput) {
  auto q = simplex::TopicDistribution::Uniform(4);
  EXPECT_FALSE(index_->Query(q, 0).ok());
  EXPECT_FALSE(index_->Query(simplex::TopicDistribution::Uniform(7), 5).ok());
}

TEST(InflexIndexFromPartsTest, Validation) {
  EXPECT_FALSE(InflexIndex::FromParts(nullptr, {}, {}, {}).ok());
  EXPECT_FALSE(InflexIndex::FromParts(nullptr, {{0.5, 0.5}}, {}, {}).ok());
  EXPECT_FALSE(
      InflexIndex::FromParts(nullptr, {{0.5, 0.5}}, {{}}, {}).ok());
  EXPECT_FALSE(
      InflexIndex::FromParts(nullptr, {{0.5, 0.5}}, {{1, 1}}, {}).ok());
  // Minimal valid index.
  auto idx = InflexIndex::FromParts(nullptr, {{0.5, 0.5}, {0.9, 0.1}},
                                    {{1, 2, 3}, {4, 5, 6}}, {});
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_EQ(idx.ValueOrDie().num_index_points(), 2u);
}

TEST(InflexIndexBuildTest, ValidatesOptions) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 60;
  dopts.num_topics = 3;
  dopts.num_items = 20;
  dopts.seed = 43;
  auto ds = data::GenerateSyntheticDataset(dopts);
  ASSERT_TRUE(ds.ok());
  InflexBuildOptions bad;
  bad.seed_list_length = 0;
  EXPECT_FALSE(
      InflexIndex::Build(ds.ValueOrDie().graph, ds.ValueOrDie().catalog, bad)
          .ok());
  InflexBuildOptions too_long;
  too_long.seed_list_length = 100;  // > 60 nodes
  EXPECT_FALSE(InflexIndex::Build(ds.ValueOrDie().graph,
                                  ds.ValueOrDie().catalog, too_long)
                   .ok());
  EXPECT_FALSE(InflexIndex::Build(ds.ValueOrDie().graph, {}, {}).ok());
}

}  // namespace
}  // namespace core
}  // namespace inflex

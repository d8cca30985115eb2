// End-to-end tests of the full paper pipeline (Figure 1 + Figure 2):
// synthesize data → learn TIC parameters from the log → build INFLEX →
// answer TIM queries → compare against from-scratch offline computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic.h"
#include "data/workload.h"
#include "inflex/inflex_index.h"
#include "im/heuristics.h"
#include "oracle/celfpp_oracle.h"
#include "simplex/sampling.h"
#include "rank/kendall_tau.h"
#include "stats/descriptive.h"
#include "tic/tic_learner.h"
#include "tic/tic_model.h"
#include "util/random.h"

namespace inflex {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static constexpr size_t kUsers = 400;
  static constexpr size_t kTopics = 5;
  static constexpr size_t kItems = 150;
  static constexpr size_t kEll = 10;

  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = kUsers;
    dopts.num_topics = kTopics;
    dopts.num_items = kItems;
    dopts.seed = 71;
    log_ = new tic::PropagationLog(1, 1);
    auto ds = data::GenerateSyntheticDataset(dopts, log_);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());

    core::InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 40;
    bopts.index_points.num_dirichlet_samples = 4000;
    bopts.seed_list_length = kEll;
    bopts.oracle_snapshots = 60;
    bopts.tree.max_leaf_size = 8;
    auto index =
        core::InflexIndex::Build(dataset_->graph, dataset_->catalog, bopts);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new core::InflexIndex(std::move(index).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    delete log_;
    index_ = nullptr;
    dataset_ = nullptr;
    log_ = nullptr;
  }

  static data::SyntheticDataset* dataset_;
  static tic::PropagationLog* log_;
  static core::InflexIndex* index_;
};

data::SyntheticDataset* EndToEndTest::dataset_ = nullptr;
tic::PropagationLog* EndToEndTest::log_ = nullptr;
core::InflexIndex* EndToEndTest::index_ = nullptr;

TEST_F(EndToEndTest, InflexApproximatesOfflineTicSeeds) {
  // INFLEX's answer should be much closer to the offline ground truth than
  // an unrelated (random) list — the paper's headline accuracy claim,
  // asserted with loose thresholds appropriate for the small test scale.
  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = 6;
  wopts.num_uniform = 0;
  wopts.seed = 77;
  auto workload = data::GenerateQueryWorkload(dataset_->catalog, wopts);
  ASSERT_TRUE(workload.ok());

  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = 60;
  Rng rng(79);
  std::vector<double> inflex_dist, random_dist;
  for (const auto& q : workload.ValueOrDie().queries) {
    auto truth = oracle::OfflineTicSeeds(dataset_->graph, q, kEll, oopts);
    ASSERT_TRUE(truth.ok());
    rank::RankedList truth_list(truth.ValueOrDie().seeds.begin(),
                                truth.ValueOrDie().seeds.end());

    auto answer = index_->Query(q, kEll);
    ASSERT_TRUE(answer.ok());
    rank::RankedList inflex_list = answer.ValueOrDie().seeds;
    ASSERT_EQ(inflex_list.size(), kEll);

    auto random_seeds = im::SelectSeedsRandom(kUsers, kEll, &rng);
    ASSERT_TRUE(random_seeds.ok());
    rank::RankedList random_list(random_seeds.ValueOrDie().begin(),
                                 random_seeds.ValueOrDie().end());

    inflex_dist.push_back(
        rank::KendallTauTopL(inflex_list, truth_list).ValueOrDie());
    random_dist.push_back(
        rank::KendallTauTopL(random_list, truth_list).ValueOrDie());
  }
  const double inflex_avg = stats::Mean(inflex_dist);
  const double random_avg = stats::Mean(random_dist);
  EXPECT_LT(inflex_avg, random_avg);
  EXPECT_LT(inflex_avg, 0.75);
  EXPECT_GT(random_avg, 0.9);  // random lists share almost nothing
}

TEST_F(EndToEndTest, InflexSpreadNearOfflineAndAboveRandom) {
  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = 5;
  wopts.num_uniform = 0;
  wopts.seed = 83;
  auto workload = data::GenerateQueryWorkload(dataset_->catalog, wopts);
  ASSERT_TRUE(workload.ok());

  tic::TicModel model(&dataset_->graph);
  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = 60;
  im::MonteCarloOptions mc;
  mc.num_simulations = 2000;

  Rng rng(89);
  double inflex_total = 0.0, offline_total = 0.0, random_total = 0.0;
  for (const auto& q : workload.ValueOrDie().queries) {
    auto truth = oracle::OfflineTicSeeds(dataset_->graph, q, kEll, oopts);
    ASSERT_TRUE(truth.ok());
    auto answer = index_->Query(q, kEll);
    ASSERT_TRUE(answer.ok());
    auto random_seeds = im::SelectSeedsRandom(kUsers, kEll, &rng);
    ASSERT_TRUE(random_seeds.ok());

    offline_total +=
        model.EstimateSpread(q, truth.ValueOrDie().seeds, mc)
            .ValueOrDie()
            .mean;
    std::vector<graph::NodeId> inflex_seeds(answer.ValueOrDie().seeds.begin(),
                                            answer.ValueOrDie().seeds.end());
    inflex_total += model.EstimateSpread(q, inflex_seeds, mc).ValueOrDie().mean;
    random_total +=
        model.EstimateSpread(q, random_seeds.ValueOrDie(), mc)
            .ValueOrDie()
            .mean;
  }
  // INFLEX ≈ offline (within 15% at this tiny scale) and ≫ random.
  EXPECT_GT(inflex_total, 0.85 * offline_total);
  EXPECT_GT(inflex_total, 1.5 * random_total);
}

TEST_F(EndToEndTest, TopicBlindSeedsUnderperformOnTopicalItems) {
  // The motivation experiment: on a strongly topical item, seeds chosen
  // topic-blind (uniform mixture) spread far less than topic-aware seeds.
  const auto item = simplex::TopicDistribution::Delta(kTopics, 1)
                        .SmoothedTowardUniform(0.05);
  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = 80;
  auto tic_seeds = oracle::OfflineTicSeeds(dataset_->graph, item, kEll, oopts);
  auto ic_seeds = oracle::OfflineIcSeeds(dataset_->graph, kEll, oopts);
  ASSERT_TRUE(tic_seeds.ok());
  ASSERT_TRUE(ic_seeds.ok());

  tic::TicModel model(&dataset_->graph);
  im::MonteCarloOptions mc;
  mc.num_simulations = 4000;
  const double tic_spread =
      model.EstimateSpread(item, tic_seeds.ValueOrDie().seeds, mc)
          .ValueOrDie()
          .mean;
  const double ic_spread =
      model.EstimateSpread(item, ic_seeds.ValueOrDie().seeds, mc)
          .ValueOrDie()
          .mean;
  EXPECT_GT(tic_spread, ic_spread);
}

TEST_F(EndToEndTest, LearnedParametersSupportTheFullPipeline) {
  // Learn TIC parameters from the log, install them into a copy of the
  // graph, rebuild an index on the learned model, and answer a query — the
  // complete Figure 1 flow with no ground-truth leakage.
  tic::TicLearnerOptions lopts;
  lopts.num_topics = kTopics;
  lopts.max_iterations = 10;
  auto learned = tic::LearnTicParameters(dataset_->graph, *log_, lopts);
  ASSERT_TRUE(learned.ok());

  graph::TopicGraph learned_graph = dataset_->graph;
  ASSERT_TRUE(learned_graph
                  .SetArcTopicProbabilities(learned.ValueOrDie().arc_topic_probs)
                  .ok());

  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = 15;
  bopts.index_points.num_dirichlet_samples = 1500;
  bopts.seed_list_length = 8;
  bopts.oracle_snapshots = 30;
  auto index = core::InflexIndex::Build(
      learned_graph, learned.ValueOrDie().item_topics, bopts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  auto q = simplex::TopicDistribution::Uniform(kTopics);
  auto r = index.ValueOrDie().Query(q, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().seeds.size(), 8u);
}

TEST_F(EndToEndTest, QueryLatencyIsInteractive) {
  // The entire point of INFLEX: answers in milliseconds. Allow a generous
  // bound to stay robust on loaded CI machines.
  Rng rng(97);
  auto q = simplex::TopicDistribution::Create(
               simplex::SampleUniformSimplex(kTopics, &rng))
               .ValueOrDie();
  auto r = index_->Query(q, kEll);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.ValueOrDie().total_ms, 250.0);
}

}  // namespace
}  // namespace inflex

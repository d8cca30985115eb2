#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "graph/topic_graph.h"
#include "simplex/divergence.h"
#include "tic/propagation_log.h"
#include "tic/tic_learner.h"
#include "tic/tic_model.h"
#include "util/random.h"

namespace inflex {
namespace tic {
namespace {

using graph::NodeId;
using graph::TopicGraph;
using graph::TopicGraphBuilder;

// ---------------------------------------------------------- PropagationLog ---

TEST(PropagationLogTest, AddValidatesInput) {
  PropagationLog log(10, 5);
  EXPECT_TRUE(log.Add(0, 0, 1.0).ok());
  EXPECT_EQ(log.Add(10, 0, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.Add(0, 5, 1.0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(log.Add(0, 0, NAN).code(), StatusCode::kInvalidArgument);
}

TEST(PropagationLogTest, FinalizeSortsAndDeduplicates) {
  PropagationLog log(10, 2);
  ASSERT_TRUE(log.Add(3, 0, 5.0).ok());
  ASSERT_TRUE(log.Add(1, 0, 2.0).ok());
  ASSERT_TRUE(log.Add(3, 0, 1.0).ok());  // earlier duplicate wins
  ASSERT_TRUE(log.Add(2, 1, 9.0).ok());
  ASSERT_TRUE(log.Finalize().ok());
  const auto acts = log.ItemActivations(0);
  ASSERT_EQ(acts.size(), 2u);
  EXPECT_EQ(acts[0].user, 3u);
  EXPECT_DOUBLE_EQ(acts[0].timestamp, 1.0);
  EXPECT_EQ(acts[1].user, 1u);
  EXPECT_EQ(log.ItemActivations(1).size(), 1u);
  EXPECT_EQ(log.num_active_items(), 2u);
  EXPECT_EQ(log.size(), 3u);
}

// Reference for Finalize: each (item, user) keeps its earliest timestamp,
// and an item's records are ordered by (timestamp, user).
std::vector<std::vector<Activation>> ReferenceDedup(
    const std::vector<Activation>& records, size_t num_items) {
  std::map<std::pair<ItemId, NodeId>, double> earliest;
  for (const Activation& a : records) {
    auto [it, inserted] = earliest.try_emplace({a.item, a.user}, a.timestamp);
    if (!inserted) it->second = std::min(it->second, a.timestamp);
  }
  std::vector<std::vector<Activation>> by_item(num_items);
  for (const auto& [key, t] : earliest) {
    by_item[key.first].push_back(Activation{key.second, key.first, t});
  }
  for (auto& acts : by_item) {
    std::sort(acts.begin(), acts.end(),
              [](const Activation& a, const Activation& b) {
                if (a.timestamp != b.timestamp) {
                  return a.timestamp < b.timestamp;
                }
                return a.user < b.user;
              });
  }
  return by_item;
}

void ExpectMatchesReference(const PropagationLog& log,
                            const std::vector<Activation>& records) {
  const auto want = ReferenceDedup(records, log.num_items());
  size_t total = 0;
  size_t active = 0;
  for (ItemId i = 0; i < log.num_items(); ++i) {
    const auto got = log.ItemActivations(i);
    ASSERT_EQ(got.size(), want[i].size()) << "item " << i;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].user, want[i][j].user) << "item " << i << " #" << j;
      EXPECT_EQ(got[j].item, i);
      EXPECT_EQ(got[j].timestamp, want[i][j].timestamp)
          << "item " << i << " #" << j;
    }
    total += want[i].size();
    if (!want[i].empty()) ++active;
  }
  EXPECT_EQ(log.size(), total);
  EXPECT_EQ(log.num_active_items(), active);
}

// Finalize compacts in place. Item 0 carries many repeats, so by the time
// items 2 and 3 are read the write cursor is well behind the read cursor and
// their kept records move down across item boundaries; item 1 is empty.
// Repeated users arrive with their earlier timestamp later in input order.
TEST(PropagationLogTest, FinalizeCompactsInPlaceAcrossItems) {
  std::vector<Activation> records;
  for (int rep = 0; rep < 5; ++rep) {
    for (NodeId u = 0; u < 4; ++u) {
      records.push_back({u, 0, 10.0 - rep + 0.1 * u});
    }
  }
  records.push_back({7, 2, 8.0});
  records.push_back({5, 2, 3.0});
  records.push_back({7, 2, 2.0});  // user 7's earliest comes later
  records.push_back({5, 2, 3.0});  // exact repeat
  records.push_back({6, 2, 3.0});  // ties with user 5 on time
  records.push_back({1, 3, 4.0});
  records.push_back({1, 3, 1.0});
  records.push_back({0, 3, 4.0});
  PropagationLog log(8, 4);
  for (const Activation& a : records) {
    ASSERT_TRUE(log.Add(a.user, a.item, a.timestamp).ok());
  }
  ASSERT_TRUE(log.Finalize().ok());
  ExpectMatchesReference(log, records);
  EXPECT_EQ(log.ItemActivations(0).size(), 4u);
  EXPECT_TRUE(log.ItemActivations(1).empty());
  const auto item2 = log.ItemActivations(2);
  ASSERT_EQ(item2.size(), 3u);
  EXPECT_EQ(item2[0].user, 7u);
  EXPECT_EQ(item2[0].timestamp, 2.0);
  EXPECT_EQ(item2[1].user, 5u);
  EXPECT_EQ(item2[2].user, 6u);
  const auto item3 = log.ItemActivations(3);
  ASSERT_EQ(item3.size(), 2u);
  EXPECT_EQ(item3[0].user, 1u);
  EXPECT_EQ(item3[0].timestamp, 1.0);
  EXPECT_EQ(item3[1].user, 0u);
}

TEST(PropagationLogTest, FinalizeMatchesReferenceOnRandomLogs) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t users = 3 + rng.UniformInt(20);
    const size_t items = 1 + rng.UniformInt(8);
    const size_t count = rng.UniformInt(300);
    std::vector<Activation> records;
    for (size_t r = 0; r < count; ++r) {
      // Few distinct timestamps, so ties on time and exact repeats occur.
      records.push_back({static_cast<NodeId>(rng.UniformInt(users)),
                         static_cast<ItemId>(rng.UniformInt(items)),
                         static_cast<double>(rng.UniformInt(10))});
    }
    PropagationLog log(users, items);
    for (const Activation& a : records) {
      ASSERT_TRUE(log.Add(a.user, a.item, a.timestamp).ok());
    }
    ASSERT_TRUE(log.Finalize().ok());
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectMatchesReference(log, records);
  }
}

TEST(PropagationLogTest, DoubleFinalizeAndPostAddFail) {
  PropagationLog log(5, 2);
  ASSERT_TRUE(log.Add(0, 0, 1.0).ok());
  ASSERT_TRUE(log.Finalize().ok());
  EXPECT_FALSE(log.Finalize().ok());
  EXPECT_FALSE(log.Add(1, 0, 2.0).ok());
}

TEST(PropagationLogTest, SaveLoadRoundTrip) {
  PropagationLog log(20, 3);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(log.Add(i % 20, i % 3, static_cast<double>(i)).ok());
  }
  ASSERT_TRUE(log.Finalize().ok());
  const std::string path = testing::TempDir() + "/log_roundtrip.bin";
  ASSERT_TRUE(log.Save(path).ok());
  auto loaded = PropagationLog::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().size(), log.size());
  EXPECT_EQ(loaded.ValueOrDie().num_users(), 20u);
  EXPECT_EQ(loaded.ValueOrDie().num_items(), 3u);
  for (ItemId i = 0; i < 3; ++i) {
    const auto a = log.ItemActivations(i);
    const auto b = loaded.ValueOrDie().ItemActivations(i);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].user, b[j].user);
      EXPECT_DOUBLE_EQ(a[j].timestamp, b[j].timestamp);
    }
  }
}

TEST(PropagationLogTest, SaveUnfinalizedFails) {
  PropagationLog log(5, 2);
  EXPECT_FALSE(log.Save(testing::TempDir() + "/never.bin").ok());
}

// ---------------------------------------------------------------- TicModel ---

TEST(TicModelTest, SpreadMatchesDirectEstimate) {
  TopicGraphBuilder b(3, 2);
  ASSERT_TRUE(b.AddArc(0, 1, {0.8, 0.2}).ok());
  ASSERT_TRUE(b.AddArc(1, 2, {0.5, 0.5}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  TicModel model(&g);
  const auto item = simplex::TopicDistribution::Create({1.0, 0.0}).ValueOrDie();
  im::MonteCarloOptions mc;
  mc.num_simulations = 100000;
  const std::vector<NodeId> seeds = {0};
  auto spread = model.EstimateSpread(item, seeds, mc);
  ASSERT_TRUE(spread.ok());
  // Closed form: 1 + 0.8 + 0.8·0.5.
  EXPECT_NEAR(spread.ValueOrDie().mean, 2.2, 0.02);
}

// -------------------------------------------------------------- TicLearner ---

TEST(TicLearnerTest, ValidatesInput) {
  TopicGraphBuilder b(4, 2);
  ASSERT_TRUE(b.AddArc(0, 1, {0.5, 0.5}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  PropagationLog unfinalized(4, 2);
  TicLearnerOptions opts;
  opts.num_topics = 2;
  EXPECT_FALSE(LearnTicParameters(g, unfinalized, opts).ok());

  PropagationLog wrong_users(5, 2);
  ASSERT_TRUE(wrong_users.Finalize().ok());
  EXPECT_FALSE(LearnTicParameters(g, wrong_users, opts).ok());

  PropagationLog ok_log(4, 2);
  ASSERT_TRUE(ok_log.Finalize().ok());
  TicLearnerOptions bad_p = opts;
  bad_p.p_min = 0.5;
  bad_p.p_max = 0.1;
  EXPECT_FALSE(LearnTicParameters(g, ok_log, bad_p).ok());
}

TEST(TicLearnerTest, OutputShapesAndRanges) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 150;
  dopts.num_topics = 3;
  dopts.num_items = 60;
  dopts.seed = 5;
  PropagationLog log(1, 1);
  auto ds = data::GenerateSyntheticDataset(dopts, &log);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  TicLearnerOptions opts;
  opts.num_topics = 3;
  opts.max_iterations = 8;
  auto learned = LearnTicParameters(ds.ValueOrDie().graph, log, opts);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  const auto& r = learned.ValueOrDie();
  EXPECT_EQ(r.item_topics.size(), 60u);
  EXPECT_EQ(r.arc_topic_probs.size(),
            ds.ValueOrDie().graph.num_arcs() * 3);
  for (double p : r.arc_topic_probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  for (const auto& gamma : r.item_topics) {
    double sum = 0.0;
    for (double v : gamma.probs()) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // The learned table must be installable back into the graph.
  graph::TopicGraph g = ds.ValueOrDie().graph;
  EXPECT_TRUE(g.SetArcTopicProbabilities(r.arc_topic_probs).ok());
}

TEST(TicLearnerTest, LikelihoodImprovesOverIterations) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 200;
  dopts.num_topics = 4;
  dopts.num_items = 80;
  dopts.seed = 9;
  PropagationLog log(1, 1);
  auto ds = data::GenerateSyntheticDataset(dopts, &log);
  ASSERT_TRUE(ds.ok());

  TicLearnerOptions opts;
  opts.num_topics = 4;
  opts.max_iterations = 12;
  opts.tolerance = 0.0;  // run all sweeps
  auto learned = LearnTicParameters(ds.ValueOrDie().graph, log, opts);
  ASSERT_TRUE(learned.ok());
  const auto& ll = learned.ValueOrDie().log_likelihood;
  ASSERT_GE(ll.size(), 3u);
  // EM guarantees monotone expected likelihood; allow tiny numerical slack.
  EXPECT_GT(ll.back(), ll.front());
  for (size_t i = 2; i < ll.size(); ++i) {
    EXPECT_GE(ll[i], ll[i - 1] - std::fabs(ll[i - 1]) * 1e-6) << i;
  }
}

TEST(TicLearnerTest, RandomInitializationPathWorks) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 150;
  dopts.num_topics = 3;
  dopts.num_items = 50;
  dopts.seed = 21;
  PropagationLog log(1, 1);
  auto ds = data::GenerateSyntheticDataset(dopts, &log);
  ASSERT_TRUE(ds.ok());
  TicLearnerOptions opts;
  opts.num_topics = 3;
  opts.max_iterations = 5;
  opts.cluster_initialization = false;  // the pure random-restart variant
  opts.gamma_freeze_iterations = 0;
  auto learned = LearnTicParameters(ds.ValueOrDie().graph, log, opts);
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  EXPECT_EQ(learned.ValueOrDie().item_topics.size(), 50u);
}

TEST(TicLearnerTest, ClusterInitImprovesTopicRecovery) {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 300;
  dopts.num_topics = 3;
  dopts.num_items = 150;
  dopts.cascades_per_item = 5;
  dopts.seeds_per_cascade = 5;
  dopts.strong_prob_lo = 0.15;
  dopts.strong_prob_hi = 0.4;
  dopts.generalist_fraction = 0.0;
  dopts.seed = 23;
  PropagationLog log(1, 1);
  auto ds_r = data::GenerateSyntheticDataset(dopts, &log);
  ASSERT_TRUE(ds_r.ok());
  const auto& ds = ds_r.ValueOrDie();

  auto primary = [](const simplex::TopicDistribution& td) {
    const auto& p = td.probs();
    return std::max_element(p.begin(), p.end()) - p.begin();
  };
  // Best-permutation primary-topic agreement for a learned catalog.
  auto accuracy = [&](const std::vector<simplex::TopicDistribution>& learned) {
    size_t best = 0;
    std::vector<size_t> perm = {0, 1, 2};
    std::sort(perm.begin(), perm.end());
    do {
      size_t correct = 0;
      for (size_t i = 0; i < learned.size(); ++i) {
        if (perm[primary(learned[i])] ==
            static_cast<size_t>(primary(ds.catalog[i]))) {
          ++correct;
        }
      }
      best = std::max(best, correct);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return static_cast<double>(best) / static_cast<double>(learned.size());
  };

  TicLearnerOptions with_init;
  with_init.num_topics = 3;
  with_init.max_iterations = 15;
  TicLearnerOptions without_init = with_init;
  without_init.cluster_initialization = false;
  without_init.gamma_freeze_iterations = 0;
  auto a = LearnTicParameters(ds.graph, log, with_init);
  auto b = LearnTicParameters(ds.graph, log, without_init);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const double acc_with = accuracy(a.ValueOrDie().item_topics);
  const double acc_without = accuracy(b.ValueOrDie().item_topics);
  // The clustering initialization should help (or at worst tie) and must be
  // clearly above the 1/3 chance level on this clean dataset.
  EXPECT_GE(acc_with + 0.05, acc_without);
  EXPECT_GT(acc_with, 0.5);
}

TEST(TicLearnerTest, RecoversTopicStructure) {
  // With a strongly topic-structured dataset, items whose ground-truth
  // primary topics agree should end up closer (in learned-γ KL) than items
  // with different primary topics.
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 300;
  dopts.num_topics = 3;
  dopts.num_items = 120;
  dopts.cascades_per_item = 5;
  dopts.seeds_per_cascade = 5;
  // Strong, clean topical signal so 20 EM sweeps suffice.
  dopts.strong_prob_lo = 0.15;
  dopts.strong_prob_hi = 0.4;
  dopts.generalist_fraction = 0.0;
  dopts.seed = 17;
  PropagationLog log(1, 1);
  auto ds_r = data::GenerateSyntheticDataset(dopts, &log);
  ASSERT_TRUE(ds_r.ok());
  const auto& ds = ds_r.ValueOrDie();

  TicLearnerOptions opts;
  opts.num_topics = 3;
  opts.max_iterations = 20;
  opts.seed = 3;
  auto learned = LearnTicParameters(ds.graph, log, opts);
  ASSERT_TRUE(learned.ok());
  const auto& gammas = learned.ValueOrDie().item_topics;

  auto primary = [](const simplex::TopicDistribution& td) {
    const auto& p = td.probs();
    return std::max_element(p.begin(), p.end()) - p.begin();
  };
  double same_sum = 0.0, diff_sum = 0.0;
  size_t same_n = 0, diff_n = 0;
  for (size_t i = 0; i < gammas.size(); ++i) {
    for (size_t j = i + 1; j < gammas.size(); j += 7) {
      const double d =
          simplex::SymmetrizedKl(gammas[i].probs(), gammas[j].probs());
      if (primary(ds.catalog[i]) == primary(ds.catalog[j])) {
        same_sum += d;
        ++same_n;
      } else {
        diff_sum += d;
        ++diff_n;
      }
    }
  }
  ASSERT_GT(same_n, 10u);
  ASSERT_GT(diff_n, 10u);
  EXPECT_LT(same_sum / same_n, diff_sum / diff_n);
}

}  // namespace
}  // namespace tic
}  // namespace inflex

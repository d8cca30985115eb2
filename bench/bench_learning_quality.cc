// TIC parameter learning quality — the prerequisite stage of Figure 1.
// The paper delegates this to Barbieri et al. (ICDM 2012); since our data
// substrate knows the ground-truth parameters, we can quantify how well the
// EM learner recovers them from the simulated propagation log, and — the
// measure that matters for INFLEX — how much spread is lost when seeds are
// chosen on the LEARNED model but the world follows the TRUE one.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/evaluation.h"
#include "common/testbed.h"
#include "oracle/celfpp_oracle.h"
#include "stats/descriptive.h"
#include "tic/tic_learner.h"
#include "tic/tic_model.h"
#include "util/timer.h"

using namespace inflex;             // NOLINT
using namespace inflex::benchsupport;  // NOLINT

namespace {

// Learned topics are identifiable only up to a permutation: match them to
// ground truth greedily on the item-primary-topic confusion matrix.
std::vector<size_t> MatchTopics(const std::vector<std::vector<size_t>>& conf) {
  const size_t z = conf.size();
  std::vector<size_t> mapping(z, z);
  std::vector<char> used(z, 0);
  for (size_t step = 0; step < z; ++step) {
    size_t best_l = 0, best_t = 0, best = 0;
    for (size_t l = 0; l < z; ++l) {
      if (mapping[l] != z) continue;
      for (size_t t = 0; t < z; ++t) {
        if (used[t]) continue;
        if (conf[l][t] >= best) {
          best = conf[l][t];
          best_l = l;
          best_t = t;
        }
      }
    }
    mapping[best_l] = best_t;
    used[best_t] = 1;
  }
  return mapping;
}

size_t Primary(const simplex::TopicVector& p) {
  return std::max_element(p.begin(), p.end()) - p.begin();
}

}  // namespace

int main() {
  auto tb_r = GetTestbed();
  if (!tb_r.ok()) {
    std::fprintf(stderr, "testbed: %s\n", tb_r.status().ToString().c_str());
    return 1;
  }
  const Testbed& tb = *tb_r.ValueOrDie();
  auto log_r = LoadTestbedLog();
  if (!log_r.ok()) {
    std::fprintf(stderr, "testbed log: %s\n",
                 log_r.status().ToString().c_str());
    return 1;
  }
  const tic::PropagationLog& log = log_r.ValueOrDie();
  PrintBanner("Learning quality — TIC EM vs ground truth (the Figure 1 "
              "prerequisite)", tb);

  tic::TicLearnerOptions lopts;
  lopts.num_topics = tb.graph().num_topics();
  lopts.max_iterations = 25;
  Timer t;
  auto learned_r =
      tic::LearnTicParameters(tb.graph(), log, lopts);
  if (!learned_r.ok()) {
    std::fprintf(stderr, "%s\n", learned_r.status().ToString().c_str());
    return 1;
  }
  const auto& learned = learned_r.ValueOrDie();
  std::printf("\nEM: %d sweeps in %.1f s over %zu log records\n",
              learned.iterations, t.ElapsedSeconds(), log.size());

  const size_t z = tb.graph().num_topics();

  // --- Topic recovery (items). --------------------------------------------
  std::vector<std::vector<size_t>> confusion(z, std::vector<size_t>(z, 0));
  for (size_t i = 0; i < tb.dataset->catalog.size(); ++i) {
    confusion[Primary(learned.item_topics[i].probs())]
             [Primary(tb.dataset->catalog[i].probs())]++;
  }
  const std::vector<size_t> mapping = MatchTopics(confusion);
  size_t correct = 0;
  for (size_t i = 0; i < tb.dataset->catalog.size(); ++i) {
    if (mapping[Primary(learned.item_topics[i].probs())] ==
        Primary(tb.dataset->catalog[i].probs())) {
      ++correct;
    }
  }
  std::printf("item primary-topic accuracy (after permutation matching): "
              "%.1f%% over %zu items (chance: %.1f%%)\n",
              100.0 * correct / tb.dataset->catalog.size(),
              tb.dataset->catalog.size(), 100.0 / static_cast<double>(z));

  // --- Arc-probability recovery. ------------------------------------------
  std::vector<double> truth_p, learned_p;
  for (graph::ArcId a = 0; a < tb.graph().num_arcs(); a += 7) {
    for (size_t lz = 0; lz < z; ++lz) {
      learned_p.push_back(
          learned.arc_topic_probs[static_cast<size_t>(a) * z + lz]);
      truth_p.push_back(tb.graph().ArcTopicProb(a, mapping[lz]));
    }
  }
  auto corr = stats::PearsonCorrelation(learned_p, truth_p);
  std::printf("arc-probability correlation (learned vs truth, matched "
              "topics): %.3f over %zu samples\n",
              corr.ok() ? corr.ValueOrDie() : 0.0, truth_p.size());

  // --- Downstream fidelity: seeds from the learned model on the true one. --
  graph::TopicGraph learned_graph = tb.graph();
  if (auto st = learned_graph.SetArcTopicProbabilities(learned.arc_topic_probs);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = tb.config.oracle_snapshots;
  tic::TicModel true_model(&tb.graph());
  im::MonteCarloOptions mc;
  mc.num_simulations = tb.config.spread_mc_simulations;
  mc.parallel = false;

  TablePrinter table({"topic", "true-model seeds", "learned-model seeds",
                      "retained %"});
  std::vector<double> retained;
  for (size_t topic = 0; topic < z; topic += 2) {
    // Pick a real catalog item that is strongly topical in the TRUE space;
    // the learned-model run is then queried with that item's LEARNED
    // description — exactly how a production system (which never sees the
    // true space) would operate. This sidesteps the topic-permutation
    // ambiguity entirely.
    size_t item_id = tb.dataset->catalog.size();
    double best_mass = 0.0;
    for (size_t i = 0; i < tb.dataset->catalog.size(); ++i) {
      const double mass = tb.dataset->catalog[i][topic];
      if (Primary(tb.dataset->catalog[i].probs()) == topic &&
          mass > best_mass) {
        best_mass = mass;
        item_id = i;
      }
    }
    if (item_id == tb.dataset->catalog.size()) continue;
    const auto& true_item = tb.dataset->catalog[item_id];
    const auto& learned_item = learned.item_topics[item_id];
    auto seeds_true = oracle::OfflineTicSeeds(tb.graph(), true_item, 20, oopts);
    auto seeds_learned =
        oracle::OfflineTicSeeds(learned_graph, learned_item, 20, oopts);
    if (!seeds_true.ok() || !seeds_learned.ok()) continue;
    const double s_true =
        true_model.EstimateSpread(true_item, seeds_true.ValueOrDie().seeds, mc)
            .ValueOrDie()
            .mean;
    const double s_learned =
        true_model
            .EstimateSpread(true_item, seeds_learned.ValueOrDie().seeds, mc)
            .ValueOrDie()
            .mean;
    retained.push_back(100.0 * s_learned / s_true);
    table.AddRow({std::to_string(topic), TablePrinter::Fmt(s_true, 1),
                  TablePrinter::Fmt(s_learned, 1),
                  TablePrinter::Fmt(retained.back(), 1)});
  }
  std::printf("\nspread on the TRUE model of k=20 seeds chosen on each "
              "model (per topical item):\n");
  table.Print();
  if (!retained.empty()) {
    std::printf("\naverage retained spread: %.1f%% of what perfect-parameter "
                "seeding achieves.\n",
                stats::Mean(retained));
  }
  std::printf("\nContext: TIC learning from sparse logs is genuinely hard "
              "(Barbieri et al. train on millions of Flixster ratings; this "
              "test-bed has %zu records). Topic recovery well above chance "
              "plus substantially-better-than-random downstream seeding is "
              "the expected regime here; the rest of the benchmark suite "
              "uses ground-truth parameters, as the paper uses its "
              "separately-learned ones.\n",
              log.size());
  return 0;
}

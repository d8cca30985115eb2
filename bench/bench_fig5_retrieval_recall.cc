// Figure 5 + the early-stopping analysis of §5: recall of the top-K true
// nearest neighbors under leaf-bounded search for a growing leaf budget,
// and the Anderson-Darling early-stopping criterion's recall / KL-evaluation
// trade-off (the paper reports ~80% recall within 5 leaves, AD recall
// 0.61-0.63 at roughly half the KL evaluations, ~3.65 leaves on average).
#include <algorithm>
#include <cstdio>
#include <set>

#include "common/evaluation.h"
#include "common/testbed.h"
#include "stats/descriptive.h"

using namespace inflex;             // NOLINT
using namespace inflex::benchsupport;  // NOLINT

int main() {
  auto tb_r = GetTestbed();
  if (!tb_r.ok()) {
    std::fprintf(stderr, "testbed: %s\n", tb_r.status().ToString().c_str());
    return 1;
  }
  const Testbed& tb = *tb_r.ValueOrDie();
  PrintBanner("Figure 5 — retrieval recall of leaf-bounded search and the "
              "Anderson-Darling early stop", tb);

  const auto& tree = tb.index->tree();
  const std::vector<size_t> ks = {5, 10, 15, 20};
  const std::vector<size_t> leaf_budgets = {1, 2, 3, 4, 5, 6, 8};

  // True nearest neighbors per query (exact search).
  std::vector<std::vector<std::set<uint32_t>>> truth(
      tb.workload.queries.size());
  for (size_t qi = 0; qi < tb.workload.queries.size(); ++qi) {
    for (size_t k : ks) {
      const auto nn = tree.ExactKnn(tb.workload.queries[qi].probs(), k);
      std::set<uint32_t> ids;
      for (const auto& nb : nn) ids.insert(nb.point_id);
      truth[qi].push_back(std::move(ids));
    }
  }

  TablePrinter table({"visited leaves", "recall@5", "recall@10", "recall@15",
                      "recall@20", "avg KL evals"});
  for (size_t budget : leaf_budgets) {
    std::vector<double> recall(ks.size(), 0.0);
    double kl_evals = 0.0;
    for (size_t qi = 0; qi < tb.workload.queries.size(); ++qi) {
      bbtree::SearchStats stats;
      const auto got = tree.LeafBoundedKnn(tb.workload.queries[qi].probs(),
                                           20, budget, &stats);
      kl_evals += static_cast<double>(stats.kl_evaluations);
      for (size_t kidx = 0; kidx < ks.size(); ++kidx) {
        size_t hits = 0;
        for (size_t r = 0; r < std::min(ks[kidx], got.size()); ++r) {
          hits += truth[qi][kidx].count(got[r].point_id);
        }
        recall[kidx] +=
            static_cast<double>(hits) / static_cast<double>(ks[kidx]);
      }
    }
    const double n = static_cast<double>(tb.workload.queries.size());
    table.AddRow({std::to_string(budget), TablePrinter::Fmt(recall[0] / n),
                  TablePrinter::Fmt(recall[1] / n),
                  TablePrinter::Fmt(recall[2] / n),
                  TablePrinter::Fmt(recall[3] / n),
                  TablePrinter::Fmt(kl_evals / n, 1)});
  }
  table.Print();

  // Anderson-Darling early stop.
  std::printf("\nAnderson-Darling early-stopping criterion:\n");
  bbtree::InflexSearchOptions ad_opts;
  ad_opts.epsilon_exact = -1.0;
  ad_opts.max_leaves = 5;
  std::vector<double> ad_recall(ks.size(), 0.0);
  std::vector<double> ad_kls, ad_leaves;
  std::vector<double> l5_kls;
  std::vector<double> ad_recall10_per_query, l3_recall10_per_query;
  for (size_t qi = 0; qi < tb.workload.queries.size(); ++qi) {
    const auto r = tree.InflexSearch(tb.workload.queries[qi].probs(), ad_opts);
    ad_kls.push_back(static_cast<double>(r.stats.kl_evaluations));
    ad_leaves.push_back(static_cast<double>(r.stats.leaves_visited));
    for (size_t kidx = 0; kidx < ks.size(); ++kidx) {
      size_t hits = 0;
      for (size_t i = 0; i < std::min(ks[kidx], r.neighbors.size()); ++i) {
        hits += truth[qi][kidx].count(r.neighbors[i].point_id);
      }
      const double rec =
          static_cast<double>(hits) / static_cast<double>(ks[kidx]);
      ad_recall[kidx] += rec;
      if (ks[kidx] == 10) ad_recall10_per_query.push_back(rec);
    }
    // Fixed-leaf baselines for the paired comparisons: the paper contrasts
    // the AD stop against visiting 5 leaves (KL-evaluation savings, "101 vs
    // 200") and against visiting up to 3 leaves (recall gain).
    bbtree::SearchStats l5_stats;
    tree.LeafBoundedKnn(tb.workload.queries[qi].probs(), 10, 5, &l5_stats);
    l5_kls.push_back(static_cast<double>(l5_stats.kl_evaluations));
    const auto l3 =
        tree.LeafBoundedKnn(tb.workload.queries[qi].probs(), 10, 3);
    size_t hits = 0;
    for (size_t i = 0; i < std::min<size_t>(10, l3.size()); ++i) {
      hits += truth[qi][1].count(l3[i].point_id);
    }
    l3_recall10_per_query.push_back(hits / 10.0);
  }
  const double n = static_cast<double>(tb.workload.queries.size());
  TablePrinter ad_table({"metric", "value"});
  for (size_t kidx = 0; kidx < ks.size(); ++kidx) {
    ad_table.AddRow({"recall@" + std::to_string(ks[kidx]),
                     TablePrinter::Fmt(ad_recall[kidx] / n)});
  }
  ad_table.AddRow({"avg leaves visited",
                   TablePrinter::Fmt(stats::Mean(ad_leaves), 2)});
  ad_table.AddRow({"avg KL evaluations",
                   TablePrinter::Fmt(stats::Mean(ad_kls), 1)});
  ad_table.AddRow({"avg KL evals, 5-leaf baseline",
                   TablePrinter::Fmt(stats::Mean(l5_kls), 1)});
  ad_table.Print();

  auto kl_t = stats::PairedTTest(l5_kls, ad_kls);
  auto rec_t = stats::PairedTTest(ad_recall10_per_query,
                                  l3_recall10_per_query);
  if (kl_t.ok()) {
    std::printf("\npaired t-test, KL evals (5-leaf vs AD): t = %.2f, "
                "p = %.4f\n",
                kl_t.ValueOrDie().t_statistic,
                kl_t.ValueOrDie().p_value_two_sided);
  }
  if (rec_t.ok()) {
    std::printf("paired t-test, recall@10 (AD vs 3-leaf): t = %.2f, "
                "p = %.4f\n",
                rec_t.ValueOrDie().t_statistic,
                rec_t.ValueOrDie().p_value_two_sided);
  }
  std::printf("\nPaper shape to match: recall grows with the leaf budget "
              "(~0.8 within 5 leaves); the AD stop trades a modest recall "
              "loss for roughly half the KL evaluations.\n");
  return 0;
}

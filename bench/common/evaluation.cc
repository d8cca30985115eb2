#include "common/evaluation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "im/heuristics.h"
#include "oracle/celfpp_oracle.h"
#include "rank/kendall_tau.h"
#include "stats/descriptive.h"
#include "tic/tic_model.h"
#include "util/random.h"
#include "util/timer.h"

namespace inflex {
namespace benchsupport {

namespace {

// Kendall-τ between two ranked lists truncated to k (top-ℓ variant, p=0.5).
Result<double> KendallVsTruth(const rank::RankedList& answer,
                              const rank::RankedList& truth, size_t k) {
  const size_t ell = std::min({k, answer.size(), truth.size()});
  if (ell == 0) return Status::InvalidArgument("empty list in comparison");
  rank::RankedList a(answer.begin(), answer.begin() + ell);
  rank::RankedList t(truth.begin(), truth.begin() + ell);
  return rank::KendallTauTopL(a, t);
}

// Fills the aggregate fields of `m` from its per-query series plus the
// ground-truth spreads (for RMSE/NRMSE).
Status FinalizeMetrics(const std::vector<double>& truth_spread,
                       StrategyMetrics* m) {
  if (!m->kendall_per_query.empty()) {
    m->avg_kendall = stats::Mean(m->kendall_per_query);
  }
  if (!m->ms_per_query.empty()) {
    m->avg_query_ms = stats::Mean(m->ms_per_query);
    m->max_query_ms =
        *std::max_element(m->ms_per_query.begin(), m->ms_per_query.end());
  }
  if (!m->spread_per_query.empty()) {
    m->avg_spread = stats::Mean(m->spread_per_query);
    if (m->spread_per_query.size() > 1) {
      m->spread_std_error = stats::StdDev(m->spread_per_query) /
                            std::sqrt(static_cast<double>(
                                m->spread_per_query.size()));
    }
    if (truth_spread.size() == m->spread_per_query.size()) {
      INFLEX_ASSIGN_OR_RETURN(m->rmse,
                              stats::Rmse(m->spread_per_query, truth_spread));
      INFLEX_ASSIGN_OR_RETURN(m->nrmse,
                              stats::Nrmse(m->spread_per_query, truth_spread));
    }
  }
  return Status::OK();
}

// Cached ground-truth spreads (shared across strategy evaluations within one
// binary): spread of ground_truth[i].seeds truncated to k.
Result<std::vector<double>> TruthSpreads(const Testbed& tb, size_t k) {
  std::vector<double> out;
  out.reserve(tb.workload.queries.size());
  for (size_t i = 0; i < tb.workload.queries.size(); ++i) {
    const auto& full = tb.ground_truth[i].seeds;
    rank::RankedList seeds(full.begin(),
                           full.begin() + std::min(k, full.size()));
    INFLEX_ASSIGN_OR_RETURN(const double s,
                            SpreadOf(tb, tb.workload.queries[i], seeds));
    out.push_back(s);
  }
  return out;
}

}  // namespace

Result<double> SpreadOf(const Testbed& tb,
                        const simplex::TopicDistribution& query,
                        const rank::RankedList& seeds) {
  std::vector<graph::NodeId> nodes(seeds.begin(), seeds.end());
  im::MonteCarloOptions mc;
  mc.num_simulations = tb.config.spread_mc_simulations;
  mc.seed = tb.config.seed + 77;
  mc.parallel = false;
  tic::TicModel model(&tb.graph());
  INFLEX_ASSIGN_OR_RETURN(im::SpreadEstimate est,
                          model.EstimateSpread(query, nodes, mc));
  return est.mean;
}

Result<StrategyMetrics> EvaluateStrategy(const Testbed& tb,
                                         const core::QueryOptions& options,
                                         const std::string& name, size_t k,
                                         bool evaluate_spread) {
  StrategyMetrics m;
  m.name = name;
  double lists_total = 0.0, kl_total = 0.0, leaves_total = 0.0;
  double search_total = 0.0, agg_total = 0.0;
  for (size_t i = 0; i < tb.workload.queries.size(); ++i) {
    const auto& q = tb.workload.queries[i];
    Timer t;
    INFLEX_ASSIGN_OR_RETURN(core::QueryResult r,
                            tb.index->Query(q, k, options));
    m.ms_per_query.push_back(t.ElapsedMillis());
    search_total += r.similarity_search_ms;
    agg_total += r.aggregation_ms;
    INFLEX_ASSIGN_OR_RETURN(
        const double kd, KendallVsTruth(r.seeds, tb.ground_truth[i].seeds, k));
    m.kendall_per_query.push_back(kd);
    lists_total += static_cast<double>(r.neighbors_used.size());
    kl_total += static_cast<double>(r.search_stats.kl_evaluations);
    leaves_total += static_cast<double>(r.search_stats.leaves_visited);
    if (evaluate_spread) {
      INFLEX_ASSIGN_OR_RETURN(const double s, SpreadOf(tb, q, r.seeds));
      m.spread_per_query.push_back(s);
    }
  }
  const double n = static_cast<double>(tb.workload.queries.size());
  m.avg_lists_aggregated = lists_total / n;
  m.avg_kl_evaluations = kl_total / n;
  m.avg_leaves_visited = leaves_total / n;
  m.avg_search_ms = search_total / n;
  m.avg_aggregation_ms = agg_total / n;

  std::vector<double> truth_spread;
  if (evaluate_spread) {
    INFLEX_ASSIGN_OR_RETURN(truth_spread, TruthSpreads(tb, k));
  }
  INFLEX_RETURN_NOT_OK(FinalizeMetrics(truth_spread, &m));
  return m;
}

Result<StrategyMetrics> EvaluateOfflineTic(const Testbed& tb, size_t k) {
  StrategyMetrics m;
  m.name = "offline TIC";
  for (size_t i = 0; i < tb.workload.queries.size(); ++i) {
    const auto& full = tb.ground_truth[i].seeds;
    rank::RankedList seeds(full.begin(),
                           full.begin() + std::min(k, full.size()));
    INFLEX_ASSIGN_OR_RETURN(const double s,
                            SpreadOf(tb, tb.workload.queries[i], seeds));
    m.spread_per_query.push_back(s);
    m.kendall_per_query.push_back(0.0);
    m.ms_per_query.push_back(tb.ground_truth[i].offline_seconds * 1e3);
  }
  INFLEX_RETURN_NOT_OK(FinalizeMetrics(m.spread_per_query, &m));
  return m;
}

Result<StrategyMetrics> EvaluateOfflineIc(const Testbed& tb, size_t k) {
  StrategyMetrics m;
  m.name = "offline IC";
  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = tb.config.oracle_snapshots;
  oopts.seed = tb.config.seed + 9;
  oopts.selection.parallel_first_iteration = false;
  Timer t;
  INFLEX_ASSIGN_OR_RETURN(im::SeedSelectionResult blind,
                          oracle::OfflineIcSeeds(tb.graph(), k, oopts));
  const double blind_ms = t.ElapsedMillis();
  rank::RankedList seeds(blind.seeds.begin(), blind.seeds.end());
  std::vector<double> truth_spread;
  INFLEX_ASSIGN_OR_RETURN(truth_spread, TruthSpreads(tb, k));
  for (size_t i = 0; i < tb.workload.queries.size(); ++i) {
    INFLEX_ASSIGN_OR_RETURN(
        const double s, SpreadOf(tb, tb.workload.queries[i], seeds));
    m.spread_per_query.push_back(s);
    INFLEX_ASSIGN_OR_RETURN(
        const double kd,
        KendallVsTruth(seeds, tb.ground_truth[i].seeds, k));
    m.kendall_per_query.push_back(kd);
    m.ms_per_query.push_back(blind_ms);
  }
  INFLEX_RETURN_NOT_OK(FinalizeMetrics(truth_spread, &m));
  return m;
}

Result<StrategyMetrics> EvaluateRandom(const Testbed& tb, size_t k,
                                       uint64_t seed) {
  StrategyMetrics m;
  m.name = "random";
  Rng rng(seed);
  std::vector<double> truth_spread;
  INFLEX_ASSIGN_OR_RETURN(truth_spread, TruthSpreads(tb, k));
  for (size_t i = 0; i < tb.workload.queries.size(); ++i) {
    Timer t;
    INFLEX_ASSIGN_OR_RETURN(
        std::vector<graph::NodeId> seeds,
        im::SelectSeedsRandom(tb.graph().num_nodes(), k, &rng));
    m.ms_per_query.push_back(t.ElapsedMillis());
    rank::RankedList list(seeds.begin(), seeds.end());
    INFLEX_ASSIGN_OR_RETURN(
        const double s, SpreadOf(tb, tb.workload.queries[i], list));
    m.spread_per_query.push_back(s);
    INFLEX_ASSIGN_OR_RETURN(
        const double kd, KendallVsTruth(list, tb.ground_truth[i].seeds, k));
    m.kendall_per_query.push_back(kd);
  }
  INFLEX_RETURN_NOT_OK(FinalizeMetrics(truth_spread, &m));
  return m;
}

// ------------------------------------------------------------ table output ---

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string TablePrinter::Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < widths.size(); ++c) {
    std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
}

void PrintBanner(const std::string& title, const Testbed& tb) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf(
      "test-bed: %zu users, %zu arcs, Z=%zu, %zu items | h=%zu index points, "
      "l=%zu | %zu queries\n",
      tb.graph().num_nodes(), tb.graph().num_arcs(), tb.graph().num_topics(),
      tb.dataset->catalog.size(), tb.index->num_index_points(),
      tb.index->seed_list_length(), tb.workload.queries.size());
  std::printf("==============================================================\n");
}

}  // namespace benchsupport
}  // namespace inflex

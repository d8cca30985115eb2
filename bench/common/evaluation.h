#ifndef INFLEX_BENCH_COMMON_EVALUATION_H_
#define INFLEX_BENCH_COMMON_EVALUATION_H_

#include <string>
#include <vector>

#include "common/testbed.h"
#include "inflex/inflex_index.h"

namespace inflex {
namespace benchsupport {

/// \brief Per-strategy evaluation over the whole query workload.
struct StrategyMetrics {
  std::string name;
  /// Mean top-k Kendall-τ distance to the offline TIC ground truth (Fig. 6).
  double avg_kendall = 0.0;
  /// Mean / max query evaluation time in milliseconds (Fig. 7).
  double avg_query_ms = 0.0;
  double max_query_ms = 0.0;
  /// Mean per-stage breakdown (similarity search vs rank aggregation).
  double avg_search_ms = 0.0;
  double avg_aggregation_ms = 0.0;
  /// Mean expected spread of the returned seed sets under TIC Monte Carlo,
  /// with the std-error of the mean across queries (Fig. 8 / Table 2).
  double avg_spread = 0.0;
  double spread_std_error = 0.0;
  /// RMSE / NRMSE of per-query spread against offline TIC (Table 2).
  double rmse = 0.0;
  double nrmse = 0.0;
  /// Mean number of seed lists entering the aggregation.
  double avg_lists_aggregated = 0.0;
  /// Mean KL-divergence evaluations per query (early-stop analysis, §5).
  double avg_kl_evaluations = 0.0;
  double avg_leaves_visited = 0.0;
  /// Per-query raw series (for correlation/t-test style analyses).
  std::vector<double> kendall_per_query;
  std::vector<double> spread_per_query;
  std::vector<double> ms_per_query;
};

/// Evaluates one index strategy on every workload query with seed-set size
/// k: runs the query, measures wall time, compares the ranked list against
/// the ground truth (both truncated to k) and Monte-Carlo-evaluates the
/// spread when `evaluate_spread`.
Result<StrategyMetrics> EvaluateStrategy(const Testbed& tb,
                                         const core::QueryOptions& options,
                                         const std::string& name, size_t k,
                                         bool evaluate_spread);

/// Spread metrics of the offline TIC ground-truth seed lists themselves
/// (the "offline TIC" row of Table 2).
Result<StrategyMetrics> EvaluateOfflineTic(const Testbed& tb, size_t k);

/// Topic-blind baseline: one CELF run with the uniform topic mixture,
/// whose seeds answer every query (the "offline IC" row).
Result<StrategyMetrics> EvaluateOfflineIc(const Testbed& tb, size_t k);

/// Random seed sets, fresh per query (the "random" row).
Result<StrategyMetrics> EvaluateRandom(const Testbed& tb, size_t k,
                                       uint64_t seed);

/// Monte-Carlo spread of `seeds` for `query` on the test-bed graph.
Result<double> SpreadOf(const Testbed& tb,
                        const simplex::TopicDistribution& query,
                        const rank::RankedList& seeds);

// ------------------------------------------------------------ table output ---

/// Minimal fixed-width table printer for paper-style output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(const std::vector<std::string>& cells);
  void Print() const;

  static std::string Fmt(double v, int precision = 3);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard experiment banner (config summary).
void PrintBanner(const std::string& title, const Testbed& tb);

}  // namespace benchsupport
}  // namespace inflex

#endif  // INFLEX_BENCH_COMMON_EVALUATION_H_

// inflex_cli — the command-line face of the library. Drives the full
// pipeline of the paper (Figure 1 + Figure 2) from a shell:
//
//   inflex_cli generate    --out data/            # synthetic dataset
//   inflex_cli learn       --data data/ --out learned/   # TIC EM from the log
//   inflex_cli suggest-h   --data data/                  # auto index sizing
//   inflex_cli build-index --data data/ --out index.bin --h 128 --ell 50
//   inflex_cli query       --data data/ --index index.bin
//                          --mix 0.6,0.2,0.1,0.05,0.05 --k 10
//   inflex_cli evaluate    --data data/ --index index.bin --queries 20
//   inflex_cli info        --data data/ [--index index.bin]
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "inflex/index_points.h"
#include "inflex/inflex_index.h"
#include "oracle/celfpp_oracle.h"
#include "rank/kendall_tau.h"
#include "stats/descriptive.h"
#include "tic/propagation_log.h"
#include "tic/tic_learner.h"
#include "tic/tic_model.h"
#include "util/args.h"
#include "util/timer.h"

/// Like INFLEX_ASSIGN_OR_RETURN but converts the error into a CLI exit code.
#define INFLEX_ASSIGN_OR_RETURN_CLI(lhs, expr)                            \
  INFLEX_ASSIGN_OR_RETURN_CLI_IMPL(INFLEX_CONCAT(_cli_result_, __LINE__), \
                                   lhs, expr)
#define INFLEX_ASSIGN_OR_RETURN_CLI_IMPL(result_name, lhs, expr) \
  auto result_name = (expr);                                     \
  if (!result_name.ok()) return Fail(result_name.status());      \
  lhs = std::move(result_name).ValueOrDie()

namespace inflex {
namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: inflex_cli <command> [options]\n"
      "commands:\n"
      "  generate     --out DIR [--users N] [--topics Z] [--items M]\n"
      "               [--degree D] [--seed S]\n"
      "  learn        --data DIR --out DIR [--topics Z] [--iters N]\n"
      "  suggest-h    --data DIR [--target KL] [--quantile Q]\n"
      "  build-index  --data DIR --out FILE [--h H] [--ell L]\n"
      "               [--snapshots W] [--auto-size]\n"
      "  query        --data DIR --index FILE --mix p1,p2,... [--k K]\n"
      "               [--strategy inflex|exact|approx|approx-sel|approx-ad]\n"
      "  add-item     --data DIR --index FILE --mix p1,p2,... [--ell L]\n"
      "               (runs offline CELF++ for the new item, indexes it "
      "online,\n                rewrites FILE)\n"
      "  evaluate     --data DIR --index FILE [--queries N] [--k K]\n"
      "  info         --data DIR [--index FILE]\n");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdGenerate(ArgParser& args) {
  const std::string out = args.GetString("out", "");
  data::SyntheticDatasetOptions opts;
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t users, args.GetInt("users", 2000, 1));
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t topics, args.GetInt("topics", 8, 1));
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t items, args.GetInt("items", 2000, 1));
  INFLEX_ASSIGN_OR_RETURN_CLI(double degree, args.GetDouble("degree", 10.0));
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t seed, args.GetInt("seed", 1));
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  opts.num_users = static_cast<size_t>(users);
  opts.num_topics = static_cast<size_t>(topics);
  opts.num_items = static_cast<size_t>(items);
  opts.avg_degree = degree;
  opts.seed = static_cast<uint64_t>(seed);

  Timer t;
  tic::PropagationLog log(1, 1);
  auto ds = data::GenerateSyntheticDataset(opts, &log);
  if (!ds.ok()) return Fail(ds.status());
  if (auto st = data::SaveDataset(ds.ValueOrDie(), out); !st.ok()) {
    return Fail(st);
  }
  if (auto st = log.Save(data::DatasetLogPath(out)); !st.ok()) {
    return Fail(st);
  }
  std::printf("generated %zu users / %zu arcs / Z=%zu / %zu items with a "
              "propagation log of %zu records in %.1f s -> %s\n",
              ds.ValueOrDie().graph.num_nodes(),
              ds.ValueOrDie().graph.num_arcs(),
              ds.ValueOrDie().graph.num_topics(),
              ds.ValueOrDie().catalog.size(), log.size(), t.ElapsedSeconds(),
              out.c_str());
  return 0;
}

int CmdLearn(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  const std::string out = args.GetString("out", "");
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t topics, args.GetInt("topics", 0, 0));
  INFLEX_ASSIGN_OR_RETURN_CLI(
      int64_t iters,
      args.GetInt("iters", 25, 1, std::numeric_limits<int>::max()));
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--data and --out are required"));
  }
  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());
  auto log = tic::PropagationLog::Load(data::DatasetLogPath(data_dir));
  if (!log.ok()) return Fail(log.status());

  tic::TicLearnerOptions lopts;
  lopts.num_topics = topics > 0 ? static_cast<size_t>(topics)
                                : ds.ValueOrDie().graph.num_topics();
  lopts.max_iterations = static_cast<int>(iters);
  Timer t;
  auto learned = tic::LearnTicParameters(ds.ValueOrDie().graph,
                                         log.ValueOrDie(), lopts);
  if (!learned.ok()) return Fail(learned.status());
  std::printf("EM converged after %d sweeps in %.1f s (final expected "
              "log-likelihood %.1f)\n",
              learned.ValueOrDie().iterations, t.ElapsedSeconds(),
              learned.ValueOrDie().log_likelihood.back());

  // Persist the learned model as a dataset: graph with learned parameters,
  // learned item-topic catalog, the original log and communities.
  data::SyntheticDataset out_ds;
  out_ds.graph = ds.ValueOrDie().graph;
  if (auto st = out_ds.graph.SetArcTopicProbabilities(
          learned.ValueOrDie().arc_topic_probs);
      !st.ok()) {
    return Fail(st);
  }
  out_ds.catalog = learned.ValueOrDie().item_topics;
  out_ds.user_community = ds.ValueOrDie().user_community;
  if (auto st = data::SaveDataset(out_ds, out); !st.ok()) return Fail(st);
  if (auto st = log.ValueOrDie().Save(data::DatasetLogPath(out)); !st.ok()) {
    return Fail(st);
  }
  std::printf("learned model written to %s\n", out.c_str());
  return 0;
}

int CmdSuggestH(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  INFLEX_ASSIGN_OR_RETURN_CLI(double target, args.GetDouble("target", 0.25));
  INFLEX_ASSIGN_OR_RETURN_CLI(double quantile,
                              args.GetDouble("quantile", 0.9));
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty()) {
    return Fail(Status::InvalidArgument("--data is required"));
  }
  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());
  core::IndexSizeCriterion criterion;
  criterion.target_divergence = target;
  criterion.quantile = quantile;
  auto h = core::SuggestIndexPointCount(ds.ValueOrDie().catalog, criterion);
  if (!h.ok()) return Fail(h.status());
  std::printf("suggested h = %zu (so that %.0f%% of catalog-like queries "
              "have an index point within KL %.3f)\n",
              h.ValueOrDie(), 100.0 * quantile, target);
  return 0;
}

int CmdBuildIndex(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  const std::string out = args.GetString("out", "");
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t h, args.GetInt("h", 128, 1));
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t ell, args.GetInt("ell", 50, 1));
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t snapshots,
                              args.GetInt("snapshots", 100, 1));
  const bool auto_size = args.HasFlag("auto-size");
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--data and --out are required"));
  }
  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());

  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = static_cast<size_t>(h);
  if (auto_size) {
    auto suggested = core::SuggestIndexPointCount(ds.ValueOrDie().catalog);
    if (!suggested.ok()) return Fail(suggested.status());
    bopts.index_points.num_index_points = suggested.ValueOrDie();
    std::printf("auto-size: h = %zu\n", suggested.ValueOrDie());
  }
  bopts.index_points.num_dirichlet_samples =
      std::max<size_t>(20000, 50 * bopts.index_points.num_index_points);
  bopts.seed_list_length = static_cast<size_t>(ell);
  bopts.oracle_snapshots = static_cast<size_t>(snapshots);

  Timer t;
  auto index = core::InflexIndex::Build(ds.ValueOrDie().graph,
                                        ds.ValueOrDie().catalog, bopts);
  if (!index.ok()) return Fail(index.status());
  if (auto st = index.ValueOrDie().Save(out); !st.ok()) return Fail(st);
  std::printf("built index (h=%zu, l=%zu) in %.1f s -> %s\n",
              index.ValueOrDie().num_index_points(),
              index.ValueOrDie().seed_list_length(), t.ElapsedSeconds(),
              out.c_str());
  return 0;
}

Result<core::QueryStrategy> ParseStrategy(const std::string& name) {
  if (name == "inflex") return core::QueryStrategy::kInflex;
  if (name == "exact") return core::QueryStrategy::kExactKnn;
  if (name == "approx") return core::QueryStrategy::kApproxKnn;
  if (name == "approx-sel") return core::QueryStrategy::kApproxKnnSel;
  if (name == "approx-ad") return core::QueryStrategy::kApproxAd;
  return Status::InvalidArgument("unknown strategy: " + name);
}

int CmdQuery(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  const std::string index_path = args.GetString("index", "");
  auto mix = args.GetDoubleList("mix");
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t k, args.GetInt("k", 10, 1));
  const std::string strategy_name = args.GetString("strategy", "inflex");
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty() || index_path.empty()) {
    return Fail(Status::InvalidArgument("--data and --index are required"));
  }
  if (!mix.ok()) return Fail(mix.status());

  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());
  auto index = core::InflexIndex::Load(index_path, &ds.ValueOrDie().graph);
  if (!index.ok()) return Fail(index.status());

  auto item = simplex::TopicDistribution::FromUnnormalized(
      std::move(mix).ValueOrDie());
  if (!item.ok()) return Fail(item.status());
  auto strategy = ParseStrategy(strategy_name);
  if (!strategy.ok()) return Fail(strategy.status());

  core::QueryOptions qopts;
  qopts.strategy = strategy.ValueOrDie();
  auto r = index.ValueOrDie().Query(item.ValueOrDie(),
                                    static_cast<size_t>(k), qopts);
  if (!r.ok()) return Fail(r.status());
  const auto& result = r.ValueOrDie();
  std::printf("query %s (%s)\n", item.ValueOrDie().ToString().c_str(),
              strategy_name.c_str());
  std::printf("answered in %.2f ms (%zu lists aggregated%s)\nseeds:",
              result.total_ms, result.neighbors_used.size(),
              result.epsilon_exact ? ", epsilon-exact" : "");
  for (rank::Item v : result.seeds) std::printf(" %u", v);
  std::printf("\n");

  tic::TicModel model(&ds.ValueOrDie().graph);
  std::vector<graph::NodeId> seeds(result.seeds.begin(), result.seeds.end());
  im::MonteCarloOptions mc;
  mc.num_simulations = 3000;
  auto spread = model.EstimateSpread(item.ValueOrDie(), seeds, mc);
  if (spread.ok()) {
    std::printf("expected spread: %.1f (+/- %.1f)\n",
                spread.ValueOrDie().mean, spread.ValueOrDie().std_error);
  }
  return 0;
}

int CmdAddItem(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  const std::string index_path = args.GetString("index", "");
  auto mix = args.GetDoubleList("mix");
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t ell, args.GetInt("ell", 0, 0));
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty() || index_path.empty()) {
    return Fail(Status::InvalidArgument("--data and --index are required"));
  }
  if (!mix.ok()) return Fail(mix.status());
  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());
  auto index = core::InflexIndex::Load(index_path, &ds.ValueOrDie().graph);
  if (!index.ok()) return Fail(index.status());
  auto item = simplex::TopicDistribution::FromUnnormalized(
      std::move(mix).ValueOrDie());
  if (!item.ok()) return Fail(item.status());

  const size_t list_len = ell > 0 ? static_cast<size_t>(ell)
                                  : index.ValueOrDie().seed_list_length();
  Timer t;
  oracle::OfflineImOptions oopts;
  auto seeds = oracle::OfflineTicSeeds(ds.ValueOrDie().graph,
                                       item.ValueOrDie(), list_len, oopts);
  if (!seeds.ok()) return Fail(seeds.status());
  rank::RankedList list(seeds.ValueOrDie().seeds.begin(),
                        seeds.ValueOrDie().seeds.end());
  if (auto st = index.ValueOrDie().AddIndexPoint(item.ValueOrDie(),
                                                 std::move(list));
      !st.ok()) {
    return Fail(st);
  }
  if (auto st = index.ValueOrDie().Compact(); !st.ok()) return Fail(st);
  if (auto st = index.ValueOrDie().Save(index_path); !st.ok()) {
    return Fail(st);
  }
  std::printf("indexed new item %s in %.1f s (CELF++ l=%zu); index now has "
              "%zu points -> %s\n",
              item.ValueOrDie().ToString().c_str(), t.ElapsedSeconds(),
              list_len, index.ValueOrDie().num_index_points(),
              index_path.c_str());
  return 0;
}

int CmdEvaluate(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  const std::string index_path = args.GetString("index", "");
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t queries,
                              args.GetInt("queries", 20, 1));
  INFLEX_ASSIGN_OR_RETURN_CLI(int64_t k, args.GetInt("k", 20, 1));
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty() || index_path.empty()) {
    return Fail(Status::InvalidArgument("--data and --index are required"));
  }
  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());
  auto index = core::InflexIndex::Load(index_path, &ds.ValueOrDie().graph);
  if (!index.ok()) return Fail(index.status());

  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = static_cast<size_t>(queries) / 2;
  wopts.num_uniform = static_cast<size_t>(queries) - wopts.num_data_driven;
  auto workload = data::GenerateQueryWorkload(ds.ValueOrDie().catalog, wopts);
  if (!workload.ok()) return Fail(workload.status());

  oracle::OfflineImOptions oopts;
  std::vector<double> kendall, ms;
  for (const auto& q : workload.ValueOrDie().queries) {
    auto truth = oracle::OfflineTicSeeds(ds.ValueOrDie().graph, q,
                                         static_cast<size_t>(k), oopts);
    if (!truth.ok()) return Fail(truth.status());
    Timer t;
    auto answer = index.ValueOrDie().Query(q, static_cast<size_t>(k));
    if (!answer.ok()) return Fail(answer.status());
    ms.push_back(t.ElapsedMillis());
    rank::RankedList truth_list(truth.ValueOrDie().seeds.begin(),
                                truth.ValueOrDie().seeds.end());
    rank::RankedList got = answer.ValueOrDie().seeds;
    const size_t ell = std::min(truth_list.size(), got.size());
    truth_list.resize(ell);
    got.resize(ell);
    auto kd = rank::KendallTauTopL(got, truth_list);
    if (!kd.ok()) return Fail(kd.status());
    kendall.push_back(kd.ValueOrDie());
  }
  std::printf("evaluated %zu queries at k=%lld:\n", kendall.size(),
              static_cast<long long>(k));
  std::printf("  avg Kendall-tau vs offline CELF++ ground truth: %.3f\n",
              stats::Mean(kendall));
  std::printf("  avg query latency: %.2f ms\n", stats::Mean(ms));
  return 0;
}

int CmdInfo(ArgParser& args) {
  const std::string data_dir = args.GetString("data", "");
  const std::string index_path = args.GetString("index", "");
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (data_dir.empty()) {
    return Fail(Status::InvalidArgument("--data is required"));
  }
  auto ds = data::LoadDataset(data_dir);
  if (!ds.ok()) return Fail(ds.status());
  const auto& d = ds.ValueOrDie();
  std::printf("dataset %s:\n  users: %zu\n  arcs: %zu\n  topics: %zu\n"
              "  items: %zu\n",
              data_dir.c_str(), d.graph.num_nodes(), d.graph.num_arcs(),
              d.graph.num_topics(), d.catalog.size());
  // Serving needs no log, so a dataset directory may come without one.
  const std::string log_path = data::DatasetLogPath(data_dir);
  if (std::filesystem::exists(log_path)) {
    auto log = tic::PropagationLog::Load(log_path);
    if (!log.ok()) return Fail(log.status());
    std::printf("  log records: %zu (%zu active items)\n",
                log.ValueOrDie().size(), log.ValueOrDie().num_active_items());
  }
  if (!index_path.empty()) {
    auto index = core::InflexIndex::Load(index_path, &d.graph);
    if (!index.ok()) return Fail(index.status());
    const auto& ix = index.ValueOrDie();
    // Footnote 4 of the paper: per-point memory cost
    // (Z−1)·sizeof(double) + l·sizeof(int).
    const size_t per_point = (ix.num_topics() - 1) * sizeof(double) +
                             ix.seed_list_length() * sizeof(uint32_t);
    std::printf("index %s:\n  points (h): %zu\n  seed list length (l): %zu\n"
                "  tree: %zu nodes, %zu leaves, depth %zu\n"
                "  per-point payload: %zu bytes (total ~%zu KiB)\n",
                index_path.c_str(), ix.num_index_points(),
                ix.seed_list_length(), ix.tree().num_nodes(),
                ix.tree().num_leaves(), ix.tree().depth(), per_point,
                per_point * ix.num_index_points() / 1024);
  }
  return 0;
}

}  // namespace
}  // namespace inflex

int main(int argc, char** argv) {
  using namespace inflex;  // NOLINT
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  ArgParser args(argc - 1, argv + 1);
  if (command == "generate") return CmdGenerate(args);
  if (command == "learn") return CmdLearn(args);
  if (command == "suggest-h") return CmdSuggestH(args);
  if (command == "build-index") return CmdBuildIndex(args);
  if (command == "query") return CmdQuery(args);
  if (command == "add-item") return CmdAddItem(args);
  if (command == "evaluate") return CmdEvaluate(args);
  if (command == "info") return CmdInfo(args);
  PrintUsage();
  return 1;
}

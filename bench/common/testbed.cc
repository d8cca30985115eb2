#include "common/testbed.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "data/dataset_io.h"
#include "oracle/celfpp_oracle.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace inflex {
namespace benchsupport {

namespace {

constexpr uint32_t kTestbedMagic = 0x494e5442;  // "INTB"
constexpr uint32_t kTestbedVersion = 1;

std::string CacheDir() {
  const char* env = std::getenv("INFLEX_TESTBED_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return "inflex_testbed_cache";
}

void Progress(const std::string& msg) {
  std::fprintf(stderr, "[testbed] %s\n", msg.c_str());
}

}  // namespace

TestbedConfig TestbedConfig::FromEnv() {
  TestbedConfig c;
  const char* scale = std::getenv("INFLEX_BENCH_SCALE");
  const std::string s = scale == nullptr ? "small" : scale;
  if (s == "medium") {
    c.num_users = 4000;
    c.num_items = 6000;
    c.num_topics = 10;
    c.num_index_points = 512;
    c.dirichlet_samples = 60000;
    c.queries_data_driven = 50;
    c.queries_uniform = 50;
  } else if (s == "large") {
    c.num_users = 10000;
    c.num_items = 12000;
    c.num_topics = 10;
    c.num_index_points = 1000;  // the paper's h
    c.dirichlet_samples = 100000;
    c.oracle_snapshots = 120;
    c.queries_data_driven = 100;
    c.queries_uniform = 100;
  }
  return c;
}

std::string TestbedConfig::Fingerprint() const {
  std::ostringstream os;
  os << "v2:" << num_users << ":" << num_topics << ":" << num_items << ":"
     << avg_degree << ":" << num_index_points << ":" << seed_list_length << ":"
     << dirichlet_samples << ":" << oracle_snapshots << ":"
     << tree_max_leaf_size << ":" << queries_data_driven << ":"
     << queries_uniform << ":" << spread_mc_simulations << ":" << seed;
  return os.str();
}

namespace {

Status SaveAuxiliary(const Testbed& tb, const std::string& path) {
  INFLEX_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::Open(path));
  INFLEX_RETURN_NOT_OK(WriteHeader(&w, kTestbedMagic, kTestbedVersion));
  INFLEX_RETURN_NOT_OK(w.WriteString(tb.config.Fingerprint()));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(tb.workload.queries.size()));
  for (size_t i = 0; i < tb.workload.queries.size(); ++i) {
    INFLEX_RETURN_NOT_OK(w.WriteVector(tb.workload.queries[i].probs()));
    INFLEX_RETURN_NOT_OK(
        w.WritePod<uint8_t>(tb.workload.is_data_driven[i] ? 1 : 0));
    INFLEX_RETURN_NOT_OK(w.WriteVector(tb.ground_truth[i].seeds));
    INFLEX_RETURN_NOT_OK(w.WritePod(tb.ground_truth[i].offline_seconds));
  }
  return w.Close();
}

Status LoadAuxiliary(const std::string& path, const TestbedConfig& config,
                     Testbed* tb) {
  INFLEX_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  INFLEX_RETURN_NOT_OK(CheckHeader(&r, kTestbedMagic, kTestbedVersion));
  std::string fingerprint;
  INFLEX_RETURN_NOT_OK(r.ReadString(&fingerprint));
  if (fingerprint != config.Fingerprint()) {
    return Status::FailedPrecondition("testbed cache built with a different "
                                      "configuration");
  }
  uint64_t n = 0;
  INFLEX_RETURN_NOT_OK(r.ReadPod(&n));
  tb->workload.queries.clear();
  tb->workload.is_data_driven.clear();
  tb->ground_truth.clear();
  for (uint64_t i = 0; i < n; ++i) {
    simplex::TopicVector probs;
    INFLEX_RETURN_NOT_OK(r.ReadVector(&probs));
    INFLEX_ASSIGN_OR_RETURN(
        simplex::TopicDistribution q,
        simplex::TopicDistribution::Create(std::move(probs)));
    tb->workload.queries.push_back(std::move(q));
    uint8_t dd = 0;
    INFLEX_RETURN_NOT_OK(r.ReadPod(&dd));
    tb->workload.is_data_driven.push_back(dd != 0);
    GroundTruth gt;
    INFLEX_RETURN_NOT_OK(r.ReadVector(&gt.seeds));
    INFLEX_RETURN_NOT_OK(r.ReadPod(&gt.offline_seconds));
    tb->ground_truth.push_back(std::move(gt));
  }
  return Status::OK();
}

Result<std::shared_ptr<Testbed>> BuildTestbed(const TestbedConfig& config,
                                              const std::string& dir) {
  auto tb = std::make_shared<Testbed>();
  tb->config = config;

  Progress("generating synthetic Flixster-equivalent dataset (" +
           std::to_string(config.num_users) + " users, " +
           std::to_string(config.num_items) + " items, Z=" +
           std::to_string(config.num_topics) + ")");
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = config.num_users;
  dopts.num_topics = config.num_topics;
  dopts.num_items = config.num_items;
  dopts.avg_degree = config.avg_degree;
  dopts.seed = config.seed;
  INFLEX_ASSIGN_OR_RETURN(data::SyntheticDataset ds,
                          data::GenerateSyntheticDataset(dopts));
  tb->dataset = std::make_unique<data::SyntheticDataset>(std::move(ds));

  Progress("building INFLEX index: h=" +
           std::to_string(config.num_index_points) +
           ", l=" + std::to_string(config.seed_list_length) +
           " (one CELF run per index point)");
  Timer build_timer;
  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = config.num_index_points;
  bopts.index_points.num_dirichlet_samples = config.dirichlet_samples;
  bopts.seed_list_length = config.seed_list_length;
  bopts.oracle_snapshots = config.oracle_snapshots;
  bopts.tree.max_leaf_size = config.tree_max_leaf_size;
  bopts.seed = config.seed + 1;
  INFLEX_ASSIGN_OR_RETURN(
      core::InflexIndex index,
      core::InflexIndex::Build(tb->dataset->graph, tb->dataset->catalog,
                               bopts));
  tb->index = std::make_unique<core::InflexIndex>(std::move(index));
  Progress("index built in " + std::to_string(build_timer.ElapsedSeconds()) +
           " s");

  Progress("generating TIM query workload (" +
           std::to_string(config.queries_data_driven) + " data-driven + " +
           std::to_string(config.queries_uniform) + " uniform)");
  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = config.queries_data_driven;
  wopts.num_uniform = config.queries_uniform;
  wopts.seed = config.seed + 2;
  INFLEX_ASSIGN_OR_RETURN(tb->workload,
                          data::GenerateQueryWorkload(tb->dataset->catalog,
                                                      wopts));

  Progress("computing offline TIC ground truth per query (CELF from "
           "scratch — the computation INFLEX replaces)");
  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = config.oracle_snapshots;
  oopts.seed = config.seed + 3;
  tb->ground_truth.resize(tb->workload.queries.size());
  for (size_t i = 0; i < tb->workload.queries.size(); ++i) {
    Timer t;
    INFLEX_ASSIGN_OR_RETURN(
        im::SeedSelectionResult truth,
        oracle::OfflineTicSeeds(tb->dataset->graph, tb->workload.queries[i],
                                config.seed_list_length, oopts));
    tb->ground_truth[i].offline_seconds = t.ElapsedSeconds();
    tb->ground_truth[i].seeds.assign(truth.seeds.begin(), truth.seeds.end());
    if ((i + 1) % 10 == 0) {
      Progress("  ground truth " + std::to_string(i + 1) + "/" +
               std::to_string(tb->workload.queries.size()));
    }
  }

  Progress("caching test-bed to " + dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  INFLEX_RETURN_NOT_OK(data::SaveDataset(*tb->dataset, dir + "/dataset"));
  INFLEX_RETURN_NOT_OK(tb->index->Save(dir + "/index.bin"));
  INFLEX_RETURN_NOT_OK(SaveAuxiliary(*tb, dir + "/aux.bin"));
  return tb;
}

}  // namespace

Result<std::shared_ptr<Testbed>> GetTestbed() {
  const TestbedConfig config = TestbedConfig::FromEnv();
  const std::string dir = CacheDir();

  // Try the cache first.
  auto tb = std::make_shared<Testbed>();
  tb->config = config;
  Status cached = LoadAuxiliary(dir + "/aux.bin", config, tb.get());
  if (cached.ok()) {
    auto ds = data::LoadDataset(dir + "/dataset");
    if (ds.ok()) {
      tb->dataset =
          std::make_unique<data::SyntheticDataset>(std::move(ds).ValueOrDie());
      bbtree::BbTreeOptions topts;
      topts.max_leaf_size = config.tree_max_leaf_size;
      auto index =
          core::InflexIndex::Load(dir + "/index.bin", &tb->dataset->graph,
                                  topts);
      if (index.ok()) {
        tb->index = std::make_unique<core::InflexIndex>(
            std::move(index).ValueOrDie());
        Progress("loaded cached test-bed from " + dir);
        return tb;
      }
    }
  }
  return BuildTestbed(config, dir);
}

}  // namespace benchsupport
}  // namespace inflex

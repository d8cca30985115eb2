#include "world.h"

#include "measure.h"
#include "util/timer.h"

namespace inflexbench {

using inflex::Result;
using inflex::Status;
using inflex::Timer;
namespace core = inflex::core;

void GenerationLog::Record(uint64_t epoch,
                           std::shared_ptr<const core::InflexIndex> index) {
  const double now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  generations_.push_back({epoch, now, std::move(index)});
}

std::vector<Generation> GenerationLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generations_;
}

Result<std::unique_ptr<World>> BuildWorld(const WorldConfig& config,
                                          uint64_t seed, SetupTimes* times) {
  auto world = std::make_unique<World>();
  world->config = config;

  Timer dataset_timer;
  inflex::data::SyntheticDatasetOptions dopts;
  dopts.num_users = config.num_users;
  dopts.num_topics = config.num_topics;
  dopts.num_items = config.num_items;
  dopts.avg_degree = config.avg_degree;
  dopts.seed = seed;
  INFLEX_ASSIGN_OR_RETURN(inflex::data::SyntheticDataset dataset,
                          inflex::data::GenerateSyntheticDataset(dopts));
  world->dataset =
      std::make_unique<inflex::data::SyntheticDataset>(std::move(dataset));
  times->dataset_s = dataset_timer.ElapsedSeconds();

  // The offline phase, parallel over the process-wide pool (one worker per
  // core).
  Timer build_timer;
  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = config.num_index_points;
  bopts.index_points.num_dirichlet_samples = config.dirichlet_samples;
  bopts.seed_list_length = config.seed_list_length;
  bopts.oracle_snapshots = config.oracle_snapshots;
  bopts.tree.max_leaf_size = config.tree_max_leaf_size;
  bopts.seed = seed + 1;
  INFLEX_ASSIGN_OR_RETURN(
      core::InflexIndex index,
      core::InflexIndex::Build(world->dataset->graph, world->dataset->catalog,
                               bopts));
  world->index = std::make_shared<const core::InflexIndex>(std::move(index));
  times->index_build_s = build_timer.ElapsedSeconds();

  // Default serving engine (4096-entry cache, 0.01 grid) and the default
  // maintainer (RIS oracle, private precompute thread); its constructor
  // prepares the oracle. The hook only records the generation.
  Timer maintainer_timer;
  world->engine = std::make_unique<core::QueryEngine>(world->index);
  world->generations.Record(0, world->index);
  core::IndexMaintainerOptions mopts;
  mopts.seed = seed + 2;
  GenerationLog* log = &world->generations;
  mopts.on_publish = [log](uint64_t epoch,
                           std::shared_ptr<const core::InflexIndex> next) {
    log->Record(epoch, std::move(next));
  };
  world->maintainer = std::make_unique<core::IndexMaintainer>(
      world->index, &world->dataset->graph, world->engine.get(), mopts);
  times->maintainer_prepare_s = maintainer_timer.ElapsedSeconds();

  Timer server_timer;
  world->server_options.bind_address = "127.0.0.1";
  world->server_options.maintainer = world->maintainer.get();
  world->server = std::make_unique<inflex::net::InflexServer>(
      world->engine.get(), world->server_options);
  INFLEX_RETURN_NOT_OK(world->server->Start());
  times->server_start_s = server_timer.ElapsedSeconds();
  return world;
}

bool SameIndex(const core::InflexIndex& a, const core::InflexIndex& b) {
  if (a.num_index_points() != b.num_index_points()) return false;
  for (uint32_t i = 0; i < a.num_index_points(); ++i) {
    if (a.seed_list(i) != b.seed_list(i)) return false;
    if (a.index_point(i) != b.index_point(i)) return false;
  }
  return true;
}

}  // namespace inflexbench

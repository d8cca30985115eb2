// The benchmark's world: a synthetic dataset, the INFLEX index built over it
// (the paper's offline phase), the serving engine, the live maintainer and
// the TCP server on loopback — everything generated from one seed.
#ifndef INFLEXBENCH_WORLD_H_
#define INFLEXBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "data/synthetic.h"
#include "inflex/index_maintainer.h"
#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "net/server.h"
#include "util/status.h"

namespace inflexbench {

/// Scale of the world: the repository's default experiment test-bed.
struct WorldConfig {
  size_t num_users = 2500;
  size_t num_topics = 8;
  size_t num_items = 3000;
  double avg_degree = 12.0;
  size_t num_index_points = 256;  // h
  size_t seed_list_length = 50;   // ℓ
  size_t dirichlet_samples = 30000;
  size_t oracle_snapshots = 100;
  size_t tree_max_leaf_size = 16;
};

/// Wall time of each set-up stage, in seconds.
struct SetupTimes {
  double dataset_s = 0.0;
  double index_build_s = 0.0;
  double maintainer_prepare_s = 0.0;
  double server_start_s = 0.0;
  double total_s() const {
    return dataset_s + index_build_s + maintainer_prepare_s + server_start_s;
  }
};

/// \brief One published index generation, as the maintainer's on_publish
/// hook saw it. Generation 0 is the built index.
struct Generation {
  uint64_t epoch = 0;
  double published_us = 0.0;
  std::shared_ptr<const inflex::core::InflexIndex> index;
};

/// \brief Every generation the maintainer published, in epoch order. The
/// hook only appends; answers are matched against it after the window.
class GenerationLog {
 public:
  void Record(uint64_t epoch,
              std::shared_ptr<const inflex::core::InflexIndex> index);
  std::vector<Generation> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Generation> generations_;  // guarded by mu_
};

/// \brief The running system under test. Members are declared in
/// dependency order, so destruction stops the server before the maintainer
/// (the server drains it) and the maintainer before the engine and log it
/// publishes to.
struct World {
  WorldConfig config;
  std::unique_ptr<inflex::data::SyntheticDataset> dataset;
  std::shared_ptr<const inflex::core::InflexIndex> index;
  std::unique_ptr<inflex::core::QueryEngine> engine;
  GenerationLog generations;
  std::unique_ptr<inflex::core::IndexMaintainer> maintainer;
  inflex::net::InflexServerOptions server_options;
  std::unique_ptr<inflex::net::InflexServer> server;

  uint16_t port() const { return server->port(); }
};

/// Builds the world from `seed` and starts the server, timing each stage.
inflex::Result<std::unique_ptr<World>> BuildWorld(const WorldConfig& config,
                                                  uint64_t seed,
                                                  SetupTimes* times);

/// True when two worlds built from one seed hold bit-identical indexes (the
/// offline phase is deterministic; a mismatch fails the run).
bool SameIndex(const inflex::core::InflexIndex& a,
               const inflex::core::InflexIndex& b);

}  // namespace inflexbench

#endif  // INFLEXBENCH_WORLD_H_

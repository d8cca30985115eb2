// inflex_serve — the INFLEX serving front end, in three modes:
//
// 1. Replay (default): replays a synthetic request trace against a built
//    index through the concurrent QueryEngine (sharded QueryCache + batched
//    ThreadPool fan-out) and prints per-batch and final serving statistics.
//    With --deltas N it additionally exercises the live maintenance plane:
//    while the replay is in flight it submits N catalog deltas to an
//    IndexMaintainer attached to the engine — admitted items get their seed
//    lists recomputed on a background thread and each result is published as
//    a new index generation (RCU swap + cache-epoch bump) under the running
//    query storm, without rejecting or blocking a single request.
//
// 2. Daemon (--listen PORT): a real TCP server speaking the INFLEX wire
//    protocol (src/net/) in front of the same engine + maintainer, with a
//    bounded admission queue and load shedding. PORT 0 binds an ephemeral
//    port; the bound port is printed as "listening on HOST:PORT". SIGINT or
//    SIGTERM drains gracefully: in-flight requests are answered, the
//    maintainer is drained, and the summary lines are printed on exit.
//    With --tenants-config FILE the daemon serves MULTIPLE tenants: one
//    engine + maintainer per configured catalog behind a TenantRegistry/
//    TenantRouter, each with its own token-bucket query budget, bounded
//    delta queue, and eviction floors. Requests carrying no tenant id (all
//    v1 clients) route to the "default" tenant. Config format, one tenant
//    per line (# comments; every key optional, 0/absent = unlimited; keys:
//    rate=QPS burst=TOKENS delta_pending=N min_points=N decay_threshold=F
//    min_age=G sweep_every=N):
//      acme rate=200 burst=50 delta_pending=8 min_points=24
//
// 3. Client (--connect PORT [--host H]): a blocking wire-protocol client for
//    smoke tests and one-liners — sends --count queries for the mixture in
//    --gamma (or --ping / --delta-id) and prints the answers. --tenant NAME
//    stamps the flag-gated tenant field into every request.
//
//   inflex_serve --data data/ --index index.bin
//                [--queries N] [--unique U] [--batch B] [--threads T]
//                [--k K] [--strategy inflex|exact|approx|approx-sel|approx-ad]
//                [--cache-capacity C] [--shards S] [--quantization Q]
//                [--no-cache] [--seed S]
//                [--deltas D] [--admission-threshold T] [--delta-snapshots S]
//                [--oracle celfpp|ris]
//   inflex_serve --data data/ --index index.bin --listen PORT
//                [--io-threads N] [--workers W] [--worker-batch B]
//                [--queue-high H]
//                [--queue-low L] [--retry-after-ms R] [--deadline-ms D]
//                [--pending-high P] [--tenants-config FILE]
//                [...engine/maintainer options above]
//   inflex_serve --connect PORT [--host H] [--gamma P1,P2,...] [--count N]
//                [--k K] [--strategy ...] [--deadline-ms D]
//                [--ping] [--delta-id ID] [--timeout-ms T] [--tenant NAME]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset_io.h"
#include "data/workload.h"
#include "inflex/index_maintainer.h"
#include "inflex/query_engine.h"
#include "net/client.h"
#include "oracle/spread_oracle.h"
#include "net/server.h"
#include "tenant/tenant_registry.h"
#include "tenant/tenant_router.h"
#include "util/args.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace inflex {
namespace {

std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Upper bounds of the integer options that narrow into fixed-width fields:
// wire millisecond fields are uint32, ports uint16.
constexpr int64_t kMaxMillis = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMaxPort = std::numeric_limits<uint16_t>::max();

/// Extreme near-corner topic mixtures: maximally far (in KL) from the
/// data-driven index points, so a delta stream built from them reliably
/// exercises the admission→precompute→publish pipeline.
core::CatalogDelta MakeCornerDelta(size_t i, size_t num_topics) {
  const double mass = i % 2 == 0 ? 0.9997 : 0.999;
  std::vector<double> probs(num_topics,
                            (1.0 - mass) / static_cast<double>(num_topics - 1));
  probs[i % num_topics] = mass;
  core::CatalogDelta delta;
  delta.id = "delta-" + std::to_string(i);
  delta.item = simplex::TopicDistribution::Create(std::move(probs)).ValueOrDie();
  return delta;
}

Result<core::QueryStrategy> ParseStrategy(const std::string& name) {
  if (name == "inflex") return core::QueryStrategy::kInflex;
  if (name == "exact") return core::QueryStrategy::kExactKnn;
  if (name == "approx") return core::QueryStrategy::kApproxKnn;
  if (name == "approx-sel") return core::QueryStrategy::kApproxKnnSel;
  if (name == "approx-ad") return core::QueryStrategy::kApproxAd;
  return Status::InvalidArgument("unknown strategy: " + name);
}

/// Everything the replay and daemon modes share: dataset, index, pool,
/// engine, and (optionally) a maintainer attached to the engine. Multi-
/// tenant daemons skip the single engine/maintainer and build one per
/// tenant into `registry` instead, from the same option templates.
struct ServingStack {
  data::SyntheticDataset dataset;
  std::shared_ptr<core::InflexIndex> index;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<core::QueryEngine> engine;
  std::unique_ptr<core::IndexMaintainer> maintainer;
  /// Args-derived option templates (always filled; per-tenant construction
  /// starts from these and applies the config-file overrides).
  core::QueryEngineOptions engine_opts;
  core::IndexMaintainerOptions maintainer_opts;
  /// Multi-tenant mode only (--tenants-config). Declared in the stack so
  /// they outlive the InflexServer created later in RunDaemon.
  std::unique_ptr<tenant::TenantRegistry> registry;
  std::unique_ptr<tenant::TenantRouter> router;
};

/// One parsed --tenants-config line.
struct TenantSpec {
  std::string name;
  tenant::TenantBudget budget;
  /// Per-tenant eviction-floor / decay overrides (negative = inherit the
  /// args-derived template).
  double decay_threshold = -1.0;
  int64_t min_points = -1;
  int64_t min_age = -1;
  int64_t sweep_every = -1;
};

/// Parses the line-based tenants config (see the file header comment).
Result<std::vector<TenantSpec>> ParseTenantsConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open tenants config: " + path);
  }
  std::vector<TenantSpec> specs;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string name;
    if (!(tokens >> name) || name[0] == '#') continue;
    TenantSpec spec;
    spec.name = name;
    std::string kv;
    while (tokens >> kv) {
      const size_t eq = kv.find('=');
      const std::string where =
          path + ":" + std::to_string(line_no) + ": '" + kv + "'";
      if (eq == std::string::npos || eq == 0 || eq + 1 >= kv.size()) {
        return Status::InvalidArgument("expected key=value at " + where);
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      char* end = nullptr;
      const double num = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || num < 0.0) {
        return Status::InvalidArgument("bad numeric value at " + where);
      }
      if (key == "rate") {
        spec.budget.query_rate_per_sec = num;
      } else if (key == "burst") {
        spec.budget.query_burst = num;
      } else if (key == "delta_pending") {
        spec.budget.delta_pending_limit = static_cast<size_t>(num);
      } else if (key == "min_points") {
        spec.min_points = static_cast<int64_t>(num);
      } else if (key == "decay_threshold") {
        spec.decay_threshold = num;
      } else if (key == "min_age") {
        spec.min_age = static_cast<int64_t>(num);
      } else if (key == "sweep_every") {
        spec.sweep_every = static_cast<int64_t>(num);
      } else {
        return Status::InvalidArgument("unknown tenant option at " + where);
      }
    }
    for (const TenantSpec& s : specs) {
      if (s.name == spec.name) {
        return Status::InvalidArgument("duplicate tenant '" + spec.name +
                                       "' in " + path);
      }
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    return Status::InvalidArgument("tenants config " + path +
                                   " defines no tenants");
  }
  return specs;
}

// --------------------------------------------------------------------------
// Client mode: --connect PORT
// --------------------------------------------------------------------------

int RunClient(ArgParser& args, uint16_t port) {
  const std::string host = args.GetString("host", "127.0.0.1");
  auto count = args.GetInt("count", 1, 0);
  auto k = args.GetInt("k", 10, 1);
  auto deadline = args.GetInt("deadline-ms", 0, 0, kMaxMillis);
  auto timeout = args.GetDouble("timeout-ms", 10000.0);
  auto gamma = args.GetDoubleList("gamma");
  const std::string strategy_name = args.GetString("strategy", "inflex");
  const std::string delta_id = args.GetString("delta-id", "");
  const std::string tenant_id = args.GetString("tenant", "");
  const bool ping = args.HasFlag("ping");
  const bool quiet = args.HasFlag("quiet");
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  for (const auto* r : {&count, &k, &deadline}) {
    if (!r->ok()) return Fail(r->status());
  }
  if (!timeout.ok()) return Fail(timeout.status());
  auto strategy = ParseStrategy(strategy_name);
  if (!strategy.ok()) return Fail(strategy.status());

  auto client =
      net::InflexClient::Connect(host, port, timeout.ValueOrDie());
  if (!client.ok()) return Fail(client.status());
  net::InflexClient& c = client.ValueOrDie();
  c.set_tenant(tenant_id);

  if (ping) {
    auto resp = c.Ping();
    if (!resp.ok()) return Fail(resp.status());
    std::printf("ping %s | epoch %llu\n",
                net::WireStatusName(resp.ValueOrDie().status),
                static_cast<unsigned long long>(resp.ValueOrDie().epoch));
    return resp.ValueOrDie().ok() ? 0 : 1;
  }

  if (!delta_id.empty()) {
    if (!gamma.ok()) return Fail(gamma.status());
    auto resp = c.SubmitDelta(delta_id, gamma.ValueOrDie());
    if (!resp.ok()) return Fail(resp.status());
    const net::WireResponse& r = resp.ValueOrDie();
    const char* outcome =
        r.delta_outcome > 0
            ? core::DeltaOutcomeName(
                  static_cast<core::DeltaOutcome>(r.delta_outcome - 1))
            : net::WireStatusName(r.status);
    std::printf("delta %s: %s (epoch %llu)\n", delta_id.c_str(), outcome,
                static_cast<unsigned long long>(r.epoch));
    return r.ok() ? 0 : 1;
  }

  if (!gamma.ok()) return Fail(gamma.status());
  auto item = simplex::TopicDistribution::Create(gamma.ValueOrDie());
  if (!item.ok()) return Fail(item.status());
  core::QueryRequest request;
  request.item = std::move(item).ValueOrDie();
  request.k = static_cast<size_t>(k.ValueOrDie());
  request.options.strategy = strategy.ValueOrDie();

  size_t ok = 0, overloaded = 0, expired = 0, failed = 0;
  for (int64_t i = 0; i < count.ValueOrDie(); ++i) {
    auto resp =
        c.Query(request, static_cast<uint32_t>(deadline.ValueOrDie()));
    if (!resp.ok()) return Fail(resp.status());
    const net::WireResponse& r = resp.ValueOrDie();
    switch (r.status) {
      case net::WireStatus::kOk:
        ++ok;
        if (!quiet) {
          std::printf("seeds:");
          for (uint32_t s : r.seeds) std::printf(" %u", s);
          std::printf(" | epoch %llu%s | engine %.3f ms + queue %.3f ms\n",
                      static_cast<unsigned long long>(r.epoch),
                      r.from_cache ? " | cached" : "", r.engine_ms,
                      r.queue_ms);
        }
        break;
      case net::WireStatus::kOverloaded:
        ++overloaded;
        if (!quiet) {
          std::printf("overloaded (retry after %u ms)\n", r.retry_after_ms);
        }
        break;
      case net::WireStatus::kDeadlineExceeded:
        ++expired;
        if (!quiet) std::printf("deadline exceeded\n");
        break;
      default:
        ++failed;
        std::fprintf(stderr, "query failed: %s %s\n",
                     net::WireStatusName(r.status), r.message.c_str());
        break;
    }
  }
  std::printf("%zu ok, %zu overloaded, %zu expired, %zu failed\n", ok,
              overloaded, expired, failed);
  return failed == 0 ? 0 : 1;
}

// --------------------------------------------------------------------------
// Shared engine construction (replay + daemon)
// --------------------------------------------------------------------------

Result<std::unique_ptr<ServingStack>> BuildStack(
    ArgParser& args, const std::string& data_dir,
    const std::string& index_path, bool with_maintainer,
    bool with_engine = true) {
  auto threads = args.GetInt("threads", 0, 0);  // 0 = hardware concurrency
  auto capacity = args.GetInt("cache-capacity", 4096, 1);
  auto shards = args.GetInt("shards", 16, 0);
  auto quantization = args.GetDouble("quantization", 0.01);
  auto seed = args.GetInt("seed", 7);
  auto admission = args.GetDouble("admission-threshold", 0.05);
  auto delta_snapshots = args.GetInt("delta-snapshots", 30, 1);
  auto pending_high = args.GetInt("pending-high", 0, 0);
  // --oracle picks the stage-2 seed-precompute backend; ris (the default,
  // quality-gate-verified against exact-CELF++ goldens — DESIGN.md §15)
  // gives the cheap admission-time precompute, --oracle celfpp reproduces
  // the historical snapshot-CELF++ path bit-for-bit. Validated up front so
  // a typo fails fast even in replay mode (which never builds a
  // maintainer).
  INFLEX_ASSIGN_OR_RETURN(
      const oracle::OracleBackend oracle_backend,
      oracle::ParseOracleBackend(args.GetString("oracle", "ris")));
  const bool no_cache = args.HasFlag("no-cache");
  for (const auto* r :
       {&threads, &capacity, &shards, &seed, &delta_snapshots, &pending_high}) {
    INFLEX_RETURN_NOT_OK(r->status());
  }
  INFLEX_RETURN_NOT_OK(quantization.status());
  INFLEX_RETURN_NOT_OK(admission.status());

  auto stack = std::make_unique<ServingStack>();
  auto ds = data::LoadDataset(data_dir);
  INFLEX_RETURN_NOT_OK(ds.status());
  stack->dataset = std::move(ds).ValueOrDie();
  auto index = core::InflexIndex::Load(index_path, &stack->dataset.graph);
  INFLEX_RETURN_NOT_OK(index.status());
  stack->index =
      std::make_shared<core::InflexIndex>(std::move(index).ValueOrDie());

  stack->pool = std::make_unique<ThreadPool>(
      static_cast<size_t>(threads.ValueOrDie()));
  core::QueryEngineOptions& eopts = stack->engine_opts;
  eopts.pool = stack->pool.get();
  eopts.enable_cache = !no_cache;
  eopts.cache.capacity = static_cast<size_t>(capacity.ValueOrDie());
  eopts.cache.num_shards = static_cast<size_t>(shards.ValueOrDie());
  eopts.cache.quantization = quantization.ValueOrDie();

  core::IndexMaintainerOptions& mopts = stack->maintainer_opts;
  mopts.admission_threshold = admission.ValueOrDie();
  mopts.oracle.num_snapshots =
      static_cast<size_t>(delta_snapshots.ValueOrDie());
  mopts.oracle.backend = oracle_backend;
  mopts.seed = static_cast<uint64_t>(seed.ValueOrDie()) + 100;
  mopts.pending_high_watermark =
      static_cast<size_t>(pending_high.ValueOrDie());

  if (!with_engine) return stack;  // multi-tenant: built per tenant instead

  stack->engine =
      std::make_unique<core::QueryEngine>(stack->index, eopts);
  if (with_maintainer) {
    core::IndexMaintainerOptions single = mopts;
    single.on_publish = [](uint64_t epoch,
                           std::shared_ptr<const core::InflexIndex> gen) {
      std::printf("  maintenance: published generation %llu "
                  "(%zu index points)\n",
                  static_cast<unsigned long long>(epoch),
                  gen->num_index_points());
      std::fflush(stdout);
    };
    stack->maintainer = std::make_unique<core::IndexMaintainer>(
        stack->index, &stack->dataset.graph, stack->engine.get(), single);
  }
  return stack;
}

/// Builds the multi-tenant registry + router from the parsed config: one
/// owned engine + maintainer per tenant, all from the args-derived templates
/// with per-tenant budget/eviction overrides. A "default" tenant is always
/// registered (unlimited unless the config names it) so v1 traffic keeps
/// working.
Status BuildTenants(ServingStack* stack, std::vector<TenantSpec> specs) {
  const bool has_default = std::any_of(
      specs.begin(), specs.end(), [](const TenantSpec& s) {
        return s.name == tenant::kDefaultTenantId;
      });
  if (!has_default) {
    TenantSpec def;
    def.name = tenant::kDefaultTenantId;
    specs.insert(specs.begin(), std::move(def));
  }
  stack->registry = std::make_unique<tenant::TenantRegistry>();
  stack->router =
      std::make_unique<tenant::TenantRouter>(stack->registry.get());
  for (const TenantSpec& spec : specs) {
    tenant::TenantOptions topts;
    topts.id = spec.name;
    topts.budget = spec.budget;
    topts.engine = stack->engine_opts;
    topts.maintainer = stack->maintainer_opts;
    if (spec.decay_threshold >= 0.0) {
      topts.maintainer.eviction_score_threshold = spec.decay_threshold;
    }
    if (spec.min_points >= 0) {
      topts.maintainer.min_index_points = static_cast<size_t>(spec.min_points);
    }
    if (spec.min_age >= 0) {
      topts.maintainer.min_point_age_generations =
          static_cast<size_t>(spec.min_age);
    }
    if (spec.sweep_every >= 0) {
      topts.maintainer.auto_sweep_every = static_cast<size_t>(spec.sweep_every);
    }
    // Sweeps key off hit scores; a tenant that tunes its eviction policy
    // gets hit accounting switched on so those knobs actually bite.
    if (spec.sweep_every > 0 || spec.min_points >= 0 ||
        spec.decay_threshold >= 0.0) {
      topts.engine.enable_hit_accounting = true;
    }
    const std::string name = spec.name;
    topts.maintainer.on_publish =
        [name](uint64_t epoch, std::shared_ptr<const core::InflexIndex> gen) {
          std::printf("  maintenance[%s]: published generation %llu "
                      "(%zu index points)\n",
                      name.c_str(), static_cast<unsigned long long>(epoch),
                      gen->num_index_points());
          std::fflush(stdout);
        };
    auto created = stack->registry->CreateTenant(topts, stack->index,
                                                 &stack->dataset.graph);
    INFLEX_RETURN_NOT_OK(created.status());
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Daemon mode: --listen PORT
// --------------------------------------------------------------------------

int RunDaemon(ArgParser& args, uint16_t port, const std::string& data_dir,
              const std::string& index_path) {
  auto io_threads = args.GetInt("io-threads", 1, 0);
  auto workers = args.GetInt("workers", 4, 0);
  auto worker_batch = args.GetInt("worker-batch", 8, 0);
  auto queue_high = args.GetInt("queue-high", 1024, 0);
  auto queue_low = args.GetInt("queue-low", 0, 0);
  auto retry_after = args.GetInt("retry-after-ms", 50, 0, kMaxMillis);
  auto deadline = args.GetInt("deadline-ms", 0, 0, kMaxMillis);
  const std::string tenants_config = args.GetString("tenants-config", "");
  for (const auto* r : {&io_threads, &workers, &worker_batch, &queue_high,
                        &queue_low, &retry_after, &deadline}) {
    if (!r->ok()) return Fail(r->status());
  }
  const bool multi_tenant = !tenants_config.empty();

  auto stack = BuildStack(args, data_dir, index_path, /*with_maintainer=*/true,
                          /*with_engine=*/!multi_tenant);
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (!stack.ok()) return Fail(stack.status());
  ServingStack& s = *stack.ValueOrDie();

  if (multi_tenant) {
    auto specs = ParseTenantsConfig(tenants_config);
    if (!specs.ok()) return Fail(specs.status());
    if (auto st = BuildTenants(&s, std::move(specs).ValueOrDie()); !st.ok()) {
      return Fail(st);
    }
  }

  net::InflexServerOptions sopts;
  sopts.port = port;
  sopts.io_threads = static_cast<size_t>(io_threads.ValueOrDie());
  sopts.num_workers = static_cast<size_t>(workers.ValueOrDie());
  sopts.max_worker_batch = static_cast<size_t>(worker_batch.ValueOrDie());
  sopts.queue_high_watermark = static_cast<size_t>(queue_high.ValueOrDie());
  sopts.queue_low_watermark = static_cast<size_t>(queue_low.ValueOrDie());
  sopts.retry_after_ms = static_cast<uint32_t>(retry_after.ValueOrDie());
  sopts.default_deadline_ms = static_cast<uint32_t>(deadline.ValueOrDie());
  core::QueryEngine* front_engine = s.engine.get();
  if (multi_tenant) {
    sopts.router = s.router.get();
    // Global queue-depth mirroring lands on the default tenant's engine.
    front_engine =
        s.registry->Resolve(tenant::kDefaultTenantId)->engine();
  } else {
    sopts.maintainer = s.maintainer.get();
  }
  net::InflexServer server(front_engine, sopts);
  if (auto st = server.Start(); !st.ok()) return Fail(st);

  std::printf("listening on %s:%u (%zu io loops, %zu workers, queue high %zu",
              sopts.bind_address.c_str(), server.port(), sopts.io_threads,
              sopts.num_workers, sopts.queue_high_watermark);
  if (multi_tenant) {
    std::printf(", %zu tenants", s.registry->size());
  }
  std::printf(")\n");
  std::fflush(stdout);

  struct sigaction sa {};
  sa.sa_handler = HandleShutdownSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("shutting down: draining in-flight requests\n");
  server.Stop();
  std::printf("net serving summary: %s\n", server.stats().ToString().c_str());
  if (multi_tenant) {
    for (const auto& t : s.registry->List()) {
      std::printf("%s\n", t->Snapshot().ToString().c_str());
    }
  } else {
    std::printf("engine summary: %s\n",
                s.engine->cumulative_stats().ToString().c_str());
    if (s.maintainer != nullptr) {
      std::printf("maintenance summary: %s\n",
                  s.maintainer->stats().ToString().c_str());
    }
  }
  std::printf("drained cleanly\n");
  return 0;
}

// --------------------------------------------------------------------------
// Replay mode (default)
// --------------------------------------------------------------------------

int RunReplay(ArgParser& args, const std::string& data_dir,
              const std::string& index_path) {
  auto queries = args.GetInt("queries", 4096, 0);
  auto unique = args.GetInt("unique", 128, 1);
  auto batch = args.GetInt("batch", 512, 1);
  auto k = args.GetInt("k", 10, 1);
  auto seed = args.GetInt("seed", 7);
  auto deltas = args.GetInt("deltas", 0, 0);
  const std::string strategy_name = args.GetString("strategy", "inflex");
  for (const auto* r : {&queries, &unique, &batch, &k, &seed, &deltas}) {
    if (!r->ok()) return Fail(r->status());
  }
  auto strategy = ParseStrategy(strategy_name);
  if (!strategy.ok()) return Fail(strategy.status());
  const size_t num_deltas = static_cast<size_t>(deltas.ValueOrDie());

  auto stack = BuildStack(args, data_dir, index_path,
                          /*with_maintainer=*/num_deltas > 0);
  if (auto st = args.Validate(); !st.ok()) return Fail(st);
  if (!stack.ok()) return Fail(stack.status());
  ServingStack& s = *stack.ValueOrDie();

  // Build the request trace: `unique` distinct mixtures drawn like real
  // queries (half data-driven, half uniform), replayed with repetition up to
  // `queries` requests — the repetition profile is what the cache collapses.
  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = static_cast<size_t>(unique.ValueOrDie()) / 2;
  wopts.num_uniform =
      static_cast<size_t>(unique.ValueOrDie()) - wopts.num_data_driven;
  wopts.seed = static_cast<uint64_t>(seed.ValueOrDie());
  auto workload = data::GenerateQueryWorkload(s.dataset.catalog, wopts);
  if (!workload.ok()) return Fail(workload.status());
  const auto& mixtures = workload.ValueOrDie().queries;
  Rng rng(static_cast<uint64_t>(seed.ValueOrDie()) + 1);
  std::vector<core::QueryRequest> trace;
  trace.reserve(static_cast<size_t>(queries.ValueOrDie()));
  for (size_t i = 0; i < static_cast<size_t>(queries.ValueOrDie()); ++i) {
    core::QueryRequest r;
    r.item = mixtures[i < mixtures.size() ? i : rng.UniformInt(mixtures.size())];
    r.k = static_cast<size_t>(k.ValueOrDie());
    r.options.strategy = strategy.ValueOrDie();
    trace.push_back(std::move(r));
  }

  std::printf("serving %zu requests (%zu unique mixtures, k=%lld, %s) in "
              "batches of %lld across %zu threads\n",
              trace.size(), mixtures.size(),
              static_cast<long long>(k.ValueOrDie()), strategy_name.c_str(),
              static_cast<long long>(batch.ValueOrDie()),
              s.pool->num_threads());

  Timer total;
  const size_t batch_size = static_cast<size_t>(batch.ValueOrDie());
  size_t batch_no = 0;
  size_t deltas_sent = 0;
  for (size_t start = 0; start < trace.size(); start += batch_size) {
    // Interleave catalog deltas with the replay so generation swaps land
    // while requests are in flight. SubmitDelta never blocks on the
    // precompute — admission is a microsecond tree probe.
    if (s.maintainer != nullptr && deltas_sent < num_deltas) {
      const auto delta =
          MakeCornerDelta(deltas_sent++, s.index->num_topics());
      auto receipt = s.maintainer->SubmitDelta(delta);
      if (!receipt.ok()) return Fail(receipt.status());
      std::printf("  delta %s: %s (min divergence %.4f)\n", delta.id.c_str(),
                  core::DeltaOutcomeName(receipt.ValueOrDie().outcome),
                  receipt.ValueOrDie().min_divergence);
    }
    const size_t stop = std::min(trace.size(), start + batch_size);
    std::span<const core::QueryRequest> slice(trace.data() + start,
                                              stop - start);
    core::ServingStats stats;
    s.engine->QueryBatch(slice, &stats);
    std::printf("  batch %zu: %s\n", ++batch_no, stats.ToString().c_str());
  }
  // More deltas than batches: flush the rest of the stream.
  for (; s.maintainer != nullptr && deltas_sent < num_deltas; ++deltas_sent) {
    const auto delta = MakeCornerDelta(deltas_sent, s.index->num_topics());
    auto receipt = s.maintainer->SubmitDelta(delta);
    if (!receipt.ok()) return Fail(receipt.status());
    std::printf("  delta %s: %s (min divergence %.4f)\n", delta.id.c_str(),
                core::DeltaOutcomeName(receipt.ValueOrDie().outcome),
                receipt.ValueOrDie().min_divergence);
  }
  const double wall_s = total.ElapsedSeconds();

  const auto stats = s.engine->cumulative_stats();
  std::printf("served %zu requests in %.2f s -> %.0f QPS overall | "
              "hit rate %.1f%% | %zu failed | cache holds %zu entries\n",
              stats.num_requests, wall_s,
              static_cast<double>(stats.num_requests) / wall_s,
              100.0 * stats.hit_rate(), stats.num_failed,
              s.engine->cache().size());

  if (s.maintainer != nullptr) {
    s.maintainer->Drain();
    const auto mstats = s.maintainer->stats();
    std::printf("maintenance summary: %s | engine epoch %llu\n",
                mstats.ToString().c_str(),
                static_cast<unsigned long long>(s.engine->index_epoch()));
    if (mstats.admitted == 0 || mstats.failed != 0) {
      std::fprintf(stderr,
                   "error: delta demo expected >=1 admission and no "
                   "failures\n");
      return 1;
    }
  }
  return stats.num_failed == 0 ? 0 : 1;
}

int Run(ArgParser& args) {
  // -1 (the default) leaves the mode off; otherwise a TCP port.
  auto connect = args.GetInt("connect", -1, -1, kMaxPort);
  auto listen = args.GetInt("listen", -1, -1, kMaxPort);
  for (const auto* r : {&connect, &listen}) {
    if (!r->ok()) return Fail(r->status());
  }
  if (connect.ValueOrDie() >= 0) {
    return RunClient(args, static_cast<uint16_t>(connect.ValueOrDie()));
  }

  const std::string data_dir = args.GetString("data", "");
  const std::string index_path = args.GetString("index", "");
  if (data_dir.empty() || index_path.empty()) {
    return Fail(Status::InvalidArgument("--data and --index are required"));
  }
  if (listen.ValueOrDie() >= 0) {
    return RunDaemon(args, static_cast<uint16_t>(listen.ValueOrDie()),
                     data_dir, index_path);
  }
  return RunReplay(args, data_dir, index_path);
}

}  // namespace
}  // namespace inflex

int main(int argc, char** argv) {
  using namespace inflex;  // NOLINT
  ArgParser args(argc, argv);  // the parser skips argv[0] itself
  return Run(args);
}

// Tests for the multi-tenant catalog layer (src/tenant/): RCU tenant-table
// lifecycle (create/drop/lookup under concurrency), deterministic
// token-bucket admission budgets via the router's injectable clock,
// per-tenant eviction floors (one tenant's decay sweep never touches a
// neighbor's index points), and a multi-tenant wire storm with concurrent
// tenant create/drop under live per-tenant generation publishing whose
// every answer replays bit-identically against the generation — of the
// tenant — that served it (run under TSan by run_sanitized_stress.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "inflex/index_maintainer.h"
#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "simplex/sampling.h"
#include "tenant/tenant_registry.h"
#include "tenant/tenant_router.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace inflex {
namespace {

class TenantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 220;
    dopts.num_topics = 4;
    dopts.num_items = 70;
    dopts.seed = 616;
    auto ds = data::GenerateSyntheticDataset(dopts);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());
    core::InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 20;
    bopts.index_points.num_dirichlet_samples = 2000;
    bopts.seed_list_length = 12;
    bopts.oracle_snapshots = 30;
    auto index =
        core::InflexIndex::Build(dataset_->graph, dataset_->catalog, bopts);
    ASSERT_TRUE(index.ok());
    index_ = std::make_shared<core::InflexIndex>(
        std::move(index).ValueOrDie());
  }
  static void TearDownTestSuite() {
    index_.reset();
    delete dataset_;
    dataset_ = nullptr;
  }

  /// A far-corner mixture: certain admission against this index.
  static simplex::TopicDistribution Corner(size_t topic,
                                           double mass = 0.9997) {
    std::vector<double> gamma(4, (1.0 - mass) / 3.0);
    gamma[topic] = mass;
    return simplex::TopicDistribution::Create(gamma).ValueOrDie();
  }

  /// Deterministic mixed workload (no segment masks: every request must
  /// succeed so storm answers replay unconditionally).
  static std::vector<core::QueryRequest> MakeWorkload(size_t n,
                                                      uint64_t seed) {
    Rng rng(seed);
    std::vector<core::QueryRequest> reqs;
    reqs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      core::QueryRequest r;
      r.item = simplex::TopicDistribution::Create(
                   simplex::SampleUniformSimplex(4, &rng))
                   .ValueOrDie();
      r.k = 3 + (i % 3) * 4;
      switch (i % 3) {
        case 0:
          r.options.strategy = core::QueryStrategy::kInflex;
          break;
        case 1:
          r.options.strategy = core::QueryStrategy::kExactKnn;
          break;
        case 2:
          r.options.strategy = core::QueryStrategy::kApproxKnnSel;
          break;
      }
      reqs.push_back(std::move(r));
    }
    return reqs;
  }

  static data::SyntheticDataset* dataset_;
  static std::shared_ptr<core::InflexIndex> index_;
};

data::SyntheticDataset* TenantTest::dataset_ = nullptr;
std::shared_ptr<core::InflexIndex> TenantTest::index_;

// ---------------------------------------------------------------------------
// Registry lifecycle
// ---------------------------------------------------------------------------

TEST_F(TenantTest, RegistryCreateLookupDropLifecycle) {
  ThreadPool pool(2);
  tenant::TenantRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Lookup("acme"), nullptr);
  EXPECT_EQ(registry.Resolve(""), nullptr);  // no default registered yet

  tenant::TenantOptions topts;
  topts.engine.pool = &pool;
  topts.with_maintainer = false;
  topts.id = "";
  EXPECT_FALSE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  const tenant::TenantOptions no_index{
      .id = "x", .budget = {}, .engine = {}, .maintainer = {}};
  EXPECT_FALSE(
      registry.CreateTenant(no_index, nullptr, &dataset_->graph).ok());

  topts.id = tenant::kDefaultTenantId;
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  topts.id = "acme";
  auto acme = registry.CreateTenant(topts, index_, &dataset_->graph);
  ASSERT_TRUE(acme.ok());
  EXPECT_EQ(registry.size(), 2u);

  // Duplicate ids are rejected, not replaced.
  EXPECT_EQ(
      registry.CreateTenant(topts, index_, &dataset_->graph).status().code(),
      StatusCode::kAlreadyExists);

  // Lock-free lookup and the v1 empty-id resolution rule.
  EXPECT_EQ(registry.Lookup("acme"), acme.ValueOrDie());
  EXPECT_EQ(registry.Resolve("")->id(), tenant::kDefaultTenantId);
  EXPECT_EQ(registry.Resolve("acme"), acme.ValueOrDie());
  EXPECT_EQ(registry.Lookup("ghost"), nullptr);

  // List is sorted by id for deterministic iteration.
  const auto listed = registry.List();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0]->id(), "acme");
  EXPECT_EQ(listed[1]->id(), tenant::kDefaultTenantId);

  // A query-only tenant exposes no maintenance plane.
  EXPECT_EQ(acme.ValueOrDie()->maintainer(), nullptr);
  EXPECT_FALSE(acme.ValueOrDie()->Snapshot().has_maintainer);

  // Drop unpublishes immediately; holders keep the tenant alive.
  std::shared_ptr<tenant::Tenant> pinned = registry.Lookup("acme");
  ASSERT_TRUE(registry.DropTenant("acme").ok());
  EXPECT_EQ(registry.Lookup("acme"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.DropTenant("acme").code(), StatusCode::kNotFound);
  EXPECT_NE(pinned->engine(), nullptr);  // still serveable while pinned
}

TEST_F(TenantTest, AdoptedTenantWrapsExternalStack) {
  ThreadPool pool(2);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  core::IndexMaintainerOptions mopts;
  mopts.oracle.num_snapshots = 10;
  core::IndexMaintainer maintainer(index_, &dataset_->graph, &engine, mopts);

  tenant::TenantRegistry registry;
  auto adopted =
      registry.AdoptTenant("wrapped", tenant::TenantBudget{}, &engine,
                           &maintainer);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.ValueOrDie()->engine(), &engine);
  EXPECT_EQ(adopted.ValueOrDie()->maintainer(), &maintainer);
  EXPECT_TRUE(adopted.ValueOrDie()->Snapshot().has_maintainer);
  ASSERT_TRUE(registry.DropTenant("wrapped").ok());
}

// ---------------------------------------------------------------------------
// Token-bucket budgets (deterministic via the router's injectable clock)
// ---------------------------------------------------------------------------

TEST_F(TenantTest, TokenBucketEnforcesBurstAndRefillRate) {
  ThreadPool pool(2);
  tenant::TenantRegistry registry;
  tenant::TenantOptions topts;
  topts.engine.pool = &pool;
  topts.with_maintainer = false;
  topts.id = "limited";
  topts.budget.query_rate_per_sec = 5.0;
  topts.budget.query_burst = 3.0;
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  topts.id = "open";
  topts.budget = tenant::TenantBudget{};  // unlimited
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());

  std::atomic<uint64_t> now_ns{0};
  tenant::TenantRouter::Options ropts;
  ropts.clock_ns = [&now_ns] { return now_ns.load(); };
  tenant::TenantRouter router(&registry, ropts);

  // The bucket primes full: the burst is spendable immediately.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(router.RouteQuery("limited").decision,
              tenant::RouteDecision::kOk)
        << "burst query " << i;
  }
  tenant::Route shed = router.RouteQuery("limited");
  EXPECT_EQ(shed.decision, tenant::RouteDecision::kShedQuery);
  ASSERT_NE(shed.tenant, nullptr);  // set so callers can stamp counters
  EXPECT_EQ(shed.tenant->id(), "limited");

  // 5 tokens/s: 200 ms buys exactly one query, and tokens cap at the burst.
  now_ns.fetch_add(200'000'000ull);
  EXPECT_EQ(router.RouteQuery("limited").decision,
            tenant::RouteDecision::kOk);
  EXPECT_EQ(router.RouteQuery("limited").decision,
            tenant::RouteDecision::kShedQuery);
  now_ns.fetch_add(3'600'000'000'000ull);  // an hour refills to burst, not 18k
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(router.RouteQuery("limited").decision,
              tenant::RouteDecision::kOk)
        << "post-idle query " << i;
  }
  EXPECT_EQ(router.RouteQuery("limited").decision,
            tenant::RouteDecision::kShedQuery);

  // An unlimited tenant never sheds; unknown ids never route.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(router.RouteQuery("open").decision, tenant::RouteDecision::kOk);
  }
  tenant::Route unknown = router.RouteQuery("ghost");
  EXPECT_EQ(unknown.decision, tenant::RouteDecision::kUnknownTenant);
  EXPECT_EQ(unknown.tenant, nullptr);

  // Deltas resolve + count, but are never bucket-charged (back-pressure is
  // the tenant maintainer's pending watermark).
  EXPECT_EQ(router.RouteDelta("limited").decision, tenant::RouteDecision::kOk);

  const tenant::TenantStats stats = registry.Lookup("limited")->Snapshot();
  EXPECT_EQ(stats.queries_admitted, 7u);
  EXPECT_EQ(stats.queries_shed, 3u);
  EXPECT_EQ(stats.serving.shed_count, 3u);  // mirrored into serving stats
  EXPECT_EQ(stats.deltas_routed, 1u);
  EXPECT_EQ(registry.Lookup("open")->Snapshot().queries_shed, 0u);
}

// ---------------------------------------------------------------------------
// Per-tenant eviction floors (satellite: maintainer knobs are per tenant)
// ---------------------------------------------------------------------------

// Two tenants run the identical churn + heat + sweep scenario but with
// different min_index_points floors; a third tenant idles. Each sweep must
// respect its own tenant's floor, and the idle tenant's generation pointer
// must come through the whole scenario untouched.
TEST_F(TenantTest, DecaySweepsHonorPerTenantFloorsAndNeverCrossTenants) {
  ThreadPool pool(4);
  tenant::TenantRegistry registry;
  const size_t base_points = index_->num_index_points();  // 20

  auto make_tenant = [&](const std::string& id, size_t floor) {
    tenant::TenantOptions topts;
    topts.id = id;
    topts.engine.pool = &pool;
    topts.engine.enable_hit_accounting = true;
    topts.maintainer.admission_threshold = 0.05;
    topts.maintainer.oracle.num_snapshots = 10;
    topts.maintainer.max_batch_delay_ms = 0.0;
    topts.maintainer.min_index_points = floor;
    ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok())
        << id;
  };
  make_tenant("tight", base_points + 1);   // sweep may evict at most 1
  make_tenant("loose", base_points - 4);   // sweep may evict up to 6
  make_tenant("idle", base_points);

  auto run_scenario = [&](const std::string& id) {
    std::shared_ptr<tenant::Tenant> t = registry.Lookup(id);
    ASSERT_NE(t, nullptr);
    core::IndexMaintainer* maintainer = t->maintainer();
    // Two certain admissions age the base points past the sweep's
    // min_point_age_generations grace period (2 publications).
    for (size_t c = 0; c < 2; ++c) {
      core::CatalogDelta delta;
      delta.id = id + "-churn-" + std::to_string(c);
      delta.item = Corner(c);
      auto receipt = maintainer->SubmitDelta(delta);
      ASSERT_TRUE(receipt.ok());
      ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
      maintainer->Drain();
    }
    // Heat the churn points and the first 4 base points (ε-exact queries
    // credit exactly their own point); base points 4..19 stay cold.
    auto snapshot = t->engine()->index_snapshot();
    for (size_t rep = 0; rep < 3; ++rep) {
      for (uint32_t id_hot = 0; id_hot < 4; ++id_hot) {
        core::QueryRequest req;
        req.item = simplex::TopicDistribution::Create(
                       snapshot->index_point(id_hot))
                       .ValueOrDie();
        req.k = 8;
        ASSERT_TRUE(t->engine()->Query(req).ok());
      }
      for (size_t c = 0; c < 2; ++c) {
        core::QueryRequest req;
        req.item = Corner(c);
        req.k = 8;
        ASSERT_TRUE(t->engine()->Query(req).ok());
      }
    }
    maintainer->RequestDecaySweep();
    maintainer->Drain();
  };
  run_scenario("tight");
  run_scenario("loose");

  // 22 points going in, 16 cold eviction candidates: each tenant's sweep
  // stops at ITS OWN floor.
  const core::MaintenanceStats tight =
      registry.Lookup("tight")->Snapshot().maintenance;
  const core::MaintenanceStats loose =
      registry.Lookup("loose")->Snapshot().maintenance;
  EXPECT_EQ(tight.decay_sweeps, 1u);
  EXPECT_EQ(tight.points_evicted, 1u);
  EXPECT_EQ(tight.index_points, base_points + 1);
  EXPECT_EQ(loose.decay_sweeps, 1u);
  EXPECT_EQ(loose.points_evicted, 6u);
  EXPECT_EQ(loose.index_points, base_points - 4);

  // The idle tenant was never touched: same generation OBJECT, not just the
  // same epoch — no sweep, delta, or publication crossed tenants.
  std::shared_ptr<tenant::Tenant> idle = registry.Lookup("idle");
  EXPECT_EQ(idle->engine()->index_snapshot().get(), index_.get());
  EXPECT_EQ(idle->engine()->index_epoch(), 0u);
  const core::MaintenanceStats istats = idle->Snapshot().maintenance;
  EXPECT_EQ(istats.submitted, 0u);
  EXPECT_EQ(istats.decay_sweeps, 0u);
  EXPECT_EQ(istats.generations_published, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent registry churn (pure table hammer, no sockets — TSan fodder)
// ---------------------------------------------------------------------------

TEST_F(TenantTest, ConcurrentCreateDropLookupKeepsTableCoherent) {
  ThreadPool pool(4);
  tenant::TenantRegistry registry;
  tenant::TenantOptions base;
  base.engine.pool = &pool;
  base.with_maintainer = false;
  base.id = tenant::kDefaultTenantId;
  ASSERT_TRUE(registry.CreateTenant(base, index_, &dataset_->graph).ok());

  constexpr size_t kChurners = 3;
  constexpr size_t kRounds = 12;
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};

  std::vector<std::thread> churners;
  for (size_t t = 0; t < kChurners; ++t) {
    churners.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        const std::string id =
            "churn-" + std::to_string(t) + "-" + std::to_string(round);
        tenant::TenantOptions topts = base;
        topts.id = id;
        auto created = registry.CreateTenant(topts, index_, &dataset_->graph);
        if (!created.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The freshly published tenant must be visible to its creator.
        if (registry.Lookup(id) == nullptr) failures.fetch_add(1);
        if (!registry.DropTenant(id).ok()) failures.fetch_add(1);
        if (registry.Lookup(id) != nullptr) failures.fetch_add(1);
      }
    });
  }
  // Readers hammer lock-free lookups and snapshot-holding queries while the
  // table churns underneath them.
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      const auto workload = MakeWorkload(4, 900 + t);
      size_t spin = 0;
      while (!done.load()) {
        std::shared_ptr<tenant::Tenant> def = registry.Resolve("");
        if (def == nullptr) {
          failures.fetch_add(1);
          break;
        }
        auto result =
            def->engine()->Query(workload[spin % workload.size()]);
        if (!result.ok()) failures.fetch_add(1);
        // Pinned churn tenants stay serveable even if dropped mid-hold.
        std::shared_ptr<tenant::Tenant> any =
            registry.Lookup("churn-0-" + std::to_string(spin % kRounds));
        if (any != nullptr) {
          if (!any->engine()->Query(workload[0]).ok()) failures.fetch_add(1);
        }
        for (const auto& listed : registry.List()) {
          if (listed == nullptr) failures.fetch_add(1);
        }
        ++spin;
      }
    });
  }
  for (auto& c : churners) c.join();
  done.store(true);
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(registry.size(), 1u);  // only the default survived the churn
}

// ---------------------------------------------------------------------------
// Multi-tenant wire storm (the TSan gate runs this under -fsanitize=thread)
// ---------------------------------------------------------------------------

// Stable tenants take concurrent queries AND deltas over one server while a
// churn thread creates and drops short-lived tenants (each publishing a
// generation of its own before the drain-on-drop). Every kOk answer is
// replayed bit-for-bit against the generation — of the tenant — that served
// it; queries racing a drop may only fail with kInvalidRequest (unknown
// tenant), never hang, crash, or cross catalogs.
TEST_F(TenantTest, MultiTenantStormRepliesBitIdenticalPerTenantGeneration) {
  ThreadPool pool(4);
  tenant::TenantRegistry registry;

  // generations[tenant][epoch] -> the published index, fed by per-tenant
  // on_publish callbacks; epoch 0 is the shared initial index.
  std::mutex generations_mu;
  std::map<std::string,
           std::map<uint64_t, std::shared_ptr<const core::InflexIndex>>>
      generations;

  auto make_tenant = [&](const std::string& id) {
    tenant::TenantOptions topts;
    topts.id = id;
    topts.engine.pool = &pool;
    topts.maintainer.admission_threshold = 0.05;
    topts.maintainer.oracle.num_snapshots = 10;
    topts.maintainer.on_publish =
        [&generations_mu, &generations, id](
            uint64_t epoch, std::shared_ptr<const core::InflexIndex> gen) {
          std::lock_guard<std::mutex> lock(generations_mu);
          generations[id][epoch] = std::move(gen);
        };
    {
      std::lock_guard<std::mutex> lock(generations_mu);
      generations[id][0] = index_;
    }
    return registry.CreateTenant(topts, index_, &dataset_->graph);
  };
  ASSERT_TRUE(make_tenant(tenant::kDefaultTenantId).ok());
  ASSERT_TRUE(make_tenant("alpha").ok());
  ASSERT_TRUE(make_tenant("beta").ok());

  tenant::TenantRouter router(&registry);
  net::InflexServerOptions sopts;
  sopts.router = &router;
  sopts.num_workers = 4;
  net::InflexServer server(registry.Resolve("")->engine(), sopts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  struct Answer {
    std::string tenant;
    core::QueryRequest request;
    uint64_t epoch;
    std::vector<uint32_t> seeds;
  };
  constexpr size_t kQueryThreads = 4;
  constexpr size_t kPerThread = 18;
  std::vector<std::vector<Answer>> answers(kQueryThreads + 1);
  std::atomic<size_t> failures{0};
  std::mutex failures_mu;
  std::string failure_detail;
  auto record_failure = [&](const std::string& detail) {
    failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(failures_mu);
    failure_detail += detail + "\n";
  };

  // Stable-tenant query threads (alternating alpha/beta).
  std::vector<std::thread> query_threads;
  for (size_t t = 0; t < kQueryThreads; ++t) {
    query_threads.emplace_back([&, t] {
      const std::string tenant_id = (t % 2 == 0) ? "alpha" : "beta";
      auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
      if (!client.ok()) {
        record_failure("connect: " + client.status().ToString());
        return;
      }
      client.ValueOrDie().set_tenant(tenant_id);
      for (const auto& request : MakeWorkload(kPerThread, 3000 + t)) {
        auto resp = client.ValueOrDie().Query(request);
        if (!resp.ok()) {
          record_failure("query transport: " + resp.status().ToString());
          return;
        }
        if (resp.ValueOrDie().status != net::WireStatus::kOk) {
          record_failure(std::string("query status: ") +
                         net::WireStatusName(resp.ValueOrDie().status));
          return;
        }
        answers[t].push_back(Answer{tenant_id, request,
                                    resp.ValueOrDie().epoch,
                                    resp.ValueOrDie().seeds});
      }
    });
  }

  // Per-tenant generation churn: far-corner deltas into alpha and beta.
  std::vector<std::thread> delta_threads;
  for (const std::string tenant_id : {"alpha", "beta"}) {
    delta_threads.emplace_back([&, tenant_id] {
      auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
      if (!client.ok()) {
        record_failure("delta connect: " + client.status().ToString());
        return;
      }
      client.ValueOrDie().set_tenant(tenant_id);
      for (size_t i = 0; i < 4; ++i) {
        const double mass = 0.999 - 1e-4 * static_cast<double>(i) -
                            (tenant_id == "alpha" ? 0.0 : 5e-5);
        std::vector<double> gamma(4, (1.0 - mass) / 3.0);
        gamma[i % 4] = mass;
        auto resp = client.ValueOrDie().SubmitDelta(
            tenant_id + "-delta-" + std::to_string(i), gamma);
        if (!resp.ok()) {
          record_failure("delta transport: " + resp.status().ToString());
          return;
        }
        if (!resp.ValueOrDie().ok()) {
          record_failure(std::string("delta status: ") +
                         net::WireStatusName(resp.ValueOrDie().status));
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
      }
    });
  }

  // Tenant lifecycle churn: create, feed one delta, drop (drain-on-drop
  // publishes before the registration dies) — while racers query the same
  // names and pin dropped tenants through their in-flight requests.
  constexpr size_t kChurnTenants = 6;
  std::atomic<bool> churn_done{false};
  std::thread churn_thread([&] {
    auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
    if (!client.ok()) {
      record_failure("churn connect: " + client.status().ToString());
      return;
    }
    for (size_t i = 0; i < kChurnTenants; ++i) {
      const std::string id = "churn-" + std::to_string(i);
      if (!make_tenant(id).ok()) {
        record_failure("churn create failed: " + id);
        return;
      }
      client.ValueOrDie().set_tenant(id);
      auto resp = client.ValueOrDie().SubmitDelta(id + "-delta",
                                                  {0.9995, 2e-4, 2e-4, 1e-4});
      if (!resp.ok() || !resp.ValueOrDie().ok()) {
        record_failure("churn delta failed: " + id);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (!registry.DropTenant(id, /*drain=*/true).ok()) {
        record_failure("churn drop failed: " + id);
        return;
      }
    }
    churn_done.store(true);
  });
  std::thread racer_thread([&] {
    auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
    if (!client.ok()) {
      record_failure("racer connect: " + client.status().ToString());
      return;
    }
    const auto workload = MakeWorkload(6, 8600);
    size_t spin = 0;
    while (!churn_done.load() && failures.load() == 0) {
      const std::string id =
          "churn-" + std::to_string(spin % kChurnTenants);
      client.ValueOrDie().set_tenant(id);
      auto resp = client.ValueOrDie().Query(workload[spin % workload.size()]);
      if (!resp.ok()) {
        record_failure("racer transport: " + resp.status().ToString());
        return;
      }
      const net::WireResponse& got = resp.ValueOrDie();
      if (got.status == net::WireStatus::kOk) {
        answers[kQueryThreads].push_back(
            Answer{id, workload[spin % workload.size()], got.epoch,
                   got.seeds});
      } else if (got.status != net::WireStatus::kInvalidRequest) {
        // The only acceptable failure while racing create/drop is "unknown
        // tenant" — anything else is a routing bug.
        record_failure(std::string("racer status: ") +
                       net::WireStatusName(got.status) + " " + got.message);
        return;
      }
      ++spin;
    }
  });

  for (auto& t : query_threads) t.join();
  for (auto& t : delta_threads) t.join();
  churn_thread.join();
  racer_thread.join();
  ASSERT_EQ(failures.load(), 0u) << failure_detail;

  server.Stop();  // drains every registered tenant

  // Stable tenants diverged: both published generations of their own.
  EXPECT_GE(registry.Lookup("alpha")->engine()->index_epoch(), 1u);
  EXPECT_GE(registry.Lookup("beta")->engine()->index_epoch(), 1u);
  EXPECT_EQ(registry.Resolve("")->engine()->index_epoch(), 0u);

  // Every answer replays bit-identically against ITS tenant's generation.
  size_t replayed = 0;
  for (const auto& per_thread : answers) {
    for (const Answer& a : per_thread) {
      std::shared_ptr<const core::InflexIndex> gen;
      {
        std::lock_guard<std::mutex> lock(generations_mu);
        auto tenant_it = generations.find(a.tenant);
        ASSERT_NE(tenant_it, generations.end()) << a.tenant;
        auto epoch_it = tenant_it->second.find(a.epoch);
        ASSERT_NE(epoch_it, tenant_it->second.end())
            << a.tenant << " epoch " << a.epoch;
        gen = epoch_it->second;
      }
      auto want = gen->Query(a.request.item, a.request.k, a.request.options);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(a.seeds, want.ValueOrDie().seeds)
          << a.tenant << " epoch " << a.epoch << " replay diverged";
      ++replayed;
    }
  }
  EXPECT_GE(replayed, kQueryThreads * kPerThread);
}

}  // namespace
}  // namespace inflex

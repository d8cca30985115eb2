// Tests for the live index maintenance plane: KL-coverage admission of
// catalog deltas, background CELF++ seed precompute, RCU-style generation
// publication under serving load, epoch-keyed cache invalidation, the
// cumulative latency reservoir, persistence across maintenance generations,
// and a query-storm stress test asserting every concurrent answer is
// bit-identical to a serial replay against its pinned generation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "inflex/hit_accounting.h"
#include "inflex/index_maintainer.h"
#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "simplex/divergence.h"
#include "simplex/sampling.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace inflex {
namespace {

class MaintenanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 200;
    dopts.num_topics = 4;
    dopts.num_items = 60;
    dopts.seed = 808;
    auto ds = data::GenerateSyntheticDataset(dopts);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());
    core::InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 16;
    bopts.index_points.num_dirichlet_samples = 2000;
    bopts.seed_list_length = 12;
    bopts.oracle_snapshots = 30;
    auto index =
        core::InflexIndex::Build(dataset_->graph, dataset_->catalog, bopts);
    ASSERT_TRUE(index.ok());
    index_ = new core::InflexIndex(std::move(index).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  /// A fresh shared copy of the suite index to serve as generation 0 (the
  /// maintainer mutates nothing, but each test gets an isolated history).
  static std::shared_ptr<const core::InflexIndex> InitialGeneration() {
    return std::make_shared<core::InflexIndex>(*index_);
  }

  /// Maintainer options sized for the small test graph.
  static core::IndexMaintainerOptions FastOptions() {
    core::IndexMaintainerOptions mopts;
    mopts.oracle.num_snapshots = 20;
    mopts.admission_threshold = 0.05;
    return mopts;
  }

  /// Extreme near-corner mixtures: far (in KL) from every index point the
  /// Dirichlet catalog produces, so they pass the admission test; distinct
  /// corners are also far from each other.
  static core::CatalogDelta CornerDelta(size_t corner, double mass = 0.9997) {
    const double rest = (1.0 - mass) / 3.0;
    std::vector<double> p(4, rest);
    p[corner % 4] = mass;
    core::CatalogDelta d;
    d.id = "corner-" + std::to_string(corner);
    d.item = simplex::TopicDistribution::Create(p).ValueOrDie();
    return d;
  }

  /// Deterministically picks `n` mixtures that are far (in KL, both
  /// directions, with margin) from every index point of `index` AND from
  /// each other: submitted as a burst, every one passes the admission probe
  /// and none is superseded by another within the same batch.
  static std::vector<simplex::TopicDistribution> FarApartMixtures(
      const core::InflexIndex& index, size_t n, double margin,
      uint64_t seed) {
    Rng rng(seed);
    std::vector<simplex::TopicDistribution> picked;
    for (int attempt = 0; attempt < 20000 && picked.size() < n; ++attempt) {
      const auto q = simplex::SampleUniformSimplex(4, &rng);
      // Same probe as admission: min_i D_KL(index point i ‖ q).
      if (index.tree().ExactKnn(q, 1).front().divergence <= margin) continue;
      bool far = true;
      for (const auto& p : picked) {
        if (simplex::KlDivergence(p.probs(), q) <= margin ||
            simplex::KlDivergence(q, p.probs()) <= margin) {
          far = false;
          break;
        }
      }
      if (far) {
        picked.push_back(simplex::TopicDistribution::Create(q).ValueOrDie());
      }
    }
    EXPECT_EQ(picked.size(), n) << "could not find " << n
                                << " mutually far mixtures";
    return picked;
  }

  static std::vector<core::QueryRequest> MakeWorkload(size_t n,
                                                      uint64_t seed) {
    Rng rng(seed);
    std::vector<core::QueryRequest> reqs;
    reqs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      core::QueryRequest r;
      if (i % 3 == 2 && i >= 3) {
        r.item = reqs[i / 3].item;  // repeats exercise the cache-hit path
      } else {
        r.item = simplex::TopicDistribution::Create(
                     simplex::SampleUniformSimplex(4, &rng))
                     .ValueOrDie();
      }
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

  static void ExpectSameAnswer(const Result<core::QueryResult>& got,
                               const Result<core::QueryResult>& want,
                               size_t i) {
    ASSERT_EQ(got.ok(), want.ok())
        << "request " << i << ": " << got.status().ToString() << " vs "
        << want.status().ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << "request " << i;
      return;
    }
    const auto& g = got.ValueOrDie();
    const auto& w = want.ValueOrDie();
    EXPECT_EQ(g.seeds, w.seeds) << "request " << i;
    EXPECT_EQ(g.weights, w.weights) << "request " << i;
    EXPECT_EQ(g.epsilon_exact, w.epsilon_exact) << "request " << i;
  }

  static data::SyntheticDataset* dataset_;
  static core::InflexIndex* index_;
};

data::SyntheticDataset* MaintenanceTest::dataset_ = nullptr;
core::InflexIndex* MaintenanceTest::index_ = nullptr;

// ----------------------------------------------------------- admission test ---

TEST_F(MaintenanceTest, CoveredDeltaIsDroppedWithoutWork) {
  auto initial = InitialGeneration();
  core::IndexMaintainer m(initial, &dataset_->graph, nullptr, FastOptions());

  // An existing index point covers itself: divergence 0 ≤ any threshold.
  core::CatalogDelta dup;
  dup.id = "existing-point";
  dup.item =
      simplex::TopicDistribution::Create(initial->index_point(0)).ValueOrDie();
  auto receipt = m.SubmitDelta(dup);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kCovered);
  EXPECT_EQ(receipt.ValueOrDie().min_divergence, 0.0);
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.covered, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.generations_published, 0u);
  EXPECT_EQ(m.epoch(), 0u);
  EXPECT_EQ(m.current().get(), initial.get()) << "generation must not change";
}

TEST_F(MaintenanceTest, AdmittedDeltaPublishesServableGeneration) {
  auto initial = InitialGeneration();
  core::QueryEngine engine(initial);
  core::IndexMaintainer m(initial, &dataset_->graph, &engine, FastOptions());

  const auto delta = CornerDelta(0);
  auto receipt = m.SubmitDelta(delta);
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted)
      << "corner item unexpectedly covered (min divergence "
      << receipt.ValueOrDie().min_divergence << ")";
  EXPECT_GT(receipt.ValueOrDie().min_divergence, 0.05);
  EXPECT_EQ(receipt.ValueOrDie().ticket, 1u);
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.generations_published, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.index_points, initial->num_index_points() + 1);
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_EQ(engine.index_epoch(), 1u) << "engine must see the publication";
  EXPECT_FALSE(stats.ToString().empty());

  // The published generation serves the new item ε-exactly from its freshly
  // precomputed list, straight through the engine.
  core::QueryRequest req;
  req.item = delta.item;
  req.k = 8;
  auto answer = engine.Query(req);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.ValueOrDie().epsilon_exact);
  EXPECT_EQ(answer.ValueOrDie().generation, 1u);
  // And identically to querying the generation directly.
  auto direct = m.current()->Query(req.item, req.k, req.options);
  ExpectSameAnswer(answer, direct, 0);

  // Resubmitting the same item is now covered by its own index point.
  auto again = m.SubmitDelta(delta);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().outcome, core::DeltaOutcome::kCovered);
}

TEST_F(MaintenanceTest, BackpressureDefersDeltasAtHighWaterMark) {
  auto initial = InitialGeneration();

  // Park the maintenance pool behind a sentinel task so admitted deltas stay
  // pending and the high-water mark is hit deterministically.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  pool.Submit([released] { released.wait(); });

  core::IndexMaintainerOptions mopts = FastOptions();
  mopts.pending_high_watermark = 2;
  mopts.pool = &pool;
  core::IndexMaintainer m(initial, &dataset_->graph, nullptr, mopts);

  const auto mixtures = FarApartMixtures(*initial, 3, 0.08, 77);
  std::vector<core::CatalogDelta> deltas;
  for (size_t i = 0; i < mixtures.size(); ++i) {
    core::CatalogDelta d;
    d.id = "bp-" + std::to_string(i);
    d.item = mixtures[i];
    deltas.push_back(std::move(d));
  }

  // Two admissions fill the pipeline to the watermark...
  for (size_t i = 0; i < 2; ++i) {
    auto receipt = m.SubmitDelta(deltas[i]);
    ASSERT_TRUE(receipt.ok());
    ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted)
        << "delta " << i;
  }
  // ...so the third is deferred without scheduling anything.
  auto deferred = m.SubmitDelta(deltas[2]);
  ASSERT_TRUE(deferred.ok());
  EXPECT_EQ(deferred.ValueOrDie().outcome, core::DeltaOutcome::kRetryLater);
  EXPECT_EQ(deferred.ValueOrDie().ticket, 0u) << "nothing was admitted";
  {
    const auto stats = m.stats();
    EXPECT_EQ(stats.pending, 2u);
    EXPECT_EQ(stats.deferred, 1u);
    EXPECT_EQ(stats.admitted, 2u);
  }
  EXPECT_NE(core::DeltaOutcomeName(core::DeltaOutcome::kRetryLater),
            nullptr);

  // Once the backlog publishes, the same delta is admitted on retry: the
  // contract is "resubmit later", not "dropped".
  release.set_value();
  m.Drain();
  auto retried = m.SubmitDelta(deltas[2]);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.index_points, initial->num_index_points() + 3);
}

TEST_F(MaintenanceTest, DimensionMismatchFailsFast) {
  core::IndexMaintainer m(InitialGeneration(), &dataset_->graph, nullptr,
                          FastOptions());
  core::CatalogDelta bad;
  bad.id = "wrong-dims";
  bad.item =
      simplex::TopicDistribution::Create({0.5, 0.3, 0.2}).ValueOrDie();
  auto receipt = m.SubmitDelta(bad);
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(receipt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m.stats().failed, 1u);
  EXPECT_EQ(m.stats().generations_published, 0u);
}

// ----------------------------------------------- superseded publication race ---

// Two duplicate deltas admitted back-to-back (the background pool is gated so
// neither publishes in between): the first publishes, the second must detect
// at publish time that it is now covered and back off.
TEST_F(MaintenanceTest, DuplicateAdmissionsResolveToOnePublication) {
  ThreadPool pool(1);
  auto mopts = FastOptions();
  mopts.pool = &pool;
  core::IndexMaintainer m(InitialGeneration(), &dataset_->graph, nullptr,
                          mopts);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });

  const auto delta = CornerDelta(1);
  auto first = m.SubmitDelta(delta);
  auto second = m.SubmitDelta(delta);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
  EXPECT_EQ(second.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted)
      << "admission must race: the first delta has not published yet";

  gate.set_value();
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.generations_published, 1u);
  EXPECT_EQ(stats.superseded, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(m.epoch(), 1u);
}

// ------------------------------------------------- epoch cache invalidation ---

TEST_F(MaintenanceTest, PublicationInvalidatesCachedAnswersViaEpoch) {
  auto initial = InitialGeneration();
  core::QueryEngine engine(initial);
  core::IndexMaintainer m(initial, &dataset_->graph, &engine, FastOptions());

  const auto delta = CornerDelta(2);
  core::QueryRequest req;
  req.item = delta.item;
  req.k = 8;

  // Warm the cache under epoch 0.
  auto before = engine.Query(req);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.ValueOrDie().generation, 0u);
  auto cached = engine.Query(req);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached.ValueOrDie().from_cache);
  const uint64_t hits_before = engine.cache().hits();

  ASSERT_TRUE(m.SubmitDelta(delta).ok());
  m.Drain();
  ASSERT_EQ(engine.index_epoch(), 1u);

  // Same request: the epoch-tagged key makes the stale entry unreachable, so
  // this is a miss that computes against the NEW generation — no Clear()
  // needed, no stale answer possible.
  auto after = engine.Query(req);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.ValueOrDie().from_cache);
  EXPECT_EQ(after.ValueOrDie().generation, 1u);
  EXPECT_TRUE(after.ValueOrDie().epsilon_exact)
      << "the new generation serves the delta item from its own point";
  EXPECT_EQ(engine.cache().hits(), hits_before);

  // The new-epoch entry caches normally.
  auto warm = engine.Query(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.ValueOrDie().from_cache);
  EXPECT_EQ(warm.ValueOrDie().seeds, after.ValueOrDie().seeds);
}

// ------------------------------------------- maintenance metrics in serving ---

// cumulative_stats() surfaces the maintenance plane next to QPS: generation
// swaps, the cache's warm-up within the current epoch, and the
// admission→publish latency of the pipeline.
TEST_F(MaintenanceTest, ServingStatsSurfaceMaintenanceMetrics) {
  auto initial = InitialGeneration();
  core::QueryEngine engine(initial);
  core::IndexMaintainer m(initial, &dataset_->graph, &engine, FastOptions());

  const auto requests = MakeWorkload(20, 91);
  engine.QueryBatch(requests);
  engine.QueryBatch(requests);  // second pass: all hits under epoch 0

  auto stats = engine.cumulative_stats();
  EXPECT_EQ(stats.generation_swaps, 0u);
  EXPECT_EQ(stats.publishes_timed, 0u);
  EXPECT_EQ(stats.admit_to_publish_mean_ms, 0.0);
  EXPECT_GT(stats.epoch_cache_hits, 0u)
      << "without any publish the epoch counters track the whole history";

  ASSERT_TRUE(m.SubmitDelta(CornerDelta(2)).ok());
  m.Drain();
  ASSERT_EQ(engine.index_epoch(), 1u);

  stats = engine.cumulative_stats();
  EXPECT_EQ(stats.generation_swaps, 1u);
  EXPECT_EQ(stats.publishes_timed, 1u);
  EXPECT_GT(stats.admit_to_publish_mean_ms, 0.0);
  EXPECT_GE(stats.admit_to_publish_max_ms, stats.admit_to_publish_mean_ms);
  EXPECT_EQ(stats.epoch_cache_hits, 0u)
      << "a publish re-baselines the epoch counters (cold cache)";
  EXPECT_EQ(stats.epoch_hit_rate(), 0.0);

  // Re-serving the workload under epoch 1: all misses first (stale entries
  // unreachable), then hits — the epoch hit rate tracks the warm-up.
  engine.QueryBatch(requests);
  stats = engine.cumulative_stats();
  EXPECT_GT(stats.epoch_cache_misses, 0u);
  engine.QueryBatch(requests);
  stats = engine.cumulative_stats();
  EXPECT_GT(stats.epoch_cache_hits, 0u);
  EXPECT_GT(stats.epoch_hit_rate(), 0.0);
  EXPECT_LE(stats.epoch_hit_rate(), 1.0);
  EXPECT_FALSE(stats.ToString().empty());
}

// ------------------------------------------------------- tree rebuild gating ---

TEST_F(MaintenanceTest, LowDegradationBudgetTriggersFullRebuild) {
  auto mopts = FastOptions();
  mopts.rebuild_degradation = 1e-9;  // every insert crosses the gate
  core::IndexMaintainer m(InitialGeneration(), &dataset_->graph, nullptr,
                          mopts);
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(3)).ok());
  m.Drain();
  const auto stats = m.stats();
  ASSERT_EQ(stats.generations_published, 1u);
  EXPECT_EQ(stats.tree_rebuilds, 1u);
  EXPECT_EQ(m.current()->tree().degradation(), 0.0)
      << "a rebuilt generation starts from a clean tree";

  // Generous budget: a single insert stays incremental. (On a tree this
  // small even the default 0.10 can trip — one insert is already 1/17th of
  // the point set.)
  auto lazy_opts = FastOptions();
  lazy_opts.rebuild_degradation = 0.75;
  core::IndexMaintainer lazy(InitialGeneration(), &dataset_->graph, nullptr,
                             lazy_opts);
  ASSERT_TRUE(lazy.SubmitDelta(CornerDelta(3)).ok());
  lazy.Drain();
  EXPECT_EQ(lazy.stats().tree_rebuilds, 0u);
  EXPECT_GT(lazy.current()->tree().degradation(), 0.0);
}

// -------------------------------------------- cumulative latency reservoir ---

// Regression: cumulative_stats() used to copy the percentile fields of the
// most recent batch instead of aggregating, so a dashboard reading after a
// quiet batch forgot every slow request before it. The reservoir now spans
// all batches; latency_samples reports its occupancy.
TEST_F(MaintenanceTest, CumulativeLatencyPercentilesSpanAllBatches) {
  core::QueryEngine engine(InitialGeneration());
  const auto requests = MakeWorkload(30, 77);

  core::ServingStats first_batch;
  engine.QueryBatch(requests, &first_batch);
  EXPECT_EQ(first_batch.latency_samples, 30u);
  engine.QueryBatch(requests);
  engine.QueryBatch(requests);

  const auto cumulative = engine.cumulative_stats();
  EXPECT_EQ(cumulative.num_requests, 90u);
  EXPECT_EQ(cumulative.latency_samples, 90u)
      << "percentiles must be estimated over every batch served, not the "
         "most recent one";
  EXPECT_GT(cumulative.p50_ms, 0.0);
  EXPECT_LE(cumulative.p50_ms, cumulative.p95_ms);
  EXPECT_LE(cumulative.p95_ms, cumulative.p99_ms);
  EXPECT_LE(cumulative.p99_ms, cumulative.max_ms);
  EXPECT_GT(cumulative.mean_ms, 0.0);
  static_assert(core::QueryEngine::kLatencyReservoirCapacity >= 1024,
                "reservoir must be big enough for stable tail estimates");
}

// ------------------------------------------ persistence across generations ---

TEST_F(MaintenanceTest, SaveLoadRoundTripsAMaintainedIndex) {
  auto mopts = FastOptions();
  core::IndexMaintainer m(InitialGeneration(), &dataset_->graph, nullptr,
                          mopts);
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(0)).ok());
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(1)).ok());
  m.Drain();
  ASSERT_GE(m.stats().generations_published, 1u);

  const auto maintained = m.current();
  const std::string path =
      ::testing::TempDir() + "/maintained_index.inflex";
  ASSERT_TRUE(maintained->Save(path).ok());
  auto loaded = core::InflexIndex::Load(path, &dataset_->graph);
  ASSERT_TRUE(loaded.ok());
  const auto& reloaded = loaded.ValueOrDie();

  ASSERT_EQ(reloaded.num_index_points(), maintained->num_index_points());
  for (uint32_t id = 0; id < maintained->num_index_points(); ++id) {
    EXPECT_EQ(reloaded.seed_list(id), maintained->seed_list(id))
        << "point " << id;
    EXPECT_EQ(reloaded.index_point(id), maintained->index_point(id))
        << "point " << id;
  }
  // Load() rebuilds the tree from scratch, so tree shape may differ from the
  // incrementally maintained one — but exact answers may not. Compare the
  // tree-shape-independent strategy bit-for-bit across a workload plus the
  // maintained items themselves.
  auto requests = MakeWorkload(24, 4242);
  for (size_t corner = 0; corner < 2; ++corner) {
    core::QueryRequest r;
    r.item = CornerDelta(corner).item;
    r.k = 8;
    requests.push_back(r);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    auto& r = requests[i];
    r.options.strategy = core::QueryStrategy::kExactKnn;
    ExpectSameAnswer(reloaded.Query(r.item, r.k, r.options),
                     maintained->Query(r.item, r.k, r.options), i);
  }
  std::remove(path.c_str());
}

// ----------------------------------------------- post-insert save/load ---

// A maintained index whose tree still carries post-Insert rows (NOT
// leaf-contiguous — no Compact ran) must round-trip through Save/Load with
// bit-identical neighbor sets: Load rebuilds the tree, but exact search is
// shape-independent and the point data is preserved exactly.
TEST_F(MaintenanceTest, SaveLoadPreservesPostInsertNeighborSetsBitForBit) {
  auto mopts = FastOptions();
  mopts.rebuild_degradation = 0.75;  // keep the inserted rows in place
  core::IndexMaintainer m(InitialGeneration(), &dataset_->graph, nullptr,
                          mopts);
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(0)).ok());
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(3)).ok());
  m.Drain();
  ASSERT_EQ(m.stats().tree_rebuilds, 0u);
  const auto maintained = m.current();
  ASSERT_GT(maintained->tree().num_inserted(), 0u)
      << "precondition: the saved tree must carry post-Insert rows";

  const std::string path = ::testing::TempDir() + "/post_insert.inflex";
  ASSERT_TRUE(maintained->Save(path).ok());
  auto loaded_r = core::InflexIndex::Load(path, &dataset_->graph);
  ASSERT_TRUE(loaded_r.ok());
  const auto& loaded = loaded_r.ValueOrDie();

  Rng rng(606);
  for (int t = 0; t < 25; ++t) {
    const auto q = simplex::SampleUniformSimplex(4, &rng);
    const auto got = loaded.tree().ExactKnn(q, 5);
    const auto want = maintained->tree().ExactKnn(q, 5);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].point_id, want[i].point_id) << "query " << t;
      EXPECT_EQ(got[i].divergence, want[i].divergence) << "query " << t;
    }
    // The 1-NN backs the admission/coverage probe — it must agree too.
    EXPECT_EQ(loaded.tree().ExactKnn(q, 1).front().point_id,
              maintained->tree().ExactKnn(q, 1).front().point_id);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- delta coalescing ---

// A burst of admitted deltas whose precomputes land together must fold into
// ONE clone+publish, not one generation per delta. The pool is gated so the
// whole burst is in flight before any precompute starts; the publisher's
// coalescing window (open while precomputes are in flight) then drains all
// of them into a single batch.
TEST_F(MaintenanceTest, CoalescedBurstPublishesOneGeneration) {
  ThreadPool pool(4);
  auto mopts = FastOptions();
  mopts.pool = &pool;
  mopts.max_batch = 64;
  mopts.max_batch_delay_ms = 30'000.0;  // the in-flight gate ends the window
  core::IndexMaintainer m(InitialGeneration(), &dataset_->graph, nullptr,
                          mopts);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  for (int t = 0; t < 4; ++t) pool.Submit([opened] { opened.wait(); });

  // 12 mixtures far from every index point and from each other (3× the
  // admission threshold): every delta admits, none supersedes another.
  const auto burst = FarApartMixtures(*InitialGeneration(), 12, 0.15, 5150);
  ASSERT_EQ(burst.size(), 12u);
  for (size_t i = 0; i < burst.size(); ++i) {
    core::CatalogDelta d;
    d.id = "burst-" + std::to_string(i);
    d.item = burst[i];
    auto receipt = m.SubmitDelta(d);
    ASSERT_TRUE(receipt.ok());
    ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted)
        << d.id << " at min divergence "
        << receipt.ValueOrDie().min_divergence;
  }

  gate.set_value();
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.admitted, 12u);
  EXPECT_EQ(stats.superseded, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.generations_published, 1u)
      << "a coalesced burst must cost one generation, not one per delta";
  EXPECT_EQ(stats.batched_deltas, 12u);
  EXPECT_EQ(stats.index_points, 16u + 12u);
  EXPECT_EQ(m.epoch(), 1u);
  EXPECT_EQ(m.current()->num_index_points(), 28u);
}

// ------------------------------------------------------ decay sweep eviction ---

// Warm every ORIGINAL index point through the engine (ε-exact self-queries
// put exactly one hit per query on exactly that point), leave the admitted
// corner points stone cold, then sweep: the cold points are evicted, the
// index shrinks back, and (retire_admitted_items=true) their items are
// retired — resubmission re-admits.
TEST_F(MaintenanceTest, DecaySweepEvictsColdPointsAndRetiresTheirItems) {
  auto initial = InitialGeneration();
  core::QueryEngineOptions eopts;
  eopts.enable_hit_accounting = true;
  core::QueryEngine engine(initial, eopts);
  auto mopts = FastOptions();
  mopts.rebuild_degradation = 0.75;
  mopts.min_point_age_generations = 1;
  mopts.min_index_points = 4;
  core::IndexMaintainer m(initial, &dataset_->graph, &engine, mopts);

  auto first = m.SubmitDelta(CornerDelta(0));
  auto second = m.SubmitDelta(CornerDelta(1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
  ASSERT_EQ(second.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
  m.Drain();
  ASSERT_EQ(m.stats().index_points, 18u);

  const auto gen = m.current();
  for (int pass = 0; pass < 3; ++pass) {
    for (uint32_t id = 0; id < 16; ++id) {
      core::QueryRequest req;
      req.item = simplex::TopicDistribution::Create(gen->index_point(id))
                     .ValueOrDie();
      req.k = 6;
      auto r = engine.Query(req);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(r.ValueOrDie().epsilon_exact);
    }
  }

  m.RequestDecaySweep();
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.decay_sweeps, 1u);
  EXPECT_EQ(stats.points_evicted, 2u);
  EXPECT_EQ(stats.index_points, 16u);
  EXPECT_EQ(m.current()->num_index_points(), 16u);
  EXPECT_EQ(engine.index_epoch(), m.epoch());
  EXPECT_EQ(engine.HitScores().size(), 16u)
      << "the hit-score fold must follow the eviction renumbering";
  // The corner points are really gone: the coverage probe no longer finds
  // anything near them.
  const auto nn = m.current()->tree().ExactKnn(CornerDelta(1).item.probs(), 1);
  EXPECT_GT(nn.front().divergence, mopts.admission_threshold);

  // ...and their items were retired, so resubmission re-admits.
  auto again = m.SubmitDelta(CornerDelta(0));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted)
      << "evicting a point must retire its item";
  m.Drain();
}

// Post-eviction staleness window (the corpus's post-eviction category seed):
// an eviction publish renumbers index points, so cached answers minted under
// the old epoch carry neighbors_used ids in the OLD numbering. Those entries
// must (a) never be served again — the epoch-tagged cache key makes them
// unreachable — and (b) never feed PointHitAccounting under the new epoch:
// Record() drops epoch-mismatched observations, and the publish-time Fold
// remaps in-flight old-epoch tallies through old_to_new. A regression in
// either direction would mis-credit hit scores and steer later sweeps at the
// wrong points.
TEST_F(MaintenanceTest, PostEvictionStaleCacheNeverFeedsHitAccounting) {
  auto initial = InitialGeneration();
  core::QueryEngineOptions eopts;
  eopts.enable_cache = true;
  eopts.enable_hit_accounting = true;
  core::QueryEngine engine(initial, eopts);
  auto mopts = FastOptions();
  mopts.min_point_age_generations = 1;
  mopts.min_index_points = 4;
  core::IndexMaintainer m(initial, &dataset_->graph, &engine, mopts);

  // Two publishes append corner points 16 and 17.
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(0)).ok());
  m.Drain();
  ASSERT_TRUE(m.SubmitDelta(CornerDelta(1)).ok());
  m.Drain();
  ASSERT_EQ(m.stats().index_points, 18u);
  const uint64_t pre_sweep_epoch = engine.index_epoch();

  // Warm the cache at the corner mixtures: these entries reference the
  // corner points (ids 16/17) under the pre-sweep epoch...
  const auto gen = m.current();
  for (size_t corner = 0; corner < 2; ++corner) {
    core::QueryRequest req;
    req.item = CornerDelta(corner).item;
    req.k = 6;
    auto r = engine.Query(req);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.ValueOrDie().epsilon_exact);
    ASSERT_GE(r.ValueOrDie().neighbors_used.front().point_id, 16u);
  }
  // ...and heat every point EXCEPT base point 3, so the sweep evicts a
  // low-numbered point and the survivors above it really renumber.
  for (int pass = 0; pass < 3; ++pass) {
    for (uint32_t id = 0; id < 18; ++id) {
      if (id == 3) continue;
      core::QueryRequest req;
      req.item =
          simplex::TopicDistribution::Create(gen->index_point(id)).ValueOrDie();
      req.k = 6;
      ASSERT_TRUE(engine.Query(req).ok());
    }
  }

  m.RequestDecaySweep();
  m.Drain();
  ASSERT_EQ(m.stats().points_evicted, 1u);
  ASSERT_EQ(m.current()->num_index_points(), 17u);
  ASSERT_GT(engine.index_epoch(), pre_sweep_epoch);

  // The fold followed the renumbering: scores exist for exactly the 17
  // survivors, and the heated ex-17 corner point (now id 16) kept a warm
  // score while no phantom score survived for the evicted row.
  const std::vector<double> scores = engine.HitScores();
  ASSERT_EQ(scores.size(), 17u);
  EXPECT_GT(scores[16], 0.0) << "surviving corner point lost its history";

  // Re-asking a corner query under the new epoch must MISS (the stale entry
  // with old point ids is unreachable) and recompute against the renumbered
  // generation, crediting valid point ids only.
  for (size_t corner = 0; corner < 2; ++corner) {
    core::QueryRequest req;
    req.item = CornerDelta(corner).item;
    req.k = 6;
    auto r = engine.Query(req);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.ValueOrDie().from_cache)
        << "stale pre-eviction cache entry served under the new epoch";
    EXPECT_EQ(r.ValueOrDie().generation, engine.index_epoch());
    for (const auto& n : r.ValueOrDie().neighbors_used) {
      EXPECT_LT(n.point_id, 17u)
          << "answer references a renumbered-away point id";
    }
  }

  // Direct stale-epoch probe at the accounting layer: an observation tagged
  // with the pre-sweep epoch (as a late Record() racing the publish would
  // be) is dropped, not credited to whatever now occupies those row ids.
  core::PointHitAccounting accounting(18);
  std::vector<bbtree::Neighbor> stale = {{17u, 0.0}};
  accounting.Record(0, stale);  // live epoch: credited
  std::vector<uint32_t> old_to_new(18);
  for (uint32_t id = 0; id < 18; ++id) {
    old_to_new[id] = id < 3 ? id
                   : id == 3 ? core::kDroppedIndexPoint
                             : id - 1;
  }
  accounting.Fold(1, 17, old_to_new);
  ASSERT_EQ(accounting.HitScores().size(), 17u);
  const double folded = accounting.HitScores()[16];
  EXPECT_GT(folded, 0.0) << "pre-fold credit must follow the remap (17->16)";
  accounting.Record(0, stale);  // stale epoch, old id: must be dropped
  EXPECT_EQ(accounting.HitScores()[16], folded)
      << "stale-epoch observation leaked into the renumbered tally";
}

// With retire_admitted_items=false the maintainer keeps vouching coverage
// for every admitted item: a stone-cold point that is the LAST one covering
// its item is protected from eviction no matter the sweep.
TEST_F(MaintenanceTest, SweepProtectsLastCoverOfAdmittedItems) {
  auto initial = InitialGeneration();
  core::QueryEngineOptions eopts;
  eopts.enable_hit_accounting = true;
  core::QueryEngine engine(initial, eopts);
  auto mopts = FastOptions();
  mopts.rebuild_degradation = 0.75;
  mopts.min_point_age_generations = 1;
  mopts.min_index_points = 4;
  mopts.retire_admitted_items = false;
  core::IndexMaintainer m(initial, &dataset_->graph, &engine, mopts);

  auto receipt = m.SubmitDelta(CornerDelta(2));
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
  m.Drain();
  ASSERT_EQ(m.stats().index_points, 17u);
  ASSERT_EQ(m.stats().generations_published, 1u);

  const auto gen = m.current();
  for (int pass = 0; pass < 3; ++pass) {
    for (uint32_t id = 0; id < 16; ++id) {
      core::QueryRequest req;
      req.item = simplex::TopicDistribution::Create(gen->index_point(id))
                     .ValueOrDie();
      req.k = 6;
      ASSERT_TRUE(engine.Query(req).ok());
    }
  }

  m.RequestDecaySweep();
  m.Drain();

  const auto stats = m.stats();
  EXPECT_EQ(stats.decay_sweeps, 1u);
  EXPECT_EQ(stats.points_evicted, 0u)
      << "the only point covering an admitted item must survive the sweep";
  EXPECT_EQ(stats.index_points, 17u);
  EXPECT_EQ(stats.generations_published, 1u)
      << "a sweep that evicts nothing must not publish a generation";

  auto again = m.SubmitDelta(CornerDelta(2));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().outcome, core::DeltaOutcome::kCovered)
      << "the protected point still covers its item";
}

// ------------------------------------------------- maintenance under storm ---

// Joins every storming thread when it leaves scope. A failed ASSERT while
// the threads run returns early; without the join it would end the whole
// binary on a joinable std::thread instead of failing its test.
class JoinOnExit {
 public:
  explicit JoinOnExit(std::vector<std::thread>* threads) : threads_(threads) {}
  JoinOnExit(const JoinOnExit&) = delete;
  JoinOnExit& operator=(const JoinOnExit&) = delete;
  ~JoinOnExit() {
    for (auto& th : *threads_) {
      if (th.joinable()) th.join();
    }
  }

 private:
  std::vector<std::thread>* threads_;
};

// The tentpole invariant: 8 threads storm the engine while the maintenance
// plane admits deltas and swaps generations underneath them. No answer may be
// torn — every recorded answer must be bit-identical to a serial replay
// against the exact generation that served it (recorded in
// QueryResult::generation, retained via on_publish).
TEST_F(MaintenanceTest, ConcurrentMaintenanceStress) {
  auto initial = InitialGeneration();
  ThreadPool serve_pool(8);
  core::QueryEngineOptions eopts;
  eopts.pool = &serve_pool;
  eopts.cache.num_shards = 8;
  eopts.cache.capacity = 4096;
  core::QueryEngine engine(initial, eopts);

  std::mutex gen_mu;
  std::map<uint64_t, std::shared_ptr<const core::InflexIndex>> generations;
  generations[0] = initial;

  auto mopts = FastOptions();
  mopts.rebuild_degradation = 0.08;  // let the storm cross the rebuild gate
  mopts.on_publish = [&](uint64_t epoch,
                         std::shared_ptr<const core::InflexIndex> gen) {
    std::lock_guard<std::mutex> lock(gen_mu);
    generations[epoch] = std::move(gen);
  };
  core::IndexMaintainer maintainer(initial, &dataset_->graph, &engine, mopts);

  const auto requests = MakeWorkload(48, 31337);
  struct Recorded {
    size_t request;
    Result<core::QueryResult> result = Status::Internal("unset");
  };

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::vector<Recorded>> recorded(kThreads);
  std::atomic<bool> storming{true};

  std::vector<std::thread> threads;
  JoinOnExit join_on_exit(&threads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      recorded[t].reserve(kRounds * requests.size());
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < requests.size(); ++i) {
          recorded[t].push_back(Recorded{i, engine.Query(requests[i])});
        }
      }
    });
  }

  // Maintenance runs concurrently with the storm: a stream of far-apart
  // corner items, spaced so several land mid-storm.
  size_t admitted = 0;
  for (size_t d = 0; d < 8 && storming.load(); ++d) {
    core::CatalogDelta delta =
        CornerDelta(d % 4, d < 4 ? 0.9997 : 0.999);
    delta.id = "storm-" + std::to_string(d);
    auto receipt = maintainer.SubmitDelta(delta);
    ASSERT_TRUE(receipt.ok());
    if (receipt.ValueOrDie().outcome == core::DeltaOutcome::kAdmitted) {
      ++admitted;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& th : threads) th.join();
  storming.store(false);
  maintainer.Drain();

  const auto stats = maintainer.stats();
  EXPECT_GE(admitted, 1u) << "the storm must observe at least one swap";
  EXPECT_GE(stats.generations_published, 1u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(engine.index_epoch(), maintainer.epoch());
  {
    std::lock_guard<std::mutex> lock(gen_mu);
    EXPECT_EQ(generations.size(), 1 + stats.generations_published);
  }

  // Serial replay: every answer against its own pinned generation.
  size_t replayed = 0;
  for (const auto& per_thread : recorded) {
    for (const auto& rec : per_thread) {
      const auto& req = requests[rec.request];
      std::shared_ptr<const core::InflexIndex> gen;
      if (rec.result.ok()) {
        std::lock_guard<std::mutex> lock(gen_mu);
        auto it = generations.find(rec.result.ValueOrDie().generation);
        ASSERT_NE(it, generations.end())
            << "answer served by an unknown generation "
            << rec.result.ValueOrDie().generation;
        gen = it->second;
      } else {
        gen = generations[engine.index_epoch()];
      }
      ExpectSameAnswer(rec.result, gen->Query(req.item, req.k, req.options),
                       rec.request);
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, static_cast<size_t>(kThreads) * kRounds *
                          requests.size());
}

// The same invariant under the FULL maintenance plane: coalesced delta
// bursts AND decay sweeps (evictions renumber index points!) race a serving
// storm with hit accounting on. Every recorded answer must still replay
// bit-identically against its pinned generation, and the generation history
// must be exactly the published sequence. Runs under TSan via
// tests/run_sanitized_stress.sh.
TEST_F(MaintenanceTest, EvictionCoalescingStormKeepsAnswersBitIdentical) {
  auto initial = InitialGeneration();
  ThreadPool serve_pool(8);
  core::QueryEngineOptions eopts;
  eopts.pool = &serve_pool;
  eopts.cache.num_shards = 8;
  eopts.cache.capacity = 4096;
  eopts.enable_hit_accounting = true;
  core::QueryEngine engine(initial, eopts);

  std::mutex gen_mu;
  std::map<uint64_t, std::shared_ptr<const core::InflexIndex>> generations;
  generations[0] = initial;

  ThreadPool maint_pool(2);
  auto mopts = FastOptions();
  mopts.pool = &maint_pool;
  mopts.max_batch = 8;
  mopts.max_batch_delay_ms = 5.0;
  mopts.min_point_age_generations = 1;
  mopts.min_index_points = 8;
  mopts.eviction_score_threshold = 0.25;
  mopts.on_publish = [&](uint64_t epoch,
                         std::shared_ptr<const core::InflexIndex> gen) {
    std::lock_guard<std::mutex> lock(gen_mu);
    generations[epoch] = std::move(gen);
  };
  core::IndexMaintainer maintainer(initial, &dataset_->graph, &engine, mopts);

  const auto requests = MakeWorkload(32, 2718);
  struct Recorded {
    size_t request;
    Result<core::QueryResult> result = Status::Internal("unset");
  };
  constexpr int kThreads = 6;
  constexpr int kRounds = 4;
  std::vector<std::vector<Recorded>> recorded(kThreads);
  std::vector<std::thread> threads;
  JoinOnExit join_on_exit(&threads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      recorded[t].reserve(kRounds * requests.size());
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < requests.size(); ++i) {
          recorded[t].push_back(Recorded{i, engine.Query(requests[i])});
        }
      }
    });
  }

  // Maintenance storm: 12 mutually-admissible mixtures interleaved with
  // sweep requests so evictions and coalesced publications overlap the
  // serving load.
  const auto storm = FarApartMixtures(*initial, 12, 0.15, 2719);
  for (size_t d = 0; d < storm.size(); ++d) {
    core::CatalogDelta delta;
    delta.id = "evict-storm-" + std::to_string(d);
    delta.item = storm[d];
    ASSERT_TRUE(maintainer.SubmitDelta(delta).ok());
    if ((d + 1) % 3 == 0) maintainer.RequestDecaySweep();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  maintainer.RequestDecaySweep();
  for (auto& th : threads) th.join();
  maintainer.Drain();

  const auto stats = maintainer.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.decay_sweeps, 1u);
  EXPECT_GE(stats.generations_published, 1u);
  EXPECT_EQ(engine.index_epoch(), maintainer.epoch());
  EXPECT_EQ(engine.HitScores().size(),
            maintainer.current()->num_index_points());
  {
    std::lock_guard<std::mutex> lock(gen_mu);
    EXPECT_EQ(generations.size(), 1 + stats.generations_published);
  }

  // Serial replay: every answer against its own pinned generation — even
  // answers served by generations whose points were later evicted and
  // renumbered.
  size_t replayed = 0;
  for (const auto& per_thread : recorded) {
    for (const auto& rec : per_thread) {
      const auto& req = requests[rec.request];
      std::shared_ptr<const core::InflexIndex> gen;
      if (rec.result.ok()) {
        std::lock_guard<std::mutex> lock(gen_mu);
        auto it = generations.find(rec.result.ValueOrDie().generation);
        ASSERT_NE(it, generations.end())
            << "answer served by an unknown generation "
            << rec.result.ValueOrDie().generation;
        gen = it->second;
      } else {
        gen = generations[engine.index_epoch()];
      }
      ExpectSameAnswer(rec.result, gen->Query(req.item, req.k, req.options),
                       rec.request);
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, static_cast<size_t>(kThreads) * kRounds *
                          requests.size());
}

}  // namespace
}  // namespace inflex

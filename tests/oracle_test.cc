// Tests for the spread-oracle subsystem (src/oracle/, DESIGN.md §14): the
// backend factory and name parsing, request validation, cross-backend seed
// quality (RIS must match the CELF++ golden reference within Monte-Carlo
// tolerance, on full and topic-masked mixtures), deterministic near-tie
// ordering, per-backend precompute attribution through the maintenance
// plane, and a concurrent admission
// storm per backend whose published seed lists must be bit-identical to a
// serial replay of the same delta sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "graph/topic_graph.h"
#include "im/ris.h"
#include "im/spread_estimator.h"
#include "inflex/index_maintainer.h"
#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "oracle/spread_oracle.h"
#include "simplex/sampling.h"
#include "simplex/topic_distribution.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace inflex {
namespace {

using oracle::MakeSpreadOracle;
using oracle::OracleBackend;
using oracle::SpreadOracleOptions;

class OracleTest : public ::testing::Test {
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

  static std::shared_ptr<const core::InflexIndex> InitialGeneration() {
    return std::make_shared<core::InflexIndex>(*index_);
  }

  /// Backend tunings sized for the 200-user graph: accurate enough that the
  /// cross-backend quality assertions are far from their tolerance.
  static SpreadOracleOptions TunedOptions(OracleBackend backend) {
    SpreadOracleOptions o;
    o.backend = backend;
    o.seed = 515;
    o.num_snapshots = 60;
    o.num_rr_sets = 20000;
    return o;
  }

  static simplex::TopicDistribution UniformMixture() {
    return simplex::TopicDistribution::Create({0.25, 0.25, 0.25, 0.25})
        .ValueOrDie();
  }

  /// A topic-masked mixture: nearly all mass on one topic, so the IC
  /// instance runs one community's arcs at full strength and everything
  /// else near zero — the regime where WHO is influential depends on topic.
  static simplex::TopicDistribution CornerMixture(size_t corner) {
    std::vector<double> p(4, 0.0001 / 3.0);
    p[corner % 4] = 0.9999;
    return simplex::TopicDistribution::Create(p).ValueOrDie();
  }

  static core::CatalogDelta CornerDelta(size_t corner, double mass = 0.9997) {
    const double rest = (1.0 - mass) / 3.0;
    std::vector<double> p(4, rest);
    p[corner % 4] = mass;
    core::CatalogDelta d;
    d.id = "corner-" + std::to_string(corner);
    d.item = simplex::TopicDistribution::Create(p).ValueOrDie();
    return d;
  }

  /// Monte-Carlo spread of `seeds` on the `item` instance — the common
  /// referee every cross-backend comparison shares.
  static double RefereeSpread(const simplex::TopicDistribution& item,
                              const std::vector<graph::NodeId>& seeds) {
    im::MonteCarloOptions mc;
    mc.num_simulations = 1000;
    mc.seed = 4242;
    mc.parallel = false;
    auto est = im::EstimateSpread(
        dataset_->graph, dataset_->graph.ItemArcProbabilities(item), seeds,
        mc);
    EXPECT_TRUE(est.ok());
    return est.ok() ? est.ValueOrDie().mean : 0.0;
  }

  static data::SyntheticDataset* dataset_;
  static core::InflexIndex* index_;
};

data::SyntheticDataset* OracleTest::dataset_ = nullptr;
core::InflexIndex* OracleTest::index_ = nullptr;

// ------------------------------------------------------ factory & parsing ---

TEST_F(OracleTest, BackendNamesRoundTrip) {
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    const auto parsed = oracle::ParseOracleBackend(oracle::OracleBackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), b);
  }
  EXPECT_EQ(oracle::ParseOracleBackend("sketch").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(oracle::ParseOracleBackend("celf").ok());
  EXPECT_FALSE(oracle::ParseOracleBackend("").ok());
}

TEST_F(OracleTest, FactoryBuildsEveryBackend) {
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    auto made = MakeSpreadOracle(&dataset_->graph, TunedOptions(b));
    ASSERT_TRUE(made.ok()) << oracle::OracleBackendName(b);
    EXPECT_EQ(made.ValueOrDie()->backend(), b);
    EXPECT_STREQ(made.ValueOrDie()->name(), oracle::OracleBackendName(b));
  }
}

TEST_F(OracleTest, SelectSeedsValidatesRequests) {
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    auto made = MakeSpreadOracle(&dataset_->graph, TunedOptions(b));
    ASSERT_TRUE(made.ok());
    auto& orc = *made.ValueOrDie();
    EXPECT_FALSE(orc.SelectSeeds(UniformMixture(), 0).ok());
    EXPECT_FALSE(
        orc.SelectSeeds(UniformMixture(), dataset_->graph.num_nodes() + 1)
            .ok());
    // Wrong topic dimensionality for the 4-topic graph.
    const auto bad =
        simplex::TopicDistribution::Create({0.5, 0.5}).ValueOrDie();
    EXPECT_FALSE(orc.SelectSeeds(bad, 3).ok());
  }
}

// ------------------------------------------------- cross-backend quality ---

// RIS must reach CELF++-grade spread, judged by one common
// Monte-Carlo referee. The tolerance (0.85x) is far looser than the bench
// gate (0.95x at bench scale): on a 200-user graph a single borderline seed
// moves the ratio, and this test must stay deterministic-robust.
TEST_F(OracleTest, BackendsAgreeOnFullMixture) {
  constexpr size_t kSeeds = 5;
  const auto item = UniformMixture();
  double golden = 0.0;
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    auto made = MakeSpreadOracle(&dataset_->graph, TunedOptions(b));
    ASSERT_TRUE(made.ok());
    auto sel = made.ValueOrDie()->SelectSeeds(item, kSeeds, 7);
    ASSERT_TRUE(sel.ok()) << oracle::OracleBackendName(b);
    ASSERT_EQ(sel.ValueOrDie().seeds.size(), kSeeds);
    const double spread = RefereeSpread(item, sel.ValueOrDie().seeds);
    EXPECT_GT(spread, 0.0);
    if (b == OracleBackend::kCelfPp) {
      golden = spread;
    } else {
      EXPECT_GE(spread, 0.85 * golden)
          << oracle::OracleBackendName(b) << " fell below CELF++ quality";
    }
  }
}

TEST_F(OracleTest, BackendsAgreeOnTopicMaskedMixture) {
  constexpr size_t kSeeds = 5;
  for (const size_t corner : {0u, 2u}) {
    const auto item = CornerMixture(corner);
    double golden = 0.0;
    for (const OracleBackend b : {OracleBackend::kCelfPp, OracleBackend::kRis}) {
      auto made = MakeSpreadOracle(&dataset_->graph, TunedOptions(b));
      ASSERT_TRUE(made.ok());
      auto sel = made.ValueOrDie()->SelectSeeds(item, kSeeds, 11);
      ASSERT_TRUE(sel.ok());
      const double spread = RefereeSpread(item, sel.ValueOrDie().seeds);
      if (b == OracleBackend::kCelfPp) {
        golden = spread;
      } else {
        EXPECT_GE(spread, 0.85 * golden)
            << oracle::OracleBackendName(b) << " corner " << corner;
      }
    }
  }
}

TEST_F(OracleTest, SelectSeedsIsDeterministicPerSalt) {
  const auto item = CornerMixture(1);
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    auto a = MakeSpreadOracle(&dataset_->graph, TunedOptions(b));
    auto c = MakeSpreadOracle(&dataset_->graph, TunedOptions(b));
    ASSERT_TRUE(a.ok() && c.ok());
    auto r1 = a.ValueOrDie()->SelectSeeds(item, 6, 42);
    auto r2 = c.ValueOrDie()->SelectSeeds(item, 6, 42);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(r1.ValueOrDie().seeds, r2.ValueOrDie().seeds)
        << oracle::OracleBackendName(b)
        << ": same options + salt must replay bit-identically";
  }
}

// ---------------------------------------------- deterministic tie ordering ---

// On a deterministic cycle (every arc probability 1) every node covers every
// RR set, so all greedy choices are exact ties: the selection must resolve
// toward smaller node ids, yielding 0, 1, 2, ... regardless of the sampling
// seed.
TEST_F(OracleTest, RisBreaksExactTiesTowardSmallerIds) {
  constexpr size_t kNodes = 6;
  graph::TopicGraphBuilder b(kNodes, 1);
  for (size_t u = 0; u < kNodes; ++u) {
    ASSERT_TRUE(
        b.AddArc(static_cast<graph::NodeId>(u),
                 static_cast<graph::NodeId>((u + 1) % kNodes), {1.0})
            .ok());
  }
  const graph::TopicGraph g = b.Build().ValueOrDie();
  const graph::ArcProbabilities probs(g.num_arcs(), 1.0);
  for (const uint64_t seed : {1u, 99u, 12345u}) {
    im::RisOptions ropts;
    ropts.num_rr_sets = 500;
    ropts.seed = seed;
    auto sel = im::SelectSeedsRis(g, probs, 3, ropts);
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(sel.ValueOrDie().seeds,
              (std::vector<graph::NodeId>{0, 1, 2}))
        << "sampling seed " << seed;
  }
}

// ----------------------------------------- maintenance-plane integration ---

TEST_F(OracleTest, MaintainerAttributesPrecomputePerBackend) {
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    auto initial = InitialGeneration();
    core::QueryEngine engine(initial);
    core::IndexMaintainerOptions mopts;
    mopts.admission_threshold = 0.05;
    mopts.oracle = TunedOptions(b);
    core::IndexMaintainer m(initial, &dataset_->graph, &engine, mopts);

    auto receipt = m.SubmitDelta(CornerDelta(b == OracleBackend::kRis ? 1 : 2));
    ASSERT_TRUE(receipt.ok());
    ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
    m.Drain();

    EXPECT_EQ(m.stats().generations_published, 1u);
    EXPECT_GT(m.current()->num_index_points(), initial->num_index_points());

    const auto stats = engine.cumulative_stats();
    ASSERT_EQ(stats.precompute.size(), 1u) << oracle::OracleBackendName(b);
    EXPECT_EQ(stats.precompute[0].backend, oracle::OracleBackendName(b));
    EXPECT_EQ(stats.precompute[0].count, 1u);
    EXPECT_GT(stats.precompute[0].mean_ns(), 0.0);
    EXPECT_GE(stats.precompute[0].max_ns, stats.precompute[0].mean_ns());
  }
}

TEST_F(OracleTest, DefaultMaintainerOptionsReproduceRisPath) {
  // A maintainer with untouched oracle options must publish bit-identical
  // seed lists to one explicitly configured for the RIS backend — RIS is
  // the default since it cleared the golden-corpus quality gate, and
  // "untouched options" must keep meaning exactly one reproducible path.
  const auto delta = CornerDelta(3);
  std::vector<rank::RankedList> lists;
  for (const bool explicit_backend : {false, true}) {
    auto initial = InitialGeneration();
    core::IndexMaintainerOptions mopts;
    mopts.oracle.num_snapshots = 20;
    mopts.admission_threshold = 0.05;
    if (explicit_backend) mopts.oracle.backend = OracleBackend::kRis;
    core::IndexMaintainer m(initial, &dataset_->graph, nullptr, mopts);
    auto receipt = m.SubmitDelta(delta);
    ASSERT_TRUE(receipt.ok());
    ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
    m.Drain();
    const auto current = m.current();
    const auto nn =
        current->tree().ExactKnn(delta.item.probs(), 1).front();
    lists.push_back(current->seed_list(nn.point_id));
    EXPECT_FALSE(lists.back().empty());
  }
  EXPECT_EQ(lists[0], lists[1]);
}

// ------------------------------------------------- concurrent admission ---

// Stops and joins a storm's querier thread when it leaves scope. A failed
// ASSERT while the querier runs returns early; without the join it would end
// the whole binary on a joinable std::thread instead of failing its test.
class StopOnExit {
 public:
  StopOnExit(std::atomic<bool>* stop, std::thread* querier)
      : stop_(stop), querier_(querier) {}
  StopOnExit(const StopOnExit&) = delete;
  StopOnExit& operator=(const StopOnExit&) = delete;
  ~StopOnExit() {
    stop_->store(true);
    if (querier_->joinable()) querier_->join();
  }

 private:
  std::atomic<bool>* stop_;
  std::thread* querier_;
};

// Per backend: a serving storm hammers the engine while corner deltas are
// admitted and precomputed on a multi-worker maintenance pool. Afterwards,
// every published seed list must be bit-identical to a serial replay of the
// same delta sequence — the deterministic-salt contract under real
// concurrency. run_sanitized_stress.sh runs this under TSan.
TEST_F(OracleTest, ConcurrentStormMatchesSerialReplayPerBackend) {
  for (const OracleBackend b :
       {OracleBackend::kCelfPp, OracleBackend::kRis}) {
    SCOPED_TRACE(oracle::OracleBackendName(b));
    std::vector<core::CatalogDelta> deltas;
    for (size_t i = 0; i < 4; ++i) {
      deltas.push_back(CornerDelta(i, i % 2 == 0 ? 0.9997 : 0.999));
    }

    core::IndexMaintainerOptions mopts;
    mopts.admission_threshold = 0.05;
    mopts.oracle = TunedOptions(b);
    mopts.oracle.num_rr_sets = 4000;  // storm cares about races, not quality
    mopts.oracle.num_snapshots = 10;

    // Concurrent run: queries + multi-worker precompute + publication.
    auto initial = InitialGeneration();
    ThreadPool serve_pool(3);
    ThreadPool maint_pool(2);
    core::QueryEngineOptions eopts;
    eopts.pool = &serve_pool;
    core::QueryEngine engine(initial, eopts);
    core::IndexMaintainerOptions storm_opts = mopts;
    storm_opts.pool = &maint_pool;
    core::IndexMaintainer m(initial, &dataset_->graph, &engine, storm_opts);

    std::atomic<bool> stop{false};
    std::thread querier([&] {
      Rng rng(99);
      while (!stop.load(std::memory_order_relaxed)) {
        core::QueryRequest r;
        r.item = simplex::TopicDistribution::Create(
                     simplex::SampleUniformSimplex(4, &rng))
                     .ValueOrDie();
        r.k = 5;
        (void)engine.Query(r);
      }
    });
    StopOnExit stop_on_exit(&stop, &querier);
    for (const auto& d : deltas) {
      auto receipt = m.SubmitDelta(d);
      ASSERT_TRUE(receipt.ok());
      ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
    }
    m.Drain();
    stop.store(true);
    querier.join();

    // Serial replay: same deltas, same order, single-threaded pool, no
    // serving load.
    auto replay_initial = InitialGeneration();
    core::IndexMaintainer replay(replay_initial, &dataset_->graph, nullptr,
                                 mopts);
    for (const auto& d : deltas) {
      auto receipt = replay.SubmitDelta(d);
      ASSERT_TRUE(receipt.ok());
      ASSERT_EQ(receipt.ValueOrDie().outcome, core::DeltaOutcome::kAdmitted);
    }
    replay.Drain();

    const auto stormed = m.current();
    const auto replayed = replay.current();
    for (const auto& d : deltas) {
      const auto nn_s = stormed->tree().ExactKnn(d.item.probs(), 1).front();
      const auto nn_r = replayed->tree().ExactKnn(d.item.probs(), 1).front();
      EXPECT_EQ(stormed->seed_list(nn_s.point_id),
                replayed->seed_list(nn_r.point_id))
          << d.id << " under " << oracle::OracleBackendName(b);
    }
  }
}

}  // namespace
}  // namespace inflex

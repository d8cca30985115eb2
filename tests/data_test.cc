#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "im/cascade.h"
#include "simplex/divergence.h"
#include "util/random.h"

namespace inflex {
namespace data {
namespace {

SyntheticDatasetOptions SmallOptions(uint64_t seed) {
  SyntheticDatasetOptions o;
  o.num_users = 200;
  o.num_topics = 4;
  o.num_items = 80;
  o.seed = seed;
  return o;
}

TEST(SyntheticDatasetTest, ValidatesOptions) {
  SyntheticDatasetOptions o = SmallOptions(1);
  o.num_users = 2;
  EXPECT_FALSE(GenerateSyntheticDataset(o).ok());
  o = SmallOptions(1);
  o.num_topics = 1;
  EXPECT_FALSE(GenerateSyntheticDataset(o).ok());
  o = SmallOptions(1);
  o.strong_prob_lo = 0.5;
  o.strong_prob_hi = 0.1;
  EXPECT_FALSE(GenerateSyntheticDataset(o).ok());
  o = SmallOptions(1);
  o.seeds_per_cascade = 0;
  EXPECT_FALSE(GenerateSyntheticDataset(o).ok());
  // More topics than users would leave a community empty: rejected with a
  // Status, not an abort when an item's cascades draw their seeds.
  o = SmallOptions(1);
  o.num_users = 10;
  o.num_topics = 12;
  o.seeds_per_cascade = 1;
  const auto r = GenerateSyntheticDataset(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  o.num_topics = 10;
  EXPECT_TRUE(GenerateSyntheticDataset(o).ok());
}

// The log built the way the generator once built it: every arc's item
// probability materialized up front, then SimulateCascadeNodes on the
// full vector.
tic::PropagationLog ReferenceLog(const SyntheticDataset& ds,
                                 size_t cascades_per_item,
                                 size_t seeds_per_cascade, Rng* rng) {
  const size_t n = ds.graph.num_nodes();
  std::vector<std::vector<graph::NodeId>> members(ds.graph.num_topics());
  for (size_t u = 0; u < n; ++u) {
    members[ds.user_community[u]].push_back(static_cast<graph::NodeId>(u));
  }
  tic::PropagationLog log(n, ds.catalog.size());
  im::CascadeWorkspace ws(n);
  std::vector<graph::NodeId> activated;
  std::vector<graph::NodeId> seeds(seeds_per_cascade);
  for (uint32_t i = 0; i < ds.catalog.size(); ++i) {
    const graph::ArcProbabilities probs =
        ds.graph.ItemArcProbabilities(ds.catalog[i]);
    const auto& gamma = ds.catalog[i].probs();
    const auto& pool = members[static_cast<size_t>(
        std::max_element(gamma.begin(), gamma.end()) - gamma.begin())];
    for (size_t c = 0; c < cascades_per_item; ++c) {
      for (auto& s : seeds) s = pool[rng->UniformInt(pool.size())];
      im::SimulateCascadeNodes(ds.graph, probs, seeds, rng, &ws, &activated);
      double t = 0.0;
      for (graph::NodeId u : activated) {
        EXPECT_TRUE(log.Add(u, i, static_cast<double>(c) * 1e6 + t).ok());
        t += 1.0;
      }
    }
  }
  EXPECT_TRUE(log.Finalize().ok());
  return log;
}

// Probabilities computed only for the arcs a cascade tests give the same
// draws, the same activations and so the same log, record for record.
TEST(SyntheticDatasetTest, LogMatchesFullProbabilityReference) {
  for (const size_t cascades : {0u, 1u, 4u}) {
    for (const size_t seeds : {1u, 4u}) {
      SyntheticDatasetOptions o = SmallOptions(31 + cascades + seeds);
      o.cascades_per_item = cascades;
      o.seeds_per_cascade = seeds;
      auto r = GenerateSyntheticDataset(o);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const SyntheticDataset& ds = r.ValueOrDie();
      if (cascades == 0) {
        EXPECT_EQ(ds.log.size(), 0u);
      }

      Rng rng(97), ref_rng(97);
      auto log = SimulatePropagationLog(ds.graph, ds.catalog,
                                        ds.user_community, cascades, seeds,
                                        &rng);
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      const tic::PropagationLog ref =
          ReferenceLog(ds, cascades, seeds, &ref_rng);
      const tic::PropagationLog& got = log.ValueOrDie();
      ASSERT_EQ(got.size(), ref.size())
          << "cascades " << cascades << " seeds " << seeds;
      for (tic::ItemId i = 0; i < ref.num_items(); ++i) {
        const auto want = ref.ItemActivations(i);
        const auto have = got.ItemActivations(i);
        ASSERT_EQ(have.size(), want.size()) << "item " << i;
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ(have[j].user, want[j].user);
          EXPECT_EQ(std::bit_cast<uint64_t>(have[j].timestamp),
                    std::bit_cast<uint64_t>(want[j].timestamp));
        }
      }
      // Both consumed the same draws.
      EXPECT_EQ(rng.Next(), ref_rng.Next());
    }
  }
}

TEST(SyntheticDatasetTest, SimulatePropagationLogValidates) {
  auto r = GenerateSyntheticDataset(SmallOptions(5));
  ASSERT_TRUE(r.ok());
  const SyntheticDataset& ds = r.ValueOrDie();
  Rng rng(1);
  std::vector<uint32_t> short_communities(ds.user_community.begin(),
                                          ds.user_community.end() - 1);
  EXPECT_FALSE(SimulatePropagationLog(ds.graph, ds.catalog, short_communities,
                                      1, 1, &rng)
                   .ok());
  std::vector<uint32_t> bad_community = ds.user_community;
  bad_community[3] = 4;  // Z = 4
  EXPECT_FALSE(
      SimulatePropagationLog(ds.graph, ds.catalog, bad_community, 1, 1, &rng)
          .ok());
  // Nobody in community 0: items whose largest topic is 0 have no seeds.
  std::vector<uint32_t> no_zero = ds.user_community;
  for (uint32_t& c : no_zero) c = c == 0 ? 1 : c;
  EXPECT_FALSE(
      SimulatePropagationLog(ds.graph, ds.catalog, no_zero, 1, 1, &rng).ok());
  EXPECT_TRUE(
      SimulatePropagationLog(ds.graph, ds.catalog, no_zero, 0, 1, &rng).ok());
}

TEST(SyntheticDatasetTest, StructuralInvariants) {
  auto ds_r = GenerateSyntheticDataset(SmallOptions(7));
  ASSERT_TRUE(ds_r.ok()) << ds_r.status().ToString();
  const SyntheticDataset& ds = ds_r.ValueOrDie();

  EXPECT_EQ(ds.graph.num_nodes(), 200u);
  EXPECT_EQ(ds.graph.num_topics(), 4u);
  EXPECT_GT(ds.graph.num_arcs(), 200u);  // several arcs per node on average
  EXPECT_EQ(ds.catalog.size(), 80u);
  EXPECT_EQ(ds.user_community.size(), 200u);
  EXPECT_EQ(ds.log.num_users(), 200u);
  EXPECT_EQ(ds.log.num_items(), 80u);
  EXPECT_GT(ds.log.size(), 80u);  // cascades produced activity

  for (uint32_t c : ds.user_community) EXPECT_LT(c, 4u);
  for (const auto& item : ds.catalog) {
    EXPECT_EQ(item.num_topics(), 4u);
  }
  for (graph::ArcId a = 0; a < ds.graph.num_arcs(); ++a) {
    for (size_t z = 0; z < 4; ++z) {
      const double p = ds.graph.ArcTopicProb(a, z);
      EXPECT_GT(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
  }
}

TEST(SyntheticDatasetTest, TopicStructureIsPresent) {
  // An arc's strongest topic should usually be its source's community —
  // the property that makes influence topic-dependent.
  auto ds_r = GenerateSyntheticDataset(SmallOptions(11));
  ASSERT_TRUE(ds_r.ok());
  const SyntheticDataset& ds = ds_r.ValueOrDie();
  size_t matches = 0, arcs = 0;
  for (graph::NodeId u = 0; u < ds.graph.num_nodes(); ++u) {
    graph::ArcId a = ds.graph.OutArcBegin(u);
    for (size_t i = 0; i < ds.graph.OutDegree(u); ++i, ++a) {
      const auto probs = ds.graph.ArcTopicProbs(a);
      const size_t best =
          std::max_element(probs.begin(), probs.end()) - probs.begin();
      if (best == ds.user_community[u]) ++matches;
      ++arcs;
    }
  }
  EXPECT_GT(static_cast<double>(matches) / arcs, 0.8);
}

TEST(SyntheticDatasetTest, DeterministicForFixedSeed) {
  auto a = GenerateSyntheticDataset(SmallOptions(13));
  auto b = GenerateSyntheticDataset(SmallOptions(13));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().graph.num_arcs(), b.ValueOrDie().graph.num_arcs());
  EXPECT_EQ(a.ValueOrDie().log.size(), b.ValueOrDie().log.size());
  for (size_t i = 0; i < 80; ++i) {
    EXPECT_EQ(a.ValueOrDie().catalog[i].probs(),
              b.ValueOrDie().catalog[i].probs());
  }
}

// The whole generated dataset pinned bit-for-bit: arcs with their per-topic
// probabilities, the catalog, and every log record, whose cascades compute
// each tested arc's item probability on demand. The constant was recorded
// on the serial generator in the default (non-INFLEX_NATIVE) build.
TEST(SyntheticDatasetTest, MatchesPinnedDigest) {
#ifdef __FMA__
  GTEST_SKIP() << "digests are pinned for builds without FMA contraction";
#endif
  SyntheticDatasetOptions o = SmallOptions(23);
  o.num_users = 300;
  o.num_items = 400;
  auto r = GenerateSyntheticDataset(o);
  ASSERT_TRUE(r.ok());
  const SyntheticDataset& ds = r.ValueOrDie();
  uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](uint64_t v) {
    digest = (digest ^ v) * 0x100000001b3ULL;
  };
  const graph::TopicGraph& g = ds.graph;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    graph::ArcId a = g.OutArcBegin(u);
    for (graph::NodeId v : g.OutNeighbors(u)) {
      fold(u);
      fold(v);
      for (double p : g.ArcTopicProbs(a)) fold(std::bit_cast<uint64_t>(p));
      ++a;
    }
  }
  for (const auto& item : ds.catalog) {
    for (double p : item.probs()) fold(std::bit_cast<uint64_t>(p));
  }
  fold(ds.log.size());
  for (tic::ItemId i = 0; i < ds.log.num_items(); ++i) {
    for (const tic::Activation& act : ds.log.ItemActivations(i)) {
      fold(act.user);
      fold(act.item);
      fold(std::bit_cast<uint64_t>(act.timestamp));
    }
  }
  EXPECT_EQ(digest, 0x3ec407a0023e049dULL) << std::hex << "digest 0x" << digest;
}

TEST(SyntheticDatasetTest, DifferentSeedsDiffer) {
  auto a = GenerateSyntheticDataset(SmallOptions(17));
  auto b = GenerateSyntheticDataset(SmallOptions(18));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.ValueOrDie().catalog[0].probs(),
            b.ValueOrDie().catalog[0].probs());
}

TEST(DatasetIoTest, FullRoundTrip) {
  auto ds_r = GenerateSyntheticDataset(SmallOptions(19));
  ASSERT_TRUE(ds_r.ok());
  const std::string dir = testing::TempDir() + "/dataset_roundtrip";
  ASSERT_TRUE(SaveDataset(ds_r.ValueOrDie(), dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SyntheticDataset& a = ds_r.ValueOrDie();
  const SyntheticDataset& b = loaded.ValueOrDie();
  EXPECT_EQ(a.graph.num_arcs(), b.graph.num_arcs());
  EXPECT_EQ(a.catalog.size(), b.catalog.size());
  EXPECT_EQ(a.log.size(), b.log.size());
  EXPECT_EQ(a.user_community, b.user_community);
  for (size_t i = 0; i < a.catalog.size(); ++i) {
    EXPECT_EQ(a.catalog[i].probs(), b.catalog[i].probs());
  }
}

TEST(DatasetIoTest, CatalogRoundTrip) {
  auto ds_r = GenerateSyntheticDataset(SmallOptions(23));
  ASSERT_TRUE(ds_r.ok());
  const std::string path = testing::TempDir() + "/catalog.bin";
  ASSERT_TRUE(SaveCatalog(ds_r.ValueOrDie().catalog, path).ok());
  auto loaded = LoadCatalog(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().size(), 80u);
  EXPECT_FALSE(SaveCatalog({}, path).ok());
  EXPECT_FALSE(LoadCatalog("/no/such/catalog.bin").ok());
}

// ----------------------------------------------------------------- workload ---

TEST(WorkloadTest, GeneratesBothPopulations) {
  auto ds_r = GenerateSyntheticDataset(SmallOptions(29));
  ASSERT_TRUE(ds_r.ok());
  QueryWorkloadOptions opts;
  opts.num_data_driven = 20;
  opts.num_uniform = 15;
  auto w = GenerateQueryWorkload(ds_r.ValueOrDie().catalog, opts);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w.ValueOrDie().queries.size(), 35u);
  size_t data_driven = 0;
  for (bool b : w.ValueOrDie().is_data_driven) data_driven += b;
  EXPECT_EQ(data_driven, 20u);
  for (const auto& q : w.ValueOrDie().queries) {
    EXPECT_EQ(q.num_topics(), 4u);
  }
}

TEST(WorkloadTest, DataDrivenQueriesFollowCatalogShape) {
  // Data-driven queries should on average sit closer to their nearest
  // catalog item (in symmetrized KL) than uniform-simplex queries do —
  // they are drawn from the distribution the catalog induces.
  auto ds_r = GenerateSyntheticDataset(SmallOptions(31));
  ASSERT_TRUE(ds_r.ok());
  const auto& catalog = ds_r.ValueOrDie().catalog;

  QueryWorkloadOptions opts;
  opts.num_data_driven = 100;
  opts.num_uniform = 100;
  auto w = GenerateQueryWorkload(catalog, opts);
  ASSERT_TRUE(w.ok());
  double dd = 0.0, uni = 0.0;
  for (size_t i = 0; i < w.ValueOrDie().queries.size(); ++i) {
    double nearest = 1e18;
    for (const auto& item : catalog) {
      nearest = std::min(nearest,
                         simplex::SymmetrizedKl(
                             w.ValueOrDie().queries[i].probs(), item.probs()));
    }
    if (w.ValueOrDie().is_data_driven[i]) {
      dd += nearest;
    } else {
      uni += nearest;
    }
  }
  EXPECT_LT(dd / 100.0, uni / 100.0);
}

TEST(WorkloadTest, RejectsBadInput) {
  EXPECT_FALSE(GenerateQueryWorkload({}, {}).ok());
  auto ds_r = GenerateSyntheticDataset(SmallOptions(37));
  ASSERT_TRUE(ds_r.ok());
  QueryWorkloadOptions bad;
  bad.boundary_smoothing = 2.0;
  EXPECT_FALSE(GenerateQueryWorkload(ds_r.ValueOrDie().catalog, bad).ok());
}

}  // namespace
}  // namespace data
}  // namespace inflex

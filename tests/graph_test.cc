#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "graph/graph_io.h"
#include "graph/topic_graph.h"
#include "simplex/topic_distribution.h"
#include "util/random.h"

namespace inflex {
namespace graph {
namespace {

TopicGraph MakeTriangleGraph() {
  // 0→1, 1→2, 2→0, 0→2 with distinct per-topic probabilities (Z = 2).
  TopicGraphBuilder b(3, 2);
  EXPECT_TRUE(b.AddArc(0, 1, {0.1, 0.9}).ok());
  EXPECT_TRUE(b.AddArc(1, 2, {0.2, 0.8}).ok());
  EXPECT_TRUE(b.AddArc(2, 0, {0.3, 0.7}).ok());
  EXPECT_TRUE(b.AddArc(0, 2, {0.4, 0.6}).ok());
  return b.Build().ValueOrDie();
}

TEST(TopicGraphBuilderTest, RejectsInvalidArcs) {
  TopicGraphBuilder b(3, 2);
  EXPECT_EQ(b.AddArc(0, 3, {0.1, 0.2}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(b.AddArc(3, 0, {0.1, 0.2}).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(b.AddArc(1, 1, {0.1, 0.2}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddArc(0, 1, {0.1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddArc(0, 1, {0.1, 1.2}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AddArc(0, 1, {-0.1, 0.2}).code(), StatusCode::kInvalidArgument);
}

TEST(TopicGraphBuilderTest, RejectsDuplicateArcs) {
  TopicGraphBuilder b(3, 2);
  ASSERT_TRUE(b.AddArc(0, 1, {0.1, 0.2}).ok());
  ASSERT_TRUE(b.AddArc(0, 1, {0.3, 0.4}).ok());
  EXPECT_FALSE(b.Build().ok());
}

// Build hands the staged arrays to the graph, permuting them in place when
// arcs came out of (source, target) order. Every insertion order must build
// the graph the sorted order builds, bit for bit, in both directions.
TEST(TopicGraphBuilderTest, ShuffledInsertionBuildsTheSortedGraph) {
  constexpr size_t kNodes = 40;
  constexpr size_t kTopics = 3;
  struct Arc {
    NodeId u, v;
    std::vector<double> probs;
  };
  Rng rng(17);
  std::vector<Arc> sorted_arcs;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = 0; v < kNodes; ++v) {
      if (u == v || rng.Uniform() >= 0.2) continue;
      Arc arc{u, v, {}};
      for (size_t z = 0; z < kTopics; ++z) arc.probs.push_back(rng.Uniform());
      sorted_arcs.push_back(arc);
    }
  }
  const auto build = [](const std::vector<Arc>& arcs) {
    TopicGraphBuilder b(kNodes, kTopics);
    b.Reserve(arcs.size());
    for (const Arc& arc : arcs) {
      EXPECT_TRUE(b.AddArc(arc.u, arc.v, arc.probs).ok());
    }
    auto g = b.Build();
    EXPECT_TRUE(g.ok());
    EXPECT_EQ(b.num_arcs_added(), 0u);
    return std::move(g).ValueOrDie();
  };
  const TopicGraph want = build(sorted_arcs);
  ASSERT_EQ(want.num_arcs(), sorted_arcs.size());
  for (size_t a = 0; a < sorted_arcs.size(); ++a) {
    ASSERT_EQ(want.ArcTarget(static_cast<ArcId>(a)), sorted_arcs[a].v);
  }

  std::vector<std::vector<Arc>> orders;
  // Reversal is a permutation of 2-cycles; shuffles have long cycles.
  orders.emplace_back(sorted_arcs.rbegin(), sorted_arcs.rend());
  for (int trial = 0; trial < 3; ++trial) {
    orders.push_back(sorted_arcs);
    rng.Shuffle(&orders.back());
  }
  for (const std::vector<Arc>& order : orders) {
    const TopicGraph got = build(order);
    ASSERT_EQ(got.num_nodes(), want.num_nodes());
    ASSERT_EQ(got.num_arcs(), want.num_arcs());
    for (NodeId u = 0; u < kNodes; ++u) {
      EXPECT_EQ(got.OutArcBegin(u), want.OutArcBegin(u));
      EXPECT_EQ(got.InDegree(u), want.InDegree(u));
      for (size_t i = 0; i < want.InDegree(u); ++i) {
        EXPECT_EQ(got.InNeighbors(u)[i], want.InNeighbors(u)[i]);
        EXPECT_EQ(got.InArcIds(u)[i], want.InArcIds(u)[i]);
      }
    }
    for (ArcId a = 0; a < want.num_arcs(); ++a) {
      EXPECT_EQ(got.ArcTarget(a), want.ArcTarget(a));
      for (size_t z = 0; z < kTopics; ++z) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.ArcTopicProb(a, z)),
                  std::bit_cast<uint64_t>(want.ArcTopicProb(a, z)));
      }
    }
  }
}

TEST(TopicGraphTest, BasicStructure) {
  const TopicGraph g = MakeTriangleGraph();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_arcs(), 4u);
  EXPECT_EQ(g.num_topics(), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.InDegree(2), 2u);
  EXPECT_EQ(g.InDegree(1), 1u);
}

TEST(TopicGraphTest, OutNeighborsSortedWithProbs) {
  const TopicGraph g = MakeTriangleGraph();
  const auto n0 = g.OutNeighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);  // arcs sorted by target
  EXPECT_EQ(n0[1], 2u);
  const ArcId a0 = g.OutArcBegin(0);
  EXPECT_DOUBLE_EQ(g.ArcTopicProb(a0, 0), 0.1);      // 0→1 topic 0
  EXPECT_DOUBLE_EQ(g.ArcTopicProb(a0 + 1, 1), 0.6);  // 0→2 topic 1
}

TEST(TopicGraphTest, ReverseAdjacencyConsistent) {
  const TopicGraph g = MakeTriangleGraph();
  // Every in-arc of v must map (via InArcIds) to a forward arc targeting v.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto sources = g.InNeighbors(v);
    const auto arc_ids = g.InArcIds(v);
    ASSERT_EQ(sources.size(), arc_ids.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(g.ArcTarget(arc_ids[i]), v);
      // And the forward arc belongs to the claimed source.
      bool found = false;
      ArcId a = g.OutArcBegin(sources[i]);
      for (size_t j = 0; j < g.OutDegree(sources[i]); ++j, ++a) {
        if (a == arc_ids[i]) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(TopicGraphTest, DegreeSumsMatchArcCount) {
  const TopicGraph g = MakeTriangleGraph();
  size_t out_sum = 0, in_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out_sum += g.OutDegree(u);
    in_sum += g.InDegree(u);
  }
  EXPECT_EQ(out_sum, g.num_arcs());
  EXPECT_EQ(in_sum, g.num_arcs());
}

TEST(TopicGraphTest, ItemArcProbabilitiesIsEq1Mixture) {
  const TopicGraph g = MakeTriangleGraph();
  const auto item =
      simplex::TopicDistribution::Create({0.25, 0.75}).ValueOrDie();
  const ArcProbabilities p = g.ItemArcProbabilities(item);
  ASSERT_EQ(p.size(), 4u);
  // Arc 0 is 0→1 with topic probs (0.1, 0.9).
  EXPECT_NEAR(p[0], 0.25 * 0.1 + 0.75 * 0.9, 1e-12);
  // Delta item reproduces a single topic's probabilities exactly.
  const auto delta = simplex::TopicDistribution::Delta(2, 0);
  const ArcProbabilities p0 = g.ItemArcProbabilities(delta);
  for (size_t a = 0; a < g.num_arcs(); ++a) {
    EXPECT_DOUBLE_EQ(p0[a], g.ArcTopicProb(static_cast<ArcId>(a), 0));
  }
}

TEST(TopicGraphTest, ItemArcProbabilitiesIntoReusesBuffer) {
  const TopicGraph g = MakeTriangleGraph();
  ArcProbabilities buf;
  g.ItemArcProbabilitiesInto(simplex::TopicDistribution::Uniform(2), &buf);
  EXPECT_EQ(buf.size(), g.num_arcs());
  const double first = buf[0];
  g.ItemArcProbabilitiesInto(simplex::TopicDistribution::Delta(2, 1), &buf);
  EXPECT_NE(buf[0], first);
}

// The four-arcs-at-a-time sums must give every arc the bits of a one-arc
// loop in topic order, and so must the single-arc ItemArcProbability the
// log's cascades call: every m mod 4 (below four arcs, at four, past 4096)
// and Z from 1 to 10.
TEST(TopicGraphTest, ItemArcProbabilitiesMatchPerArcLoopBitForBit) {
  constexpr NodeId kNodes = 70;  // 70·69 ordered pairs cover 4097 arcs
  Rng rng(19);
  for (size_t z_count : {1u, 2u, 7u, 8u, 10u}) {
    for (size_t m : {1u, 3u, 4u, 5u, 6u, 7u, 4097u}) {
      TopicGraphBuilder b(kNodes, z_count);
      for (size_t a = 0; a < m; ++a) {
        const NodeId u = static_cast<NodeId>(a / (kNodes - 1));
        const NodeId offset = static_cast<NodeId>(a % (kNodes - 1)) + 1;
        std::vector<double> probs(z_count);
        for (double& p : probs) p = rng.Uniform();
        ASSERT_TRUE(b.AddArc(u, (u + offset) % kNodes, probs).ok());
      }
      const TopicGraph g = b.Build().ValueOrDie();
      std::vector<double> mix(z_count);
      for (double& w : mix) w = rng.Uniform(0.01, 1.0);
      const auto item =
          simplex::TopicDistribution::FromUnnormalized(mix).ValueOrDie();
      ArcProbabilities got;
      g.ItemArcProbabilitiesInto(item, &got);
      ASSERT_EQ(got.size(), m);
      for (size_t a = 0; a < m; ++a) {
        const ArcId arc = static_cast<ArcId>(a);
        double expected = 0.0;
        for (size_t z = 0; z < z_count; ++z) {
          expected += item[z] * g.ArcTopicProb(arc, z);
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(got[a]),
                  std::bit_cast<uint64_t>(expected))
            << "Z=" << z_count << " m=" << m << " arc " << a;
        EXPECT_EQ(std::bit_cast<uint64_t>(g.ItemArcProbability(arc, item)),
                  std::bit_cast<uint64_t>(got[a]))
            << "Z=" << z_count << " m=" << m << " arc " << a;
      }
    }
  }
}

TEST(TopicGraphTest, SetArcTopicProbabilitiesValidates) {
  TopicGraph g = MakeTriangleGraph();
  std::vector<double> wrong_size(3, 0.5);
  EXPECT_FALSE(g.SetArcTopicProbabilities(wrong_size).ok());
  std::vector<double> bad_value(8, 0.5);
  bad_value[3] = 1.5;
  EXPECT_FALSE(g.SetArcTopicProbabilities(bad_value).ok());
  std::vector<double> good(8, 0.25);
  ASSERT_TRUE(g.SetArcTopicProbabilities(good).ok());
  EXPECT_DOUBLE_EQ(g.ArcTopicProb(0, 0), 0.25);
}

TEST(GraphIoTest, BinaryRoundTrip) {
  const TopicGraph g = MakeTriangleGraph();
  const std::string path = testing::TempDir() + "/graph_roundtrip.bin";
  ASSERT_TRUE(SaveTopicGraph(g, path).ok());
  auto loaded = LoadTopicGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TopicGraph& g2 = loaded.ValueOrDie();
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_arcs(), g.num_arcs());
  ASSERT_EQ(g2.num_topics(), g.num_topics());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.OutNeighbors(u);
    const auto b = g2.OutNeighbors(u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    for (size_t z = 0; z < g.num_topics(); ++z) {
      EXPECT_DOUBLE_EQ(g2.ArcTopicProb(a, z), g.ArcTopicProb(a, z));
    }
  }
}

TEST(GraphIoTest, EdgeListRoundTrip) {
  const TopicGraph g = MakeTriangleGraph();
  const std::string path = testing::TempDir() + "/graph.edges";
  ASSERT_TRUE(WriteEdgeList(g, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TopicGraph& g2 = loaded.ValueOrDie();
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_arcs(), g.num_arcs());
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    for (size_t z = 0; z < g.num_topics(); ++z) {
      EXPECT_NEAR(g2.ArcTopicProb(a, z), g.ArcTopicProb(a, z), 1e-12);
    }
  }
}

TEST(GraphIoTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a graph", f);
  fclose(f);
  EXPECT_FALSE(LoadTopicGraph(path).ok());
  EXPECT_FALSE(LoadTopicGraph("/no/such/file").ok());
}

TEST(GraphIoTest, EdgeListRejectsMissingHeader) {
  const std::string path = testing::TempDir() + "/bad.edges";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("0 1 0.5 0.5\n", f);
  fclose(f);
  EXPECT_FALSE(ReadEdgeList(path).ok());
}

}  // namespace
}  // namespace graph
}  // namespace inflex

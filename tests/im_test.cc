#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>

#include "graph/topic_graph.h"
#include "im/cascade.h"
#include "im/celf.h"
#include "im/greedy.h"
#include "im/heuristics.h"
#include "im/snapshot_oracle.h"
#include "im/snapshot_sampler.h"
#include "im/spread_estimator.h"
#include "simplex/topic_distribution.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace inflex {
namespace im {
namespace {

using graph::ArcProbabilities;
using graph::NodeId;
using graph::TopicGraph;
using graph::TopicGraphBuilder;

// Path 0→1→2→3 with Z = 1; the single topic prob equals the IC prob.
TopicGraph MakePathGraph(const std::vector<double>& probs) {
  TopicGraphBuilder b(probs.size() + 1, 1);
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_TRUE(b.AddArc(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                         {probs[i]})
                    .ok());
  }
  return b.Build().ValueOrDie();
}

// Random sparse digraph for property tests.
TopicGraph MakeRandomGraph(size_t n, size_t arcs, double p_lo, double p_hi,
                           uint64_t seed) {
  Rng rng(seed);
  TopicGraphBuilder b(n, 1);
  std::set<std::pair<NodeId, NodeId>> used;
  size_t added = 0;
  while (added < arcs) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v || used.count({u, v})) continue;
    used.insert({u, v});
    EXPECT_TRUE(b.AddArc(u, v, {rng.Uniform(p_lo, p_hi)}).ok());
    ++added;
  }
  return b.Build().ValueOrDie();
}

ArcProbabilities SingleTopicProbs(const TopicGraph& g) {
  ArcProbabilities p(g.num_arcs());
  for (graph::ArcId a = 0; a < g.num_arcs(); ++a) p[a] = g.ArcTopicProb(a, 0);
  return p;
}

// ----------------------------------------------------------------- cascade ---

TEST(CascadeTest, DeterministicAllOnesPath) {
  const TopicGraph g = MakePathGraph({1.0, 1.0, 1.0});
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(1);
  CascadeWorkspace ws(g.num_nodes());
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(SimulateCascadeCount(g, p, seeds, &rng, &ws), 4u);
}

TEST(CascadeTest, ZeroProbabilitiesOnlySeedActive) {
  TopicGraphBuilder b(4, 1);
  ASSERT_TRUE(b.AddArc(0, 1, {0.0}).ok());
  ASSERT_TRUE(b.AddArc(1, 2, {0.0}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(2);
  CascadeWorkspace ws(g.num_nodes());
  const std::vector<NodeId> seeds = {0};
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(SimulateCascadeCount(g, p, seeds, &rng, &ws), 1u);
  }
}

TEST(CascadeTest, DuplicateSeedsCountedOnce) {
  const TopicGraph g = MakePathGraph({1.0});
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(3);
  CascadeWorkspace ws(g.num_nodes());
  const std::vector<NodeId> seeds = {0, 0, 1};
  EXPECT_EQ(SimulateCascadeCount(g, p, seeds, &rng, &ws), 2u);
}

TEST(CascadeTest, NodesVariantRecordsActivationOrder) {
  const TopicGraph g = MakePathGraph({1.0, 1.0});
  const ArcProbabilities p = SingleTopicProbs(g);
  Rng rng(4);
  CascadeWorkspace ws(g.num_nodes());
  std::vector<NodeId> activated;
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(SimulateCascadeNodes(g, p, seeds, &rng, &ws, &activated), 3u);
  ASSERT_EQ(activated.size(), 3u);
  EXPECT_EQ(activated[0], 0u);  // seed first, then BFS order
  EXPECT_EQ(activated[1], 1u);
  EXPECT_EQ(activated[2], 2u);
}

// -------------------------------------------------------- spread estimator ---

TEST(SpreadEstimatorTest, ClosedFormSingleArc) {
  // σ({0}) on 0→1 with prob p is 1 + p.
  const double p_arc = 0.37;
  const TopicGraph g = MakePathGraph({p_arc});
  const ArcProbabilities p = SingleTopicProbs(g);
  MonteCarloOptions opts;
  opts.num_simulations = 200000;
  const std::vector<NodeId> seeds = {0};
  auto est = EstimateSpread(g, p, seeds, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.ValueOrDie().mean, 1.0 + p_arc, 0.01);
  EXPECT_GT(est.ValueOrDie().std_error, 0.0);
}

TEST(SpreadEstimatorTest, ClosedFormTwoHopPath) {
  // σ({0}) on 0→1→2 with probs p, q is 1 + p + p·q.
  const TopicGraph g = MakePathGraph({0.5, 0.4});
  const ArcProbabilities p = SingleTopicProbs(g);
  MonteCarloOptions opts;
  opts.num_simulations = 200000;
  const std::vector<NodeId> seeds = {0};
  auto est = EstimateSpread(g, p, seeds, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.ValueOrDie().mean, 1.0 + 0.5 + 0.2, 0.01);
}

TEST(SpreadEstimatorTest, EmptySeedsGiveZero) {
  const TopicGraph g = MakePathGraph({0.5});
  auto est = EstimateSpread(g, SingleTopicProbs(g), {});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est.ValueOrDie().mean, 0.0);
}

TEST(SpreadEstimatorTest, ParallelMatchesSerial) {
  const TopicGraph g = MakeRandomGraph(100, 500, 0.05, 0.3, 5);
  const ArcProbabilities p = SingleTopicProbs(g);
  const std::vector<NodeId> seeds = {3, 17, 42};
  MonteCarloOptions serial;
  serial.num_simulations = 2000;
  serial.parallel = false;
  MonteCarloOptions parallel = serial;
  parallel.parallel = true;
  auto a = EstimateSpread(g, p, seeds, serial);
  auto b = EstimateSpread(g, p, seeds, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical per-simulation RNG streams ⇒ identical estimates.
  EXPECT_DOUBLE_EQ(a.ValueOrDie().mean, b.ValueOrDie().mean);
}

TEST(SpreadEstimatorTest, ValidatesInput) {
  const TopicGraph g = MakePathGraph({0.5});
  const std::vector<NodeId> bad_seed = {99};
  EXPECT_FALSE(EstimateSpread(g, SingleTopicProbs(g), bad_seed).ok());
  ArcProbabilities wrong(5, 0.1);
  const std::vector<NodeId> seeds = {0};
  EXPECT_FALSE(EstimateSpread(g, wrong, seeds).ok());
}

// --------------------------------------------------------- snapshot oracle ---

TEST(SnapshotOracleTest, DeterministicGraphExactSpread) {
  const TopicGraph g = MakePathGraph({1.0, 1.0, 1.0});
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 10;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();
  EXPECT_DOUBLE_EQ(o.MarginalGain(0, &ws), 4.0);
  EXPECT_DOUBLE_EQ(o.MarginalGain(2, &ws), 2.0);
  o.CommitSeed(2, &ws);
  // After committing 2, node 0 only adds {0, 1}.
  EXPECT_DOUBLE_EQ(o.MarginalGain(0, &ws), 2.0);
  EXPECT_DOUBLE_EQ(o.CurrentSpread(), 2.0);
}

// The digit rule one trial at a time, from its definition: trial (s, a) is
// a uniform 64-bit u whose first 12 binary digits are bit a % 64 of stream
// words (s · B + a / 64) · 12 + d, d < 12, of one Rng(seed) stream (B =
// ⌈m / 64⌉ blocks per snapshot), and whose digits d >= 12 are bit a % 64 of
// internal::FallbackWord(seed, s, a / 64, d). Arc a is kept iff p >= 1 or
// u < floor(p · 2⁶⁴); p <= 0 and NaN never are.
class ReferenceTrials {
 public:
  ReferenceTrials(size_t num_arcs, uint64_t seed)
      : rng_(seed), seed_(seed), words_((num_arcs + 63) / 64 * kDigits) {}

  // Takes snapshot s's stream words; call for s = 0, 1, ... in turn.
  void Draw(size_t s) {
    snapshot_ = s;
    for (uint64_t& word : words_) word = rng_.Next();
  }

  bool Kept(size_t a, double p) const {
    if (p >= 1.0) return true;
    if (!(p > 0.0)) return false;
    const uint64_t t = static_cast<uint64_t>(std::ldexp(p, 64));
    const size_t block = a / 64;
    const size_t bit = a % 64;
    uint64_t u = 0;
    for (size_t d = 0; d < kDigits; ++d) {
      u |= ((words_[block * kDigits + d] >> bit) & 1) << (63 - d);
    }
    // The later digits decide only when the first 12 tie.
    if ((u >> 52) == (t >> 52)) {
      for (unsigned d = kDigits; d < 64; ++d) {
        const uint64_t word =
            internal::FallbackWord(seed_, snapshot_, block, d);
        u |= ((word >> bit) & 1) << (63 - d);
      }
    }
    return u < t;
  }

 private:
  static constexpr size_t kDigits = 12;
  Rng rng_;
  uint64_t seed_;
  std::vector<uint64_t> words_;
  size_t snapshot_ = 0;
};

// Snapshot sampling keeps arc a exactly when the reference trial of the
// digit rule does (ReferenceTrials). Each edge-case arc sits alone behind
// its own source, followed by a p = 0.5 probe arc, so a digit read from the
// wrong word or bit shows in the probes; SpreadOf({source}) exposes each
// arc's keep count.
TEST(SnapshotOracleTest, EdgeProbabilitiesMatchBernoulliReference) {
  const double edge[] = {0.0,
                         -0.25,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::denorm_min(),
                         0.5,
                         1.0,
                         1.0 + 1e-15,
                         std::numeric_limits<double>::infinity()};
  constexpr size_t kEdges = sizeof(edge) / sizeof(edge[0]);
  TopicGraphBuilder b(4 * kEdges, 1);
  ArcProbabilities probs;
  for (size_t j = 0; j < 2 * kEdges; ++j) {
    ASSERT_TRUE(b.AddArc(static_cast<NodeId>(2 * j),
                         static_cast<NodeId>(2 * j + 1), {0.5})
                    .ok());
    probs.push_back(j % 2 == 0 ? edge[j / 2] : 0.5);
  }
  const TopicGraph g = b.Build().ValueOrDie();
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SnapshotSpreadOracle::Options opts;
    // W < 8 for half the seeds; 8..101 (whole four-lane blocks plus
    // leftovers) for the rest.
    opts.num_snapshots = seed < 100 ? 1 + seed % 7 : 8 + (seed * 37) % 94;
    opts.seed = seed;
    auto oracle = SnapshotSpreadOracle::Create(g, probs, opts);
    ASSERT_TRUE(oracle.ok());
    auto ws = oracle.ValueOrDie().MakeWorkspace();

    ReferenceTrials trials(probs.size(), seed);
    std::vector<size_t> kept(probs.size(), 0);
    for (size_t s = 0; s < opts.num_snapshots; ++s) {
      trials.Draw(s);
      for (size_t a = 0; a < probs.size(); ++a) {
        kept[a] += trials.Kept(a, probs[a]);
      }
    }
    for (size_t a = 0; a < probs.size(); ++a) {
      const std::vector<NodeId> source = {static_cast<NodeId>(2 * a)};
      EXPECT_EQ(oracle.ValueOrDie().SpreadOf(source, &ws),
                static_cast<double>(opts.num_snapshots + kept[a]) /
                    static_cast<double>(opts.num_snapshots))
          << "seed " << seed << " arc " << a << " p " << probs[a];
    }
  }
}

// W · m must fit the 32-bit targets and pair offsets; the check runs
// before any snapshot array would be allocated.
TEST(SnapshotOracleTest, RejectsSnapshotCountBeyondOffsetRange) {
  TopicGraphBuilder b(2, 1);
  ASSERT_TRUE(b.AddArc(0, 1, {0.5}).ok());
  ASSERT_TRUE(b.AddArc(1, 0, {0.5}).ok());
  const TopicGraph g = b.Build().ValueOrDie();
  for (const size_t w : {size_t{1} << 32, size_t{1} << 31}) {
    SnapshotSpreadOracle::Options opts;
    opts.num_snapshots = w;
    auto r = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
    ASSERT_FALSE(r.ok()) << w;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << w;
  }
}

// Random probabilities mixing every sampler case: p <= 0 and NaN (never
// kept), p >= 1 (always kept) and ordinary p.
ArcProbabilities MixedProbs(const TopicGraph& g, uint64_t seed) {
  Rng rng(seed);
  ArcProbabilities p(g.num_arcs());
  for (double& x : p) {
    switch (rng.UniformInt(6)) {
      case 0: x = 0.0; break;
      case 1: x = -0.5; break;
      case 2: x = std::numeric_limits<double>::quiet_NaN(); break;
      case 3: x = 1.0; break;
      default: x = rng.Uniform(); break;
    }
  }
  return p;
}

// The shape check behind Create, at its edges: n up to kMaxSnapshotNodes
// (a kept target's top bit is its sink flag), W · max(m, 1) up to
// UINT32_MAX, W > 0.
TEST(SnapshotOracleTest, ShapeCheckBoundsNodesArcsAndSnapshots) {
  constexpr size_t kMaxNodes = internal::kMaxSnapshotNodes;
  constexpr size_t kMax32 = std::numeric_limits<uint32_t>::max();
  ASSERT_EQ(kMaxNodes, size_t{1} << 31);
  struct Shape {
    size_t n, m, w;
    bool ok;
  };
  const Shape shapes[] = {
      {kMaxNodes, 10, 100, true},     {kMaxNodes + 1, 10, 100, false},
      {size_t{1} << 32, 10, 1, false}, {0, 0, 1, true},
      {10, 0, kMax32, true},           {10, 0, kMax32 + 1, false},
      {10, 3, kMax32 / 3, true},       {10, 3, kMax32 / 3 + 1, false},
      {10, 10, 0, false},
  };
  for (const Shape& sh : shapes) {
    const Status st = internal::CheckSnapshotShape(sh.n, sh.m, sh.w);
    EXPECT_EQ(st.ok(), sh.ok) << sh.n << " " << sh.m << " " << sh.w;
    if (!sh.ok) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << sh.n << " " << sh.m << " " << sh.w;
    }
  }
}

// W live-edge snapshots of n nodes in the dense layout the oracle's arrays
// stand for: snapshot s's kept arcs of node u are targets[offsets[s · (n +
// 1) + u] .. offsets[s · (n + 1) + u + 1]).
struct DenseSnapshots {
  size_t num_nodes = 0;
  std::vector<uint32_t> offsets;
  std::vector<NodeId> targets;

  // Whether u keeps an out-arc in snapshot s.
  bool Active(size_t s, size_t u) const {
    const uint32_t* off = offsets.data() + s * (num_nodes + 1);
    return off[u + 1] > off[u];
  }
};

// Expands the active bits, word ranks and pair offsets of W snapshots into
// dense offsets, reading the bits one by one. Along the way it checks what
// the expansion alone cannot show: each word's rank against a running count
// of set bits, no bit set past W · n, internal::PairIndex against the pair
// number, every active pair non-empty, and each target's sink flag against
// the target's dense range in its snapshot. The flags are cleared in the
// returned targets.
DenseSnapshots ExpandSnapshots(const internal::SnapshotArrays& a, size_t n,
                               size_t w, const std::string& what) {
  DenseSnapshots d;
  d.num_nodes = n;
  EXPECT_EQ(a.active_bits.size(), (w * n + 63) / 64) << what;
  EXPECT_EQ(a.word_ranks.size(), a.active_bits.size()) << what;
  if (a.active_bits.size() != (w * n + 63) / 64 ||
      a.word_ranks.size() != a.active_bits.size() || a.pair_offsets.empty()) {
    ADD_FAILURE() << what << ": array sizes";
    return d;
  }
  uint32_t count = 0;
  for (size_t i = 0; i < a.active_bits.size(); ++i) {
    EXPECT_EQ(a.word_ranks[i], count) << what << " word " << i;
    for (size_t b = 0; b < 64; ++b) {
      if (((a.active_bits[i] >> b) & 1) == 0) continue;
      EXPECT_LT(64 * i + b, w * n) << what;
      ++count;
    }
  }
  EXPECT_EQ(a.pair_offsets.size(), size_t{count} + 1) << what;
  if (a.pair_offsets.size() != size_t{count} + 1) return d;
  uint32_t pair = 0;
  uint32_t cursor = 0;
  for (size_t s = 0; s < w; ++s) {
    for (size_t u = 0; u < n; ++u) {
      d.offsets.push_back(cursor);
      const size_t bit = s * n + u;
      if (((a.active_bits[bit / 64] >> (bit % 64)) & 1) == 0) continue;
      EXPECT_EQ(internal::PairIndex(a.active_bits.data(),
                                    a.word_ranks.data(), bit),
                pair)
          << what << " bit " << bit;
      EXPECT_EQ(a.pair_offsets[pair], cursor) << what << " pair " << pair;
      EXPECT_LT(a.pair_offsets[pair], a.pair_offsets[pair + 1])
          << what << " pair " << pair;
      cursor = a.pair_offsets[++pair];
    }
    d.offsets.push_back(cursor);
  }
  EXPECT_EQ(cursor, a.targets.size()) << what;
  for (size_t s = 0; s < w; ++s) {
    const uint32_t* off = d.offsets.data() + s * (n + 1);
    for (uint32_t e = off[0]; e < off[n] && e < a.targets.size(); ++e) {
      const NodeId t = a.targets[e] & ~internal::kSinkFlag;
      const bool sink = (a.targets[e] & internal::kSinkFlag) != 0;
      EXPECT_LT(t, n) << what;
      if (t >= n) continue;
      EXPECT_EQ(sink, off[t + 1] == off[t])
          << what << " snapshot " << s << " target " << t;
      d.targets.push_back(t);
    }
  }
  return d;
}

// Also compares the bitmap with one recounted from the reference's offsets.
void ExpectSameSnapshots(const internal::SnapshotArrays& got,
                         const DenseSnapshots& want, size_t w,
                         const std::string& what) {
  const size_t n = want.num_nodes;
  std::vector<uint64_t> bits((w * n + 63) / 64, 0);
  for (size_t s = 0; s < w; ++s) {
    for (size_t u = 0; u < n; ++u) {
      if (!want.Active(s, u)) continue;
      bits[(s * n + u) / 64] |= uint64_t{1} << ((s * n + u) % 64);
    }
  }
  EXPECT_EQ(got.active_bits, bits) << what;
  const DenseSnapshots d = ExpandSnapshots(got, n, w, what);
  EXPECT_EQ(d.offsets, want.offsets) << what;
  EXPECT_EQ(d.targets, want.targets) << what;
}

// The snapshot arrays straight from their definition: one reference trial
// (ReferenceTrials) per arc and snapshot, in snapshot, node and arc order.
DenseSnapshots ReferenceSnapshots(const TopicGraph& g,
                                  const ArcProbabilities& probs, size_t w,
                                  uint64_t seed) {
  const size_t n = g.num_nodes();
  DenseSnapshots ref;
  ref.num_nodes = n;
  ReferenceTrials trials(g.num_arcs(), seed);
  for (size_t s = 0; s < w; ++s) {
    trials.Draw(s);
    for (NodeId u = 0; u < n; ++u) {
      ref.offsets.push_back(static_cast<uint32_t>(ref.targets.size()));
      const auto out = g.OutNeighbors(u);
      for (size_t j = 0; j < out.size(); ++j) {
        const size_t a = g.OutArcBegin(u) + j;
        if (trials.Kept(a, probs[a])) ref.targets.push_back(out[j]);
      }
    }
    ref.offsets.push_back(static_cast<uint32_t>(ref.targets.size()));
  }
  return ref;
}

// Runs `sample` on the planes of `probs`, against g's arc sources.
internal::SnapshotArrays SampleProbs(internal::SnapshotSampler sample,
                                     const TopicGraph& g,
                                     const ArcProbabilities& probs, size_t w,
                                     uint64_t seed) {
  return sample(g, internal::IndexArcSources(g),
                internal::PlanesFromProbabilities(probs), w, seed);
}

// The active sampler (four AVX2 lanes on AVX2 CPUs) and the scalar loop
// both expand to the reference: no lanes (W < 4), whole lane runs (W % 4
// == 0) and leftover snapshots, and a graph whose arcs are never kept. At
// n = 150 most snapshot rows straddle a bitmap word.
TEST(SnapshotSamplerTest, LanesMatchScalar) {
  const internal::SnapshotSampler scalar =
      internal::ResolveSnapshotSampler(true);
  const internal::SnapshotSampler active =
      internal::ResolveSnapshotSampler(false);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const TopicGraph g = MakeRandomGraph(150, 900, 0.1, 0.5, 300 + seed);
    ArcProbabilities probs = MixedProbs(g, seed);
    if (seed == 4) std::fill(probs.begin(), probs.end(), 0.0);
    for (const size_t w : {1, 3, 4, 5, 7, 8, 100, 101, 150}) {
      const std::string what =
          "seed " + std::to_string(seed) + " W " + std::to_string(w);
      const DenseSnapshots want = ReferenceSnapshots(g, probs, w, seed);
      ExpectSameSnapshots(SampleProbs(active, g, probs, w, seed), want, w,
                          what);
      ExpectSameSnapshots(SampleProbs(scalar, g, probs, w, seed), want, w,
                          what);
    }
  }
}

// A lane that would overrun its region falls back to the scalar loop: at
// once (region below one block's 64 arcs) and part way through.
TEST(SnapshotSamplerTest, LaneRegionOverflowFallsBackToScalar) {
  if (!util::CpuHasAvx2()) GTEST_SKIP() << "no AVX2";
  const TopicGraph g = MakeRandomGraph(150, 900, 0.1, 0.5, 310);
  const ArcProbabilities probs = MixedProbs(g, 11);
  const internal::ArcSources sources = internal::IndexArcSources(g);
  const DenseSnapshots want = ReferenceSnapshots(g, probs, 101, 5);
  for (const size_t region : {size_t{1}, size_t{64}, size_t{2000}}) {
    ExpectSameSnapshots(
        internal::SampleSnapshotsLanes(
            g, sources, internal::PlanesFromProbabilities(probs), 101, 5,
            region),
        want, 101, "region " + std::to_string(region));
  }
}

// The samplers settle arcs in blocks of 64, with no per-node loop; an arc
// that is never kept (p <= 0, NaN) still has its bit in its block's words.
// Node 34's out-list has such arcs at its start, middle and end; nodes 0,
// 33 and 69 have no out-arcs and sit at the first node, at the 256-arc mark
// (nodes 1..32 have eight arcs each, so a block boundary) and at the last
// node, where each snapshot and so each lane run begins or ends; they are
// active in no snapshot, and node 34 (a p = 1 arc) in every one. n = 70
// puts each snapshot row across a bitmap word boundary. Every sampler must
// still match the reference trials.
TEST(SnapshotSamplerTest, DrawFreeArcsAndSinksKeepTheStreamOrder) {
  constexpr size_t kNodes = 70;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TopicGraphBuilder b(kNodes, 1);
  ArcProbabilities probs;
  Rng rng(41);
  const auto add = [&](NodeId u, NodeId v, double p) {
    ASSERT_TRUE(b.AddArc(u, v, {0.5}).ok());
    probs.push_back(p);
  };
  for (NodeId u = 0; u < kNodes; ++u) {
    if (u == 0 || u == 33 || u == kNodes - 1) continue;
    if (u == 34) {
      const double edge[] = {0.0, 0.6, nan, -0.5, 1.0, 0.3, -0.0, nan};
      for (size_t j = 0; j < 8; ++j) {
        add(u, static_cast<NodeId>(40 + j), edge[j]);
      }
      continue;
    }
    for (NodeId j = 1; j <= 8; ++j) {
      add(u, static_cast<NodeId>((u + 7 * j) % kNodes), rng.Uniform(0.05, 0.9));
    }
  }
  const TopicGraph g = b.Build().ValueOrDie();
  ASSERT_EQ(g.OutArcBegin(33), 256u);
  for (const size_t w : {1, 4, 5, 8, 9, 101}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string what =
          "W " + std::to_string(w) + " seed " + std::to_string(seed);
      const DenseSnapshots want = ReferenceSnapshots(g, probs, w, seed);
      const auto num_active = [&](NodeId u) {
        size_t count = 0;
        for (size_t s = 0; s < w; ++s) count += want.Active(s, u);
        return count;
      };
      for (const NodeId sink : {0, 33, 69}) ASSERT_EQ(num_active(sink), 0u);
      ASSERT_EQ(num_active(34), w);
      ExpectSameSnapshots(
          SampleProbs(internal::SampleSnapshotsScalar, g, probs, w, seed),
          want, w, what);
      ExpectSameSnapshots(
          SampleProbs(internal::ActiveSnapshotSampler(), g, probs, w, seed),
          want, w, what);
    }
  }
}

// The four lanes reproduce the scalar loop and the reference on every block
// shape: m below one block, one short of it, exactly one and one over, a
// multiple of 64 and not, at W = 1 and 3 (no lanes), 100 (whole lane runs)
// and 130 (two leftover snapshots).
TEST(SnapshotSamplerTest, LanesMatchScalarAcrossBlockShapes) {
  const internal::SnapshotSampler scalar =
      internal::ResolveSnapshotSampler(true);
  const internal::SnapshotSampler active =
      internal::ResolveSnapshotSampler(false);
  for (const size_t m : {1, 63, 64, 65, 640, 1001}) {
    const TopicGraph g = MakeRandomGraph(60, m, 0.1, 0.5, 900 + m);
    ASSERT_EQ(g.num_arcs(), m);
    const ArcProbabilities probs = MixedProbs(g, m);
    for (const size_t w : {1, 3, 100, 130}) {
      const uint64_t seed = m * 7 + w;
      const std::string what = "m " + std::to_string(m) + " W " +
                               std::to_string(w);
      const DenseSnapshots want = ReferenceSnapshots(g, probs, w, seed);
      ExpectSameSnapshots(SampleProbs(active, g, probs, w, seed), want, w,
                          what);
      ExpectSameSnapshots(SampleProbs(scalar, g, probs, w, seed), want, w,
                          what);
    }
  }
}

// 64 arcs of each probability, each arc its own source and target, so a
// kept target counts its arc.
struct FrequencyGraph {
  TopicGraph g;
  ArcProbabilities probs;
};

FrequencyGraph MakeFrequencyGraph(std::span<const double> kinds) {
  const size_t m = 64 * kinds.size();
  TopicGraphBuilder b(2 * m, 1);
  FrequencyGraph out;
  for (size_t a = 0; a < m; ++a) {
    EXPECT_TRUE(b.AddArc(static_cast<NodeId>(a), static_cast<NodeId>(m + a),
                         {0.5})
                    .ok());
    out.probs.push_back(kinds[a / 64]);
  }
  out.g = b.Build().ValueOrDie();
  return out;
}

// Whether `count` keeps in `trials` is within six binomial standard
// deviations, plus one, of keep probability q.
::testing::AssertionResult WithinBinomialBounds(size_t count, size_t trials,
                                                double q) {
  const double mean = static_cast<double>(trials) * q;
  const double bound = 6.0 * std::sqrt(mean * (1.0 - q)) + 1.0;
  if (std::abs(static_cast<double>(count) - mean) <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << count << " keeps in " << trials << " trials, expected " << mean
         << " ± " << bound;
}

// Each arc is kept with probability floor(p · 2⁶⁴) / 2⁶⁴: per-probability
// keep counts over many snapshots and seeds stay within binomial bounds,
// for the scalar loop and the four lanes. p = 2⁻¹² sets only T's last
// stream digit; 2⁻¹³ and 3 · 2⁻¹⁴ set none, so only the fallback keeps
// them; 1 − 2⁻⁵³ sets all 12 and misses only past them; a denormal's T is
// 0; 0.3 and 0.3 + 2⁻³⁰ share their first 30 digits.
TEST(SnapshotSamplerTest, KeepFrequenciesMatchProbabilities) {
  const double kinds[] = {0x1p-12, 0.5, 1.0 - 0x1p-53,
                          std::numeric_limits<double>::denorm_min(),
                          0x1p-13, 0x3p-14, 0.3, 0.3 + 0x1p-30};
  constexpr size_t kKinds = sizeof(kinds) / sizeof(kinds[0]);
  const FrequencyGraph fg = MakeFrequencyGraph(kinds);
  const size_t m = fg.g.num_arcs();
  constexpr size_t kW = 2000;
  constexpr uint64_t kSeeds = 8;
  const size_t trials = 64 * kW * kSeeds;
  const internal::ArcSources sources = internal::IndexArcSources(fg.g);
  // The lanes get a region no lane can overrun, so they never hand the
  // sampling to the scalar loop.
  const auto lanes = [&](uint64_t seed) {
    return internal::SampleSnapshotsLanes(
        fg.g, sources, internal::PlanesFromProbabilities(fg.probs), kW, seed,
        kW * m);
  };
  const auto scalar = [&](uint64_t seed) {
    return internal::SampleSnapshotsScalar(
        fg.g, sources, internal::PlanesFromProbabilities(fg.probs), kW, seed);
  };
  std::vector<std::function<internal::SnapshotArrays(uint64_t)>> samplers = {
      scalar};
  if (util::CpuHasAvx2()) samplers.push_back(lanes);
  for (const auto& sample : samplers) {
    std::vector<size_t> kept(kKinds, 0);
    uint64_t fallback_blocks = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const internal::SnapshotArrays a = sample(seed);
      fallback_blocks += a.fallback_blocks;
      for (const NodeId entry : a.targets) {
        ++kept[((entry & ~internal::kSinkFlag) - m) / 64];
      }
    }
    EXPECT_GT(fallback_blocks, 0u);
    for (size_t k = 0; k < kKinds; ++k) {
      const double q = std::ldexp(std::floor(std::ldexp(kinds[k], 64)), -64);
      EXPECT_TRUE(WithinBinomialBounds(kept[k], trials, q))
          << "p " << kinds[k];
    }
  }
}

// SettleOpenTrials, handed trials whose first 12 digits tied with T's,
// keeps each with probability (T mod 2⁵²) / 2⁵², the chance that u's 52
// remaining digits fall below T's: forced here on every trial of one block
// whose probabilities share their first 12 digits with k / 4096 and differ
// after them. p >= 1 is always kept; p <= 0, NaN and T mod 2⁵² = 0 never.
TEST(SnapshotSamplerTest, OpenTrialsSettleOnTheirLaterDigits) {
  const double kinds[] = {0.0,
                          -1.0,
                          std::numeric_limits<double>::quiet_NaN(),
                          1.0,
                          std::numeric_limits<double>::infinity(),
                          0x1p-12,
                          0.5,
                          0x1p-13,
                          0x3p-14,
                          0.3,
                          0.3 + 0x1p-30,
                          1.0 - 0x1p-53,
                          1.0 / 3.0};
  constexpr size_t kKinds = sizeof(kinds) / sizeof(kinds[0]);
  ArcProbabilities probs(64);
  for (size_t i = 0; i < 64; ++i) probs[i] = kinds[i % kKinds];
  const internal::SnapshotPlanes planes =
      internal::PlanesFromProbabilities(probs);
  constexpr size_t kSnapshots = 20000;
  std::vector<size_t> kept(kKinds, 0);
  std::vector<size_t> trials(kKinds, 0);
  for (size_t s = 0; s < kSnapshots; ++s) {
    const uint64_t keep =
        internal::SettleOpenTrials(planes, 3, s, 0, ~uint64_t{0});
    for (size_t i = 0; i < 64; ++i) {
      kept[i % kKinds] += (keep >> i) & 1;
      ++trials[i % kKinds];
    }
  }
  for (size_t k = 0; k < kKinds; ++k) {
    const double p = kinds[k];
    double q = 0.0;
    if (p >= 1.0) {
      q = 1.0;
    } else if (p > 0.0) {
      const uint64_t t = static_cast<uint64_t>(std::ldexp(p, 64));
      q = std::ldexp(static_cast<double>(t & ((uint64_t{1} << 52) - 1)), -52);
    }
    EXPECT_TRUE(WithinBinomialBounds(kept[k], trials[k], q)) << "p " << p;
  }
}

// The seed-list path samples from the item's mixture with no probability
// vector: its planes, expectation and recomputed probabilities are those of
// g.ItemArcProbabilities(item) bit for bit, and so are its snapshots,
// fallback trials included, and its oracle's gains.
TEST(SnapshotSamplerTest, MixturePlanesMatchTheProbabilityVector) {
  Rng rng(17);
  TopicGraphBuilder b(200, 3);
  std::set<std::pair<NodeId, NodeId>> used;
  while (used.size() < 1500) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(200));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(200));
    if (u == v || !used.insert({u, v}).second) continue;
    std::vector<double> topic(3);
    for (double& x : topic) {
      const uint64_t kind = rng.UniformInt(5);
      x = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.Uniform();
    }
    ASSERT_TRUE(b.AddArc(u, v, topic).ok());
  }
  const TopicGraph g = b.Build().ValueOrDie();
  const simplex::TopicDistribution item =
      simplex::TopicDistribution::Create({0.2, 0.5, 0.3}).ValueOrDie();
  const ArcProbabilities probs = g.ItemArcProbabilities(item);
  const internal::SnapshotPlanes mixture = internal::PlanesFromMixture(g, item);
  const internal::SnapshotPlanes vector =
      internal::PlanesFromProbabilities(probs);
  EXPECT_EQ(mixture.planes, vector.planes);
  EXPECT_EQ(mixture.expected_kept, vector.expected_kept);
  for (size_t a = 0; a < g.num_arcs(); ++a) {
    EXPECT_EQ(std::bit_cast<uint64_t>(mixture.Probability(a)),
              std::bit_cast<uint64_t>(probs[a]))
        << "arc " << a;
  }
  const internal::ArcSources sources = internal::IndexArcSources(g);
  const internal::SnapshotArrays from_mixture =
      internal::ActiveSnapshotSampler()(g, sources, mixture, 301, 9);
  EXPECT_GT(from_mixture.fallback_blocks, 0u);
  ExpectSameSnapshots(from_mixture, ReferenceSnapshots(g, probs, 301, 9), 301,
                      "mixture");
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 301;
  opts.seed = 9;
  auto by_item = SnapshotSpreadOracle::Create(g, item, opts, &sources);
  auto by_vector = SnapshotSpreadOracle::Create(g, probs, opts);
  ASSERT_TRUE(by_item.ok());
  ASSERT_TRUE(by_vector.ok());
  auto ws = by_item.ValueOrDie().MakeWorkspace();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(by_item.ValueOrDie().MarginalGain(v, &ws),
              by_vector.ValueOrDie().MarginalGain(v, &ws))
        << "v " << v;
  }
  EXPECT_EQ(SnapshotSpreadOracle::Create(
                g, simplex::TopicDistribution::Uniform(2), opts)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotOracleTest, MarginalGainMatchesSpreadDifference) {
  const TopicGraph g = MakeRandomGraph(80, 400, 0.1, 0.5, 7);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 50;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();

  std::vector<NodeId> committed;
  Rng rng(8);
  for (int step = 0; step < 5; ++step) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(80));
    const double before = o.SpreadOf(committed, &ws);
    std::vector<NodeId> extended = committed;
    extended.push_back(v);
    const double after = o.SpreadOf(extended, &ws);
    EXPECT_NEAR(o.MarginalGain(v, &ws), after - before, 1e-9);
    o.CommitSeed(v, &ws);
    committed.push_back(v);
    EXPECT_NEAR(o.CurrentSpread(), after, 1e-9);
  }
}

// The snapshot-major sweep returns MarginalGain's doubles for every node,
// whole-range and in blocks, before and after commits. A third of the arcs
// have p = 0, so many nodes have no kept out-arc in a snapshot.
TEST(SnapshotOracleTest, SingletonGainsMatchMarginalGain) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const TopicGraph g = MakeRandomGraph(120, 500, 0.05, 0.6, 200 + seed);
    ArcProbabilities probs = SingleTopicProbs(g);
    for (size_t a = 0; a < probs.size(); a += 3) probs[a] = 0.0;
    SnapshotSpreadOracle::Options opts;
    opts.num_snapshots = 30;
    opts.seed = seed;
    auto r = SnapshotSpreadOracle::Create(g, probs, opts);
    ASSERT_TRUE(r.ok());
    auto& o = r.ValueOrDie();
    auto ws = o.MakeWorkspace();
    Rng rng(seed);
    for (int commits = 0; commits < 4; ++commits) {
      std::vector<double> whole(120, -1.0), blocks(120, -1.0);
      o.SingletonGains(0, 120, &ws, whole);
      for (NodeId begin = 0; begin < 120; begin += 50) {
        o.SingletonGains(begin, std::min<NodeId>(120, begin + 50), &ws, blocks);
      }
      for (NodeId v = 0; v < 120; ++v) {
        const double want = o.MarginalGain(v, &ws);
        EXPECT_EQ(whole[v], want) << "seed " << seed << " v " << v;
        EXPECT_EQ(blocks[v], want) << "seed " << seed << " v " << v;
      }
      o.CommitSeed(static_cast<NodeId>(rng.UniformInt(120)), &ws);
    }
  }
}

TEST(SnapshotOracleTest, SubmodularityProperty) {
  // Gains never increase as the committed seed set grows — the property
  // CELF's lazy evaluation depends on.
  const TopicGraph g = MakeRandomGraph(70, 350, 0.1, 0.4, 11);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 30;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();

  std::vector<double> gains_before(70), gains_after(70);
  for (NodeId v = 0; v < 70; ++v) gains_before[v] = o.MarginalGain(v, &ws);
  o.CommitSeed(5, &ws);
  o.CommitSeed(50, &ws);
  for (NodeId v = 0; v < 70; ++v) gains_after[v] = o.MarginalGain(v, &ws);
  for (NodeId v = 0; v < 70; ++v) {
    EXPECT_LE(gains_after[v], gains_before[v] + 1e-9) << "node " << v;
  }
}

TEST(SnapshotOracleTest, SpreadApproximatesMonteCarlo) {
  const TopicGraph g = MakeRandomGraph(100, 600, 0.05, 0.3, 13);
  const ArcProbabilities p = SingleTopicProbs(g);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 3000;
  auto oracle = SnapshotSpreadOracle::Create(g, p, opts);
  ASSERT_TRUE(oracle.ok());
  auto ws = oracle.ValueOrDie().MakeWorkspace();
  const std::vector<NodeId> seeds = {1, 20, 60};
  const double snapshot_spread = oracle.ValueOrDie().SpreadOf(seeds, &ws);
  MonteCarloOptions mc;
  mc.num_simulations = 30000;
  auto est = EstimateSpread(g, p, seeds, mc);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(snapshot_spread, est.ValueOrDie().mean,
              0.05 * est.ValueOrDie().mean + 0.5);
}

TEST(SnapshotOracleTest, ResetSeedsRestoresGains) {
  const TopicGraph g = MakeRandomGraph(50, 250, 0.1, 0.5, 15);
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();
  auto ws = o.MakeWorkspace();
  const double g0 = o.MarginalGain(7, &ws);
  o.CommitSeed(7, &ws);
  EXPECT_NEAR(o.MarginalGain(7, &ws), 0.0, 1e-12);
  o.ResetSeeds();
  EXPECT_DOUBLE_EQ(o.MarginalGain(7, &ws), g0);
  EXPECT_DOUBLE_EQ(o.CurrentSpread(), 0.0);
}

// A digraph with cycles and sinks: every node u with u % 5 != 3 gets
// `degree` random out-arcs; a third of them certain, the rest p in
// [p_lo, p_hi].
TopicGraph MakeGraphWithSinks(size_t n, size_t degree, double p_lo,
                              double p_hi, uint64_t seed,
                              ArcProbabilities* probs) {
  Rng rng(seed);
  TopicGraphBuilder b(n, 1);
  probs->clear();
  for (NodeId u = 0; u < n; ++u) {
    if (u % 5 == 3) continue;
    std::set<NodeId> targets;
    while (targets.size() < degree) {
      const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (v != u) targets.insert(v);
    }
    for (const NodeId v : targets) {
      EXPECT_TRUE(b.AddArc(u, v, {0.5}).ok());
      probs->push_back(rng.UniformInt(3) == 0 ? 1.0 : rng.Uniform(p_lo, p_hi));
    }
  }
  return b.Build().ValueOrDie();
}

// W times the spread of `seeds` over the dense reference snapshots: the
// nodes they reach, summed over the W snapshots, by a plain BFS per
// snapshot.
long long ReferenceReach(const DenseSnapshots& ref, size_t w,
                         const std::vector<NodeId>& seeds) {
  const size_t n = ref.num_nodes;
  long long total = 0;
  for (size_t s = 0; s < w; ++s) {
    const uint32_t* off = ref.offsets.data() + s * (n + 1);
    std::vector<bool> seen(n, false);
    std::vector<NodeId> queue;
    for (const NodeId v : seeds) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
        const NodeId t = ref.targets[e];
        if (!seen[t]) {
          seen[t] = true;
          queue.push_back(t);
        }
      }
    }
    total += static_cast<long long>(queue.size());
  }
  return total;
}

// The active-snapshot gains against the all-snapshot definition, computed
// over the dense reference snapshots (ReferenceReach), not the oracle's own
// arrays: as integers, W · MarginalGain(v) = reach(S ∪ {v}) − reach(S) for
// every node, CommitSeed returns the same difference, and CurrentSpread and
// SpreadOf equal reach(S); SingletonGains over blocks off the 256-node grid
// returns MarginalGain's doubles. Checked from no seeds, after each of
// several commits and after ResetSeeds, on sparse and dense graphs (p up
// to 1) with cycles and sinks, at W below and above 64. The sampler's
// arrays, its bitmap included, expand to the reference.
TEST(SnapshotOracleTest, GainsMatchAllSnapshotReference) {
  struct Case {
    size_t n, degree;
    double p_lo, p_hi;
    size_t w;
  };
  // The third case's W = 130 spans three of ReachSum's 64-snapshot masks,
  // the last one partial.
  const Case cases[] = {
      {300, 2, 0.05, 0.3, 37}, {120, 8, 0.3, 1.0, 23}, {90, 3, 0.1, 0.5, 130}};
  for (size_t c = 0; c < 3; ++c) {
    const Case& k = cases[c];
    ArcProbabilities probs;
    const TopicGraph g =
        MakeGraphWithSinks(k.n, k.degree, k.p_lo, k.p_hi, 60 + c, &probs);
    SnapshotSpreadOracle::Options opts;
    opts.num_snapshots = k.w;
    opts.seed = 9 + c;
    auto created = SnapshotSpreadOracle::Create(g, probs, opts);
    ASSERT_TRUE(created.ok());
    SnapshotSpreadOracle& o = created.ValueOrDie();
    auto ws = o.MakeWorkspace();
    const double w = static_cast<double>(k.w);
    const auto scaled = [w](double x) { return std::llround(w * x); };

    const DenseSnapshots ref = ReferenceSnapshots(g, probs, k.w, opts.seed);
    ExpectSameSnapshots(SampleProbs(internal::ActiveSnapshotSampler(), g,
                                    probs, k.w, opts.seed),
                        ref, k.w, "case " + std::to_string(c));
    std::vector<NodeId> committed;
    const auto check_gains = [&](const std::string& what) {
      const long long base = ReferenceReach(ref, k.w, committed);
      EXPECT_EQ(scaled(o.SpreadOf(committed, &ws)), base) << what;
      std::vector<double> blocks(k.n, -1.0);
      const NodeId n = static_cast<NodeId>(k.n);
      const NodeId cuts[] = {0, 1, 97, 255, n};
      for (size_t i = 0; i + 1 < 5; ++i) {
        o.SingletonGains(std::min(cuts[i], n), std::min(cuts[i + 1], n), &ws,
                         blocks);
      }
      for (NodeId v = 0; v < k.n; ++v) {
        std::vector<NodeId> extended = committed;
        extended.push_back(v);
        const double gain = o.MarginalGain(v, &ws);
        EXPECT_EQ(scaled(gain), ReferenceReach(ref, k.w, extended) - base)
            << what << " v " << v;
        EXPECT_EQ(blocks[v], gain) << what << " v " << v;
      }
    };
    Rng rng(70 + c);
    for (int round = 0; round < 2; ++round) {
      for (int commits = 0; commits < 5; ++commits) {
        check_gains("case " + std::to_string(c) + " round " +
                    std::to_string(round) + " commits " +
                    std::to_string(commits));
        const NodeId v = static_cast<NodeId>(rng.UniformInt(k.n));
        const long long before = ReferenceReach(ref, k.w, committed);
        const double expected = o.MarginalGain(v, &ws);
        const double realized = o.CommitSeed(v, &ws);
        committed.push_back(v);
        EXPECT_EQ(realized, expected);
        EXPECT_EQ(scaled(realized),
                  ReferenceReach(ref, k.w, committed) - before);
        EXPECT_EQ(scaled(o.CurrentSpread()),
                  ReferenceReach(ref, k.w, committed));
      }
      o.ResetSeeds();
      committed.clear();
    }
    check_gains("case " + std::to_string(c) + " after reset");
  }
}

// One index point's transients, pinned in bytes against the shape: n
// nodes (n_s of them with an out-arc), m arcs in B = ⌈m / 64⌉ blocks, W
// snapshots, P active pairs and a kept-index buffer of K entries (K >= the
// kept targets; the targets keep its capacity). The planes hold 96 bytes
// per block (12 words), whatever the probabilities; the shared arc sources
// 12 per block and 4 per node with an out-arc; the arrays 12 per bitmap
// word of W · n bits, 4 per active pair plus 4 and 4 per buffer entry.
// Create's high-water mark is the larger of two stages: the planes, the
// buffer and the W + 1 snapshot bounds while sampling; and those without
// the planes plus the bitmap, word ranks and pair offsets while building.
// The structs are pinned to their members, so a per-arc or per-pair array
// added back to one fails here even if bytes() does not count it.
TEST(SnapshotOracleTest, TransientBytesPinnedToTheShape) {
  EXPECT_EQ(sizeof(internal::SnapshotPlanes),
            sizeof(std::vector<uint64_t>) + sizeof(size_t) + sizeof(double) +
                3 * sizeof(void*));
  EXPECT_EQ(sizeof(internal::ArcSources), 3 * sizeof(std::vector<uint32_t>));
  EXPECT_EQ(sizeof(internal::SnapshotArrays),
            4 * sizeof(std::vector<uint32_t>) + sizeof(size_t) +
                2 * sizeof(uint64_t));
  struct Case {
    size_t n, degree;
    double p_lo, p_hi;
    size_t w;
  };
  const Case cases[] = {{300, 2, 0.05, 0.3, 37},
                        {120, 8, 0.3, 1.0, 5},
                        {70, 4, 0.1, 0.6, 1},
                        {250, 6, 0.05, 0.5, 100}};
  const internal::SnapshotSampler samplers[] = {
      internal::ResolveSnapshotSampler(true),
      internal::ActiveSnapshotSampler()};
  for (size_t c = 0; c < 4; ++c) {
    const Case& k = cases[c];
    ArcProbabilities probs;
    const TopicGraph g =
        MakeGraphWithSinks(k.n, k.degree, k.p_lo, k.p_hi, 80 + c, &probs);
    // Every fifth arc is never kept; it still has its planes' bits.
    for (size_t a = 0; a < probs.size(); a += 5) probs[a] = 0.0;
    const size_t m = probs.size();
    const size_t blocks = (m + 63) / 64;
    size_t n_s = 0;
    for (NodeId u = 0; u < k.n; ++u) n_s += g.OutDegree(u) > 0;
    const size_t words = (k.w * k.n + 63) / 64;
    const internal::ArcSources sources = internal::IndexArcSources(g);
    EXPECT_EQ(sources.bytes(), 12 * blocks + 4 * n_s) << "case " << c;
    const size_t planes_bytes = 96 * blocks;
    EXPECT_EQ(internal::PlanesFromProbabilities(probs).bytes(), planes_bytes)
        << "case " << c;
    for (const internal::SnapshotSampler sample : samplers) {
      const internal::SnapshotArrays a =
          sample(g, sources, internal::PlanesFromProbabilities(probs), k.w, 5);
      EXPECT_EQ(a.draws, k.w * blocks * 12) << "case " << c;
      const size_t pairs = a.pair_offsets.size() - 1;
      const size_t buffer = a.targets.capacity();
      ASSERT_GE(buffer, a.targets.size());
      EXPECT_EQ(a.bytes(), 12 * words + 4 * (pairs + 1) + 4 * buffer)
          << "case " << c;
      const size_t drawing = planes_bytes + 4 * (k.w + 1) + 4 * buffer;
      const size_t building =
          drawing - planes_bytes + 12 * words + 4 * (pairs + 1);
      EXPECT_EQ(a.peak_bytes, std::max(drawing, building)) << "case " << c;
      if (sample != internal::ActiveSnapshotSampler()) continue;
      SnapshotSpreadOracle::Options opts;
      opts.num_snapshots = k.w;
      opts.seed = 5;
      auto created = SnapshotSpreadOracle::Create(g, probs, opts);
      ASSERT_TRUE(created.ok());
      EXPECT_EQ(created.ValueOrDie().create_peak_bytes(),
                std::max(drawing, building))
          << "case " << c;
    }
  }
}

// ------------------------------------------------------------ greedy / CELF ---

class SeedSelectorAgreementTest : public ::testing::TestWithParam<uint64_t> {};

// The three lazy-greedy-equivalent selections — plain greedy, CELF, and the
// paper's CELF++, which CELF stands in for — agree on the seeds: each picks
// the largest exact gain per round, ties to the lowest node id.
TEST_P(SeedSelectorAgreementTest, AllThreeAlgorithmsAgree) {
  const TopicGraph g = MakeRandomGraph(120, 700, 0.05, 0.4, GetParam());
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 60;
  opts.seed = GetParam() * 3 + 1;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto& o = oracle.ValueOrDie();

  SeedSelectionOptions sopts;
  sopts.parallel_first_iteration = false;
  const size_t k = 8;
  auto greedy = SelectSeedsGreedy(&o, k, sopts);
  auto celf = SelectSeedsCelf(&o, k, sopts);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(celf.ok());

  // Same oracle ⇒ identical greedy sequences (ties broken identically) and
  // identical final spreads.
  EXPECT_EQ(celf.ValueOrDie().seeds, greedy.ValueOrDie().seeds);
  EXPECT_EQ(celf.ValueOrDie().marginal_gains,
            greedy.ValueOrDie().marginal_gains);
  EXPECT_NEAR(celf.ValueOrDie().expected_spread,
              greedy.ValueOrDie().expected_spread, 1e-9);

  // Lazy evaluation must not do MORE work than plain greedy.
  EXPECT_LE(celf.ValueOrDie().num_evaluations,
            greedy.ValueOrDie().num_evaluations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSelectorAgreementTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(SeedSelectorTest, MarginalGainsNonIncreasing) {
  const TopicGraph g = MakeRandomGraph(100, 500, 0.1, 0.4, 17);
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  SeedSelectionOptions sopts;
  sopts.parallel_first_iteration = false;
  auto r = SelectSeedsCelf(&oracle.ValueOrDie(), 10, sopts);
  ASSERT_TRUE(r.ok());
  const auto& gains = r.ValueOrDie().marginal_gains;
  for (size_t i = 1; i < gains.size(); ++i) {
    EXPECT_LE(gains[i], gains[i - 1] + 1e-9) << i;
  }
  // Spread equals the sum of marginal gains.
  double total = 0.0;
  for (double gn : gains) total += gn;
  EXPECT_NEAR(total, r.ValueOrDie().expected_spread, 1e-9);
}

TEST(SeedSelectorTest, SeedsAreDistinct) {
  const TopicGraph g = MakeRandomGraph(60, 300, 0.1, 0.5, 19);
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  auto r = SelectSeedsCelf(&oracle.ValueOrDie(), 20, {});
  ASSERT_TRUE(r.ok());
  std::set<NodeId> unique(r.ValueOrDie().seeds.begin(),
                          r.ValueOrDie().seeds.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(SeedSelectorTest, RejectsBadK) {
  const TopicGraph g = MakePathGraph({0.5});
  SnapshotSpreadOracle::Options opts;
  auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(SelectSeedsGreedy(&oracle.ValueOrDie(), 0, {}).ok());
  EXPECT_FALSE(SelectSeedsCelf(&oracle.ValueOrDie(), 0, {}).ok());
  EXPECT_FALSE(SelectSeedsCelf(&oracle.ValueOrDie(), 99, {}).ok());
}

TEST(SeedSelectorTest, ParallelFirstIterationMatchesSerial) {
  const TopicGraph g = MakeRandomGraph(400, 2000, 0.05, 0.3, 23);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 40;
  auto o1 = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  auto o2 = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  SeedSelectionOptions serial;
  serial.parallel_first_iteration = false;
  SeedSelectionOptions parallel;
  parallel.parallel_first_iteration = true;
  auto a = SelectSeedsCelf(&o1.ValueOrDie(), 5, serial);
  auto b = SelectSeedsCelf(&o2.ValueOrDie(), 5, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().seeds, b.ValueOrDie().seeds);
}

TEST(SeedSelectorTest, ParallelSelectionAcrossGraphSizesInOneProcess) {
  // The parallel first iteration keeps one oracle workspace per pool
  // thread. A thread that first served a small graph must rebuild it for a
  // larger one instead of writing past it (a heap overflow under ASan).
  // ctest runs every TEST in its own process, so both sizes share this one.
  using Selector = Result<SeedSelectionResult> (*)(
      SnapshotSpreadOracle*, size_t, const SeedSelectionOptions&);
  SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = 10;
  SeedSelectionOptions serial;
  serial.parallel_first_iteration = false;
  for (const size_t n : {300u, 3000u}) {
    const TopicGraph g = MakeRandomGraph(n, 4 * n, 0.05, 0.3, 29 + n);
    for (const Selector select :
         {&SelectSeedsGreedy, &SelectSeedsCelf}) {
      auto o1 = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
      auto o2 = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
      ASSERT_TRUE(o1.ok());
      ASSERT_TRUE(o2.ok());
      auto a = select(&o1.ValueOrDie(), 4, serial);
      auto b = select(&o2.ValueOrDie(), 4, {});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.ValueOrDie().seeds, b.ValueOrDie().seeds) << "n=" << n;
    }
  }
}

// CELF pinned bit-for-bit on seeded random graphs large enough (n >= 256)
// for the parallel first round. The seeds and every marginal gain fold into
// one FNV-1a digest; its constant was recorded from CELF++, which CELF must
// reproduce (same picks per round, same ties). The evaluation counts are
// CELF's own and are pinned separately. Serial and parallel first rounds
// must both match.
TEST(SeedSelectorTest, CelfMatchesPinnedDigest) {
  constexpr size_t kEvaluations[] = {1011, 1111, 852};
  for (const bool parallel : {false, true}) {
    uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](uint64_t v) {
      digest = (digest ^ v) * 0x100000001b3ULL;
    };
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const TopicGraph g =
          MakeRandomGraph(300 + 50 * seed, 6 * (300 + 50 * seed), 0.02, 0.3,
                          seed * 41);
      SnapshotSpreadOracle::Options opts;
      opts.num_snapshots = 50;
      opts.seed = seed;
      auto oracle = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
      ASSERT_TRUE(oracle.ok());
      SeedSelectionOptions sopts;
      sopts.parallel_first_iteration = parallel;
      if (seed == 3) {
        // A segment mask moves the best singleton off the global argmax.
        sopts.candidate_mask.assign(g.num_nodes(), 0);
        for (size_t v = 1; v < g.num_nodes(); v += 2) {
          sopts.candidate_mask[v] = 1;
        }
      }
      auto r = SelectSeedsCelf(&oracle.ValueOrDie(), 15, sopts);
      ASSERT_TRUE(r.ok());
      const SeedSelectionResult& result = r.ValueOrDie();
      for (NodeId v : result.seeds) fold(v);
      for (double gain : result.marginal_gains) {
        fold(std::bit_cast<uint64_t>(gain));
      }
      EXPECT_EQ(result.num_evaluations, kEvaluations[seed - 1])
          << "parallel " << parallel << " seed " << seed;
    }
    EXPECT_EQ(digest, 0x3907e4c9f93b512eULL)
        << "parallel " << parallel << std::hex << " digest 0x" << digest;
  }
}

// Heavy ties: W = 1 or 3 snapshots make gains small integers over W, and
// twin nodes (odd node 2i+1 copies even node 2i's out-arcs and their
// probabilities) often reach the same number of nodes. CELF must still
// return greedy's seeds and gain doubles — the largest gain per round, ties
// to the lowest node id — with and without candidate masks, from a serial
// and a parallel first round.
TEST(SeedSelectorTest, CelfMatchesGreedyUnderTies) {
  for (uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng(500 + trial);
    const size_t n = trial % 2 == 0 ? 300 : 80;
    TopicGraphBuilder b(n, 1);
    for (NodeId u = 0; u + 1 < n; u += 2) {
      std::set<NodeId> targets;
      const size_t degree = rng.UniformInt(5);
      while (targets.size() < degree) {
        const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
        if (v != u && v != u + 1) targets.insert(v);
      }
      for (const NodeId v : targets) {
        // A third of the arcs are certain, so twins tie in every snapshot.
        const double p = rng.UniformInt(3) == 0 ? 1.0 : rng.Uniform(0.1, 0.9);
        ASSERT_TRUE(b.AddArc(u, v, {p}).ok());
        ASSERT_TRUE(b.AddArc(u + 1, v, {p}).ok());
      }
    }
    const TopicGraph g = b.Build().ValueOrDie();
    SnapshotSpreadOracle::Options opts;
    opts.num_snapshots = trial % 4 < 2 ? 1 : 3;
    opts.seed = trial;
    auto created = SnapshotSpreadOracle::Create(g, SingleTopicProbs(g), opts);
    ASSERT_TRUE(created.ok());
    SnapshotSpreadOracle& o = created.ValueOrDie();

    SeedSelectionOptions serial;
    serial.parallel_first_iteration = false;
    if (trial % 3 != 0) {
      serial.candidate_mask.assign(n, 0);
      for (size_t v = 0; v < n; ++v) {
        serial.candidate_mask[v] = rng.UniformInt(3) != 0;
      }
    }
    SeedSelectionOptions parallel = serial;
    parallel.parallel_first_iteration = true;
    const size_t k = 25;
    auto greedy = SelectSeedsGreedy(&o, k, serial);
    ASSERT_TRUE(greedy.ok());
    const SeedSelectionResult want = greedy.ValueOrDie();
    for (const SeedSelectionOptions* sopts : {&serial, &parallel}) {
      auto celf = SelectSeedsCelf(&o, k, *sopts);
      ASSERT_TRUE(celf.ok());
      const SeedSelectionResult& got = celf.ValueOrDie();
      EXPECT_EQ(got.seeds, want.seeds) << "trial " << trial;
      ASSERT_EQ(got.marginal_gains.size(), want.marginal_gains.size());
      for (size_t i = 0; i < want.marginal_gains.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.marginal_gains[i]),
                  std::bit_cast<uint64_t>(want.marginal_gains[i]))
            << "trial " << trial << " round " << i;
      }
      EXPECT_EQ(got.expected_spread, want.expected_spread);
    }
    // The ties are real: in most rounds another candidate had the picked
    // gain too.
    size_t tied_rounds = 0;
    o.ResetSeeds();
    auto ws = o.MakeWorkspace();
    for (size_t i = 0; i < k; ++i) {
      size_t best = 0;
      for (NodeId v = 0; v < n; ++v) {
        best += IsCandidate(serial, v) &&
                o.MarginalGain(v, &ws) == want.marginal_gains[i];
      }
      tied_rounds += best > 1;
      o.CommitSeed(want.seeds[i], &ws);
    }
    EXPECT_GT(tied_rounds, k / 2) << "trial " << trial;
  }
}

// ---------------------------------------------------------------- heuristics ---

TEST(HeuristicsTest, RandomSeedsDistinctAndInRange) {
  Rng rng(29);
  auto r = SelectSeedsRandom(50, 10, &rng);
  ASSERT_TRUE(r.ok());
  std::set<NodeId> unique(r.ValueOrDie().begin(), r.ValueOrDie().end());
  EXPECT_EQ(unique.size(), 10u);
  for (NodeId v : r.ValueOrDie()) EXPECT_LT(v, 50u);
  EXPECT_FALSE(SelectSeedsRandom(5, 6, &rng).ok());
  EXPECT_FALSE(SelectSeedsRandom(5, 0, &rng).ok());
}

}  // namespace
}  // namespace im
}  // namespace inflex

// Google-benchmark microbenchmarks of the hot kernels: KL divergence (the
// reference scalar path vs the factorized vectorized kernel layer), ILR,
// Eq. 1 instance materialization, cascade simulation, snapshot-oracle
// marginal gains, the offline phase's layers (the dataset, snapshot
// sampling, one index point's seed-list precompute and its CELF half,
// index-point selection and its k-means), bb-tree searches, Kendall-τ, the
// aggregation kernels, and one index generation's publish.
// After the google-benchmark suite, main() runs a self-timed reference-vs-
// kernel comparison across topic counts and leaf-scan batch sizes and writes
// it to BENCH_kernels.json (see RunKernelComparison below).
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "bbtree/bbtree.h"
#include "cluster/kmeans.h"
#include "common/testbed.h"
#include "data/synthetic.h"
#include "im/cascade.h"
#include "im/celf.h"
#include "im/ris.h"
#include "im/snapshot_oracle.h"
#include "im/snapshot_sampler.h"
#include "inflex/index_points.h"
#include "oracle/celfpp_oracle.h"
#include "rank/aggregators.h"
#include "rank/kendall_tau.h"
#include "simplex/divergence.h"
#include "simplex/ilr.h"
#include "simplex/kl_kernel.h"
#include "simplex/kl_kernel_simd.h"
#include "simplex/sampling.h"
#include "stats/dirichlet.h"
#include "util/aligned.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace inflex;  // NOLINT

const data::SyntheticDataset& SharedDataset() {
  static const data::SyntheticDataset* ds = [] {
    data::SyntheticDatasetOptions opts;
    opts.num_users = 1000;
    opts.num_topics = 10;
    opts.num_items = 500;
    opts.seed = 3;
    auto r = data::GenerateSyntheticDataset(opts);
    INFLEX_CHECK(r.ok());
    return new data::SyntheticDataset(std::move(r).ValueOrDie());
  }();
  return *ds;
}

void BM_KlDivergence(benchmark::State& state) {
  Rng rng(1);
  const auto p = simplex::SampleUniformSimplex(state.range(0), &rng);
  const auto q = simplex::SampleUniformSimplex(state.range(0), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simplex::KlDivergence(p, q));
  }
}
BENCHMARK(BM_KlDivergence)->Arg(10)->Arg(50)->Arg(200);

void BM_KlKernelFactorized(benchmark::State& state) {
  // The factorized evaluation as the tree performs it: log q̂ and −H(p)
  // amortized away, one dot product per call.
  Rng rng(1);
  const size_t dim = state.range(0);
  const auto p = simplex::SampleUniformSimplex(dim, &rng);
  const auto q = simplex::SampleUniformSimplex(dim, &rng);
  const double negent = simplex::NegativeEntropy(p.data(), dim);
  simplex::KlQueryContext ctx;
  ctx.Reset(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Kl(p.data(), negent));
  }
}
BENCHMARK(BM_KlKernelFactorized)->Arg(10)->Arg(50)->Arg(200);

// One leaf scan: `batch` stored points against one query. The reference
// variant calls KlDivergence per point (scalar logs every call); the kernel
// variant is one KlBatch sweep over the contiguous rows.
void BM_KlLeafScanReference(benchmark::State& state) {
  Rng rng(1);
  const size_t dim = state.range(0);
  const size_t batch = state.range(1);
  const auto points = simplex::SampleUniformSimplexMany(dim, batch, &rng);
  const auto q = simplex::SampleUniformSimplex(dim, &rng);
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& p : points) acc += simplex::KlDivergence(p, q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_KlLeafScanReference)
    ->Args({50, 16})
    ->Args({50, 64})
    ->Args({50, 256})
    ->Args({10, 64})
    ->Args({200, 64});

void BM_KlLeafScanKernel(benchmark::State& state) {
  Rng rng(1);
  const size_t dim = state.range(0);
  const size_t batch = state.range(1);
  const auto points = simplex::SampleUniformSimplexMany(dim, batch, &rng);
  std::vector<double> rows(batch * dim), negent(batch), out(batch);
  for (size_t i = 0; i < batch; ++i) {
    std::copy(points[i].begin(), points[i].end(), rows.begin() + i * dim);
    negent[i] = simplex::NegativeEntropy(points[i].data(), dim);
  }
  simplex::KlQueryContext ctx;
  ctx.Reset(simplex::SampleUniformSimplex(dim, &rng));
  for (auto _ : state) {
    simplex::KlBatch(rows.data(), negent.data(), batch, dim, ctx.log_query(),
                     out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_KlLeafScanKernel)
    ->Args({50, 16})
    ->Args({50, 64})
    ->Args({50, 256})
    ->Args({10, 64})
    ->Args({200, 64});

void BM_IlrTransform(benchmark::State& state) {
  Rng rng(2);
  const auto p = simplex::SampleUniformSimplex(state.range(0), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simplex::IlrTransform(p));
  }
}
BENCHMARK(BM_IlrTransform)->Arg(10)->Arg(50);

void BM_ItemArcProbabilities(benchmark::State& state) {
  const auto& ds = SharedDataset();
  graph::ArcProbabilities buf;
  const auto item = simplex::TopicDistribution::Uniform(10);
  for (auto _ : state) {
    ds.graph.ItemArcProbabilitiesInto(item, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.graph.num_arcs()));
}
BENCHMARK(BM_ItemArcProbabilities);

void BM_CascadeSimulation(benchmark::State& state) {
  const auto& ds = SharedDataset();
  const auto probs =
      ds.graph.ItemArcProbabilities(ds.catalog[state.range(0)]);
  im::CascadeWorkspace ws(ds.graph.num_nodes());
  Rng rng(4);
  const std::vector<graph::NodeId> seeds = {1, 50, 200};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        im::SimulateCascadeCount(ds.graph, probs, seeds, &rng, &ws));
  }
}
BENCHMARK(BM_CascadeSimulation)->Arg(0)->Arg(1);

void BM_SnapshotMarginalGain(benchmark::State& state) {
  const auto& ds = SharedDataset();
  const auto probs = ds.graph.ItemArcProbabilities(ds.catalog[0]);
  im::SnapshotSpreadOracle::Options opts;
  opts.num_snapshots = static_cast<size_t>(state.range(0));
  auto oracle = im::SnapshotSpreadOracle::Create(ds.graph, probs, opts);
  INFLEX_CHECK(oracle.ok());
  auto ws = oracle.ValueOrDie().MakeWorkspace();
  Rng rng(5);
  for (auto _ : state) {
    const auto v =
        static_cast<graph::NodeId>(rng.UniformInt(ds.graph.num_nodes()));
    benchmark::DoNotOptimize(oracle.ValueOrDie().MarginalGain(v, &ws));
  }
}
BENCHMARK(BM_SnapshotMarginalGain)->Arg(50)->Arg(100);

// The offline phase layer by layer, on the test-bed world: the dataset of
// benchsupport::TestbedConfig (INFLEX_BENCH_SCALE, default small) without
// its index or ground truth, so no test-bed cache is built or read.
data::SyntheticDatasetOptions TestbedDatasetOptions() {
  const auto config = benchsupport::TestbedConfig::FromEnv();
  data::SyntheticDatasetOptions opts;
  opts.num_users = config.num_users;
  opts.num_topics = config.num_topics;
  opts.num_items = config.num_items;
  opts.avg_degree = config.avg_degree;
  opts.seed = config.seed;
  return opts;
}

const data::SyntheticDataset& TestbedDataset() {
  static const data::SyntheticDataset* ds = [] {
    auto r = data::GenerateSyntheticDataset(TestbedDatasetOptions());
    INFLEX_CHECK(r.ok());
    return new data::SyntheticDataset(std::move(r).ValueOrDie());
  }();
  return *ds;
}

// The dataset layer as a server holds it: communities, graph and catalog
// (the small scale is inflexbench's world: 2,500 users, Z = 8, 3,000 items,
// degree 12).
void BM_SyntheticDataset(benchmark::State& state) {
  const data::SyntheticDatasetOptions opts = TestbedDatasetOptions();
  for (auto _ : state) {
    auto r = data::GenerateSyntheticDataset(opts);
    INFLEX_CHECK(r.ok());
    benchmark::DoNotOptimize(r.ValueOrDie().graph.num_arcs());
  }
}
BENCHMARK(BM_SyntheticDataset)->Unit(benchmark::kMillisecond);

// The log call on the same world: the dataset plus the propagation log's TIC
// cascades, so the log stage costs this row minus BM_SyntheticDataset.
// `log_bytes` is the log's heap bytes, from its arrays' capacities (exact,
// not an allocator's count).
void BM_SyntheticLog(benchmark::State& state) {
  const data::SyntheticDatasetOptions opts = TestbedDatasetOptions();
  size_t log_bytes = 0;
  for (auto _ : state) {
    tic::PropagationLog log(1, 1);
    auto r = data::GenerateSyntheticDataset(opts, &log);
    INFLEX_CHECK(r.ok());
    log_bytes = log.bytes();
    benchmark::DoNotOptimize(log.size());
  }
  state.counters["log_bytes"] = static_cast<double>(log_bytes);
}
BENCHMARK(BM_SyntheticLog)->Unit(benchmark::kMillisecond);

// One index point's transients in bytes, from the capacities of the arrays
// SnapshotSpreadOracle::Create holds for the test-bed's first item at W =
// 100 and the given seed, sampled as the seed-list path does (from the
// item's mixture, against a shared arc-source index; exact, not an
// allocator's count): `transient_bytes` is Create's high-water mark (the
// sampler's peak), `planes_bytes` the item's planes alone (96 per 64 arcs)
// and `arrays_bytes` the snapshot arrays the oracle keeps. `draws` counts
// the stream words one point's sampling takes and `fallback_blocks` the
// (snapshot, block) pairs it settles past the stream's digits.
void SetTransientCounters(benchmark::State& state, uint64_t seed) {
  const auto& ds = TestbedDataset();
  const auto sources = im::internal::IndexArcSources(ds.graph);
  auto planes = im::internal::PlanesFromMixture(ds.graph, ds.catalog[0]);
  const size_t planes_bytes = planes.bytes();
  const auto arrays = im::internal::ActiveSnapshotSampler()(
      ds.graph, sources, std::move(planes), 100, seed);
  im::SnapshotSpreadOracle::Options oopts;
  oopts.num_snapshots = 100;
  oopts.seed = seed;
  auto created = im::SnapshotSpreadOracle::Create(ds.graph, ds.catalog[0],
                                                  oopts, &sources);
  INFLEX_CHECK(created.ok());
  state.counters["transient_bytes"] =
      static_cast<double>(created.ValueOrDie().create_peak_bytes());
  state.counters["planes_bytes"] = static_cast<double>(planes_bytes);
  state.counters["arrays_bytes"] = static_cast<double>(arrays.bytes());
  state.counters["draws"] = static_cast<double>(arrays.draws);
  state.counters["fallback_blocks"] =
      static_cast<double>(arrays.fallback_blocks);
}

// Sampling the W = 100 live-edge snapshots of one item's IC instance, as
// SnapshotSpreadOracle::Create does on the seed-list path (the planes from
// the item's mixture, the graph's arc sources built once outside the loop):
// Arg(0) pins the scalar reference sampler, Arg(1) runs the process's
// active variant (the four-lane AVX2 sampler on AVX2 CPUs unless
// INFLEX_FORCE_SCALAR is set).
void BM_SnapshotCreate(benchmark::State& state) {
  const auto& ds = TestbedDataset();
  const auto sources = im::internal::IndexArcSources(ds.graph);
  const im::internal::SnapshotSampler sample =
      state.range(0) == 0 ? im::internal::ResolveSnapshotSampler(true)
                          : im::internal::ActiveSnapshotSampler();
  for (auto _ : state) {
    const auto arrays = sample(
        ds.graph, sources,
        im::internal::PlanesFromMixture(ds.graph, ds.catalog[0]), 100, 7);
    benchmark::DoNotOptimize(arrays.targets.data());
  }
  SetTransientCounters(state, 7);
}
BENCHMARK(BM_SnapshotCreate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One index point's precompute as InflexIndex::Build runs it: snapshots
// (against the build's shared arc-source index), then a serial CELF run for
// an ℓ = 50 seed list.
void BM_OfflineTicSeeds(benchmark::State& state) {
  const auto& ds = TestbedDataset();
  const auto sources = im::internal::IndexArcSources(ds.graph);
  oracle::OfflineImOptions opts;
  opts.num_snapshots = 100;
  opts.selection.parallel_first_iteration = false;
  for (auto _ : state) {
    auto seeds = oracle::OfflineTicSeeds(ds.graph, ds.catalog[0], 50, opts,
                                         &sources);
    benchmark::DoNotOptimize(seeds.ok());
  }
  SetTransientCounters(state, opts.seed);
}
BENCHMARK(BM_OfflineTicSeeds)->Unit(benchmark::kMillisecond);

// The CELF half of BM_OfflineTicSeeds (the other is BM_SnapshotCreate): the
// same ℓ = 50 serial selection on a prebuilt oracle of the test-bed's first
// item. CELF evaluates on the calling thread's workspace, so its BFS counter
// splits the reach BFS runs into the first round's (one per active (node,
// snapshot) pair, counted from a standalone first round) and the lazy
// loop's re-evaluations.
void BM_CelfSeeds(benchmark::State& state) {
  const auto& ds = TestbedDataset();
  im::SnapshotSpreadOracle::Options oopts;
  oopts.num_snapshots = 100;
  oopts.seed = oracle::OfflineImOptions{}.seed;
  auto created =
      im::SnapshotSpreadOracle::Create(ds.graph, ds.catalog[0], oopts);
  INFLEX_CHECK(created.ok());
  im::SnapshotSpreadOracle& snapshots = created.ValueOrDie();
  im::SnapshotSpreadOracle::Workspace* ws = snapshots.ThreadWorkspace();
  std::vector<double> gains(snapshots.num_nodes());
  uint64_t before = ws->bfs_runs();
  snapshots.SingletonGains(
      0, static_cast<graph::NodeId>(snapshots.num_nodes()), ws, gains);
  const uint64_t first_round = ws->bfs_runs() - before;
  im::SeedSelectionOptions sopts;
  sopts.parallel_first_iteration = false;
  uint64_t per_run = 0;
  for (auto _ : state) {
    before = ws->bfs_runs();
    auto seeds = im::SelectSeedsCelf(&snapshots, 50, sopts);
    per_run = ws->bfs_runs() - before;
    benchmark::DoNotOptimize(seeds.ok());
  }
  state.counters["first_round_bfs"] = static_cast<double>(first_round);
  state.counters["lazy_loop_bfs"] = static_cast<double>(per_run - first_round);
}
BENCHMARK(BM_CelfSeeds)->Unit(benchmark::kMillisecond);

// §3.1 index-point selection: Dirichlet fit, 30k samples, h = 256 Bregman
// K-means++ centroids (seeding and Lloyd's assignment across the pool).
// `samples_bytes` is the sample matrix's heap bytes, from its capacity.
void BM_SelectIndexPoints(benchmark::State& state) {
  const auto& ds = TestbedDataset();
  core::IndexPointOptions opts;
  opts.num_index_points = 256;
  opts.num_dirichlet_samples = 30000;
  size_t samples_bytes = 0;
  for (auto _ : state) {
    auto selection = core::SelectIndexPoints(ds.catalog, opts);
    INFLEX_CHECK(selection.ok());
    benchmark::DoNotOptimize(selection.ValueOrDie().points.data());
    samples_bytes =
        selection.ValueOrDie().samples.capacity() * sizeof(double);
  }
  state.counters["samples_bytes"] = static_cast<double>(samples_bytes);
}
BENCHMARK(BM_SelectIndexPoints)->Unit(benchmark::kMillisecond);

// The k-means layer of BM_SelectIndexPoints alone: the same 30k samples of
// the catalog's fitted Dirichlet, clustered into h = 256 index points. The
// `reference_share` counter is the share of KL evaluations the screen
// confirmed with the reference KlDivergence.
void BM_KMeansIndexPoints(benchmark::State& state) {
  const auto& ds = TestbedDataset();
  std::vector<simplex::TopicVector> raw;
  for (const auto& item : ds.catalog) raw.push_back(item.probs());
  auto fitted = stats::FitDirichletMle(raw);
  INFLEX_CHECK(fitted.ok());
  Rng rng(5);
  const std::vector<double> samples =
      fitted.ValueOrDie().SampleRows(30000, &rng);
  const size_t dim = fitted.ValueOrDie().dim();
  cluster::KMeansOptions opts;
  opts.num_clusters = 256;
  opts.max_iterations = core::IndexPointOptions{}.kmeans_max_iterations;
  opts.seed = rng.Next();
  double share = 0.0;
  for (auto _ : state) {
    auto r = cluster::KMeansPlusPlus(samples, dim, opts);
    INFLEX_CHECK(r.ok());
    const cluster::KMeansResult& result = r.ValueOrDie();
    share = static_cast<double>(result.kl_reference_evaluations) /
            (static_cast<double>(samples.size() / dim * opts.num_clusters) *
             (1.0 + result.iterations));
  }
  state.counters["reference_share"] = share;
}
BENCHMARK(BM_KMeansIndexPoints)->Unit(benchmark::kMillisecond);

std::vector<simplex::TopicVector> BenchPoints(size_t n, size_t dim) {
  Rng rng(6);
  return simplex::SampleUniformSimplexMany(dim, n, &rng);
}

void BM_BbTreeBuild(benchmark::State& state) {
  const auto points = BenchPoints(state.range(0), 10);
  for (auto _ : state) {
    auto tree = bbtree::BbTree::Build(points, {});
    benchmark::DoNotOptimize(tree.ok());
  }
}
BENCHMARK(BM_BbTreeBuild)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_BbTreeExactKnn(benchmark::State& state) {
  const auto points = BenchPoints(1000, 10);
  auto tree = bbtree::BbTree::Build(points, {});
  INFLEX_CHECK(tree.ok());
  Rng rng(7);
  for (auto _ : state) {
    const auto q = simplex::SampleUniformSimplex(10, &rng);
    benchmark::DoNotOptimize(tree.ValueOrDie().ExactKnn(q, 10));
  }
}
BENCHMARK(BM_BbTreeExactKnn);

void BM_BbTreeInflexSearch(benchmark::State& state) {
  const auto points = BenchPoints(1000, 10);
  auto tree = bbtree::BbTree::Build(points, {});
  INFLEX_CHECK(tree.ok());
  Rng rng(8);
  for (auto _ : state) {
    const auto q = simplex::SampleUniformSimplex(10, &rng);
    benchmark::DoNotOptimize(tree.ValueOrDie().InflexSearch(q, {}));
  }
}
BENCHMARK(BM_BbTreeInflexSearch);

rank::RankedList RandomList(size_t ell, size_t universe, Rng* rng) {
  std::vector<rank::Item> ids(universe);
  std::iota(ids.begin(), ids.end(), 0u);
  rng->Shuffle(&ids);
  ids.resize(ell);
  return ids;
}

void BM_KendallTauTopL(benchmark::State& state) {
  Rng rng(10);
  const auto a = RandomList(state.range(0), 500, &rng);
  const auto b = RandomList(state.range(0), 500, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rank::KendallTauTopL(a, b).ValueOrDie());
  }
}
BENCHMARK(BM_KendallTauTopL)->Arg(10)->Arg(50);

void BM_RisSeedSelection(benchmark::State& state) {
  const auto& ds = SharedDataset();
  const auto probs = ds.graph.ItemArcProbabilities(ds.catalog[0]);
  im::RisOptions opts;
  opts.num_rr_sets = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        im::SelectSeedsRis(ds.graph, probs, 10, opts).ok());
  }
}
BENCHMARK(BM_RisSeedSelection)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_Aggregation(benchmark::State& state) {
  Rng rng(11);
  const auto num_lists = static_cast<size_t>(state.range(1));
  std::vector<rank::RankedList> lists;
  std::vector<double> weights;
  for (size_t j = 0; j < num_lists; ++j) {
    lists.push_back(RandomList(50, 30 * num_lists, &rng));
    weights.push_back(rng.Uniform(0.2, 1.0));
  }
  rank::AggregationOptions opts;
  opts.method = static_cast<rank::AggregationMethod>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rank::AggregateRankings(lists, weights, 50, opts).ValueOrDie());
  }
  state.counters["union"] =
      static_cast<double>(rank::UnionOfLists(lists).size());
}
// Args: method (0 Borda, 1 Copeland, each followed by Local Kemenization)
// and L weighted top-50 lists over 30·L items: L = 10 gives a union of ~290,
// L = 20 one of ~490, the vote kernel's worst case.
BENCHMARK(BM_Aggregation)
    ->ArgsProduct({{0, 1}, {10, 20}})
    ->Unit(benchmark::kMicrosecond);

const benchsupport::Testbed& SharedTestbed() {
  static const std::shared_ptr<benchsupport::Testbed> tb = [] {
    auto r = benchsupport::GetTestbed();
    INFLEX_CHECK(r.ok());
    return std::move(r).ValueOrDie();
  }();
  return *tb;
}

// The maintainer's publish layer: a new generation is a copy of the current
// index plus one AddIndexPoint (h = 256 → 257 on the test-bed). The copy
// shares the seed lists and the bb-tree's storage with its base;
// `bytes_per_generation` is the heap one generation holds on top of its
// base (glibc's mallinfo2, in-use plus mmapped bytes), averaged over
// kGenerations copies of the test-bed index kept alive together. The chained
// counters publish kGenerations generations the way the maintainer does
// (copy the previous generation, AddIndexPoint of a catalog item, Compact
// once degradation() reaches the default rebuild threshold 0.10), keep every
// generation alive, and report the heap the chain holds: `chain_mb` in total
// and `chain_bytes_per_generation` per generation. mallinfo2 counts chunks
// parked in the thread's tcache as in use, so a single small generation can
// read near 0; the averages bound that error by the tcache's few KB over
// kGenerations.
void BM_PublishClone(benchmark::State& state) {
  const benchsupport::Testbed& tb = SharedTestbed();
  const core::InflexIndex& base = *tb.index;
  const auto item = simplex::TopicDistribution::Uniform(base.num_topics());
  const rank::RankedList& list = base.seed_list(0);
  for (auto _ : state) {
    core::InflexIndex next = base;
    INFLEX_CHECK(next.AddIndexPoint(item, list).ok());
    benchmark::DoNotOptimize(next.num_index_points());
  }
#if defined(__GLIBC__)
  constexpr size_t kGenerations = 145;
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  std::vector<std::unique_ptr<core::InflexIndex>> held;
  held.reserve(kGenerations);
  double before = heap_bytes();
  for (size_t g = 0; g < kGenerations; ++g) {
    held.push_back(std::make_unique<core::InflexIndex>(base));
    INFLEX_CHECK(held.back()->AddIndexPoint(item, list).ok());
  }
  state.counters["bytes_per_generation"] =
      (heap_bytes() - before) / static_cast<double>(kGenerations);
  held.clear();

  bbtree::BbTreeOptions tree_options;
  tree_options.max_leaf_size = tb.config.tree_max_leaf_size;
  before = heap_bytes();
  const core::InflexIndex* current = &base;
  for (size_t g = 0; g < kGenerations; ++g) {
    auto gen = std::make_unique<core::InflexIndex>(*current);
    const auto& added = tb.dataset->catalog[g % tb.dataset->catalog.size()];
    INFLEX_CHECK(
        gen->AddIndexPoint(added, base.seed_list(g % base.num_index_points()))
            .ok());
    if (gen->tree().degradation() >= 0.10) {
      INFLEX_CHECK(gen->Compact(tree_options).ok());
    }
    current = gen.get();
    held.push_back(std::move(gen));
  }
  const double chain_bytes = heap_bytes() - before;
  state.counters["chain_mb"] = chain_bytes / 1e6;
  state.counters["chain_bytes_per_generation"] =
      chain_bytes / static_cast<double>(kGenerations);
#endif
}
BENCHMARK(BM_PublishClone)->Unit(benchmark::kMicrosecond);

// One measured configuration of the reference-vs-kernel comparison.
struct KernelRow {
  size_t dim = 0;
  size_t batch = 0;
  double ref_ns_per_eval = 0.0;
  /// The dispatched (possibly SIMD) KlBatch over stride-padded aligned rows.
  double kernel_ns_per_eval = 0.0;
  /// The fixed-order scalar kernel over the same rows — auto-vectorized by
  /// the compiler at whatever the build flags allow, but without the
  /// explicit-SIMD variants. The gap to `kernel` isolates the dispatch win.
  double scalar_kernel_ns_per_eval = 0.0;
  double speedup() const { return ref_ns_per_eval / kernel_ns_per_eval; }
  double simd_speedup() const {
    return scalar_kernel_ns_per_eval / kernel_ns_per_eval;
  }
};

// Self-timed leaf-scan comparison (independent of google-benchmark so the
// JSON is reproducible with a plain run): for each (Z, batch) configuration
// measures ns/eval of the reference scalar KlDivergence loop, of the
// fixed-order scalar kernel, and of the dispatched (SIMD) KlBatch over the
// same stride-padded rows, repeating each measurement until it accumulates
// enough wall time (≥ ~40 ms; ~4 ms in --quick smoke runs).
KernelRow MeasureKernelRow(size_t dim, size_t batch, bool quick) {
  Rng rng(21);
  const auto points = simplex::SampleUniformSimplexMany(dim, batch, &rng);
  const auto q = simplex::SampleUniformSimplex(dim, &rng);
  // The tree's actual storage shape: 64B-aligned rows, cache-line stride.
  const size_t stride = util::AlignedRowStride(dim);
  util::AlignedVector<double> rows(batch * stride, 0.0);
  std::vector<double> negent(batch), out(batch);
  for (size_t i = 0; i < batch; ++i) {
    std::copy(points[i].begin(), points[i].end(), rows.begin() + i * stride);
    negent[i] = simplex::NegativeEntropy(points[i].data(), dim);
  }
  simplex::KlQueryContext ctx;
  ctx.Reset(q);

  const double min_elapsed_s = quick ? 0.004 : 0.04;
  auto time_ns_per_eval = [&](auto&& body) {
    // Warm up, then grow the repeat count until the run is long enough for
    // the steady_clock resolution to be noise-free.
    body();
    size_t reps = 1;
    double elapsed_s = 0.0;
    for (;;) {
      Timer t;
      for (size_t r = 0; r < reps; ++r) body();
      elapsed_s = t.ElapsedSeconds();
      if (elapsed_s >= min_elapsed_s) break;
      reps *= 4;
    }
    return elapsed_s * 1e9 /
           (static_cast<double>(reps) * static_cast<double>(batch));
  };

  KernelRow row;
  row.dim = dim;
  row.batch = batch;
  double sink = 0.0;
  row.ref_ns_per_eval = time_ns_per_eval([&] {
    for (const auto& p : points) sink += simplex::KlDivergence(p, q);
  });
  row.scalar_kernel_ns_per_eval = time_ns_per_eval([&] {
    simplex::ScalarKernelOps().kl_batch(rows.data(), negent.data(), batch,
                                        dim, stride, ctx.log_query(),
                                        out.data());
    sink += out[0];
  });
  row.kernel_ns_per_eval = time_ns_per_eval([&] {
    simplex::KlBatch(rows.data(), negent.data(), batch, dim, stride,
                     ctx.log_query(), out.data());
    sink += out[0];
  });
  benchmark::DoNotOptimize(sink);
  return row;
}

void RunKernelComparison(bool quick) {
  const struct { size_t dim, batch; } configs[] = {
      {8, 64}, {10, 64}, {50, 16}, {50, 64}, {50, 256}, {200, 64},
  };
  std::printf("\nReference KlDivergence vs factorized kernel (leaf scan)\n");
  std::printf("active kernels: %s (detected %s%s)\n",
              simplex::ActiveKernelOps().name, simplex::DetectedSimdName(),
              simplex::ActiveKernelsForcedScalar()
                  ? ", forced scalar via INFLEX_FORCE_SCALAR"
                  : "");
  std::printf("%6s %6s %14s %14s %14s %9s %9s\n", "Z", "batch", "ref ns/eval",
              "scalar ns/eval", "kernel ns/eval", "speedup", "simd");
  std::vector<KernelRow> rows;
  for (const auto& c : configs) {
    rows.push_back(MeasureKernelRow(c.dim, c.batch, quick));
    const KernelRow& r = rows.back();
    std::printf("%6zu %6zu %14.2f %14.2f %14.2f %8.2fx %8.2fx\n", r.dim,
                r.batch, r.ref_ns_per_eval, r.scalar_kernel_ns_per_eval,
                r.kernel_ns_per_eval, r.speedup(), r.simd_speedup());
  }

  const char* path = "BENCH_kernels.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"kl_kernel_leaf_scan\",\n");
  std::fprintf(f, "  \"unit\": \"ns_per_eval\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  // The host SIMD record lets the checker decide whether the SIMD-speedup
  // gate applies: "avx2 must beat scalar" is physics on an AVX2 host and
  // fiction on a machine whose dispatch fell back to the scalar kernels.
  std::fprintf(f,
               "  \"host\": {\"simd\": {\"detected\": \"%s\", "
               "\"active\": \"%s\", \"forced_scalar\": %s}},\n",
               simplex::DetectedSimdName(), simplex::ActiveKernelOps().name,
               simplex::ActiveKernelsForcedScalar() ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::fprintf(f,
                 "    {\"z\": %zu, \"batch\": %zu, \"reference\": %.2f, "
                 "\"scalar_kernel\": %.2f, \"kernel\": %.2f, "
                 "\"speedup\": %.2f, \"simd_speedup\": %.2f}%s\n",
                 r.dim, r.batch, r.ref_ns_per_eval,
                 r.scalar_kernel_ns_per_eval, r.kernel_ns_per_eval,
                 r.speedup(), r.simd_speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: skip the google-benchmark suite and shrink the self-timed
  // budgets — a seconds-long smoke run for CI that still writes the full
  // BENCH_kernels.json shape (marked "quick": true so the checker relaxes
  // its numeric gates). Stripped before benchmark::Initialize sees it.
  bool quick = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!quick) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunKernelComparison(quick);
  return 0;
}

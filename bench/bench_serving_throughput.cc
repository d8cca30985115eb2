// Serving throughput: batched parallel TIM query serving through the
// QueryEngine (sharded QueryCache + ThreadPool fan-out) versus a serial
// query loop. This is the system counterpart of Figure 7: the paper makes a
// single query cheap; the serving layer makes *many concurrent* queries
// cheap. Reports QPS scaling with thread count, cache effectiveness, and the
// latency tail an operator would monitor (p50/p95/p99).
//
// Note: QPS scales with *physical* cores. On a single-core host the threaded
// rows collapse to ~1x and only the cache rows show gains.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/evaluation.h"
#include "common/testbed.h"
#include "data/workload.h"
#include "im/spread_estimator.h"
#include "inflex/index_maintainer.h"
#include "inflex/query_engine.h"
#include "oracle/spread_oracle.h"
#include "simplex/divergence.h"
#include "simplex/kl_kernel_simd.h"
#include "simplex/sampling.h"
#include "tenant/tenant_registry.h"
#include "tenant/tenant_router.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace inflex;                // NOLINT
using namespace inflex::benchsupport;  // NOLINT

namespace {

/// A serving trace: `unique` distinct mixtures, expanded to `total` requests
/// by re-drawing from the unique set (ad platforms see heavy re-submission of
/// near-identical campaigns, which is what the cache exploits).
std::vector<core::QueryRequest> MakeTrace(const Testbed& tb, size_t unique,
                                          size_t total, size_t k) {
  data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = unique / 2;
  wopts.num_uniform = unique - wopts.num_data_driven;
  wopts.seed = 1303;
  auto workload = data::GenerateQueryWorkload(tb.dataset->catalog, wopts);
  std::vector<core::QueryRequest> trace;
  if (!workload.ok()) return trace;
  const auto& qs = workload.ValueOrDie().queries;
  Rng rng(77);
  trace.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    core::QueryRequest r;
    r.item = qs[i < qs.size() ? i : rng.UniformInt(qs.size())];
    r.k = k;
    trace.push_back(std::move(r));
  }
  return trace;
}

/// One emitted row of BENCH_serving.json.
struct ServingRow {
  std::string label;
  bool cached = false;
  size_t threads = 1;
  core::ServingStats stats;
  double kl_evals_per_query = 0.0;
};

/// One phase row of the churn+decay scenario: cumulative generation swaps
/// seen by the engine and the index size at the end of the phase.
struct ChurnPhase {
  std::string phase;
  uint64_t generation_swaps = 0;
  size_t index_points = 0;
  uint64_t points_evicted = 0;
};

/// Summary of the catalog-churn + decay-sweep scenario.
struct ChurnSummary {
  size_t deltas_submitted = 0;
  uint64_t admitted = 0;
  uint64_t burst_generations = 0;
  uint64_t batched_deltas = 0;
  size_t index_points_initial = 0;
  size_t index_points_peak = 0;
  uint64_t decay_sweeps = 0;
  uint64_t points_evicted = 0;
  std::vector<ChurnPhase> phases;
};

/// One backend's row of the oracle A/B scenario.
struct OracleRow {
  std::string backend;
  double admit_to_publish_mean_ms = 0.0;
  double admit_to_publish_max_ms = 0.0;
  double precompute_mean_ms = 0.0;
  double mean_spread = 0.0;
  double quality_vs_celfpp = 0.0;
  double speedup_vs_celfpp = 0.0;
};

/// Summary of the oracle A/B scenario (one maintainer per backend).
struct OracleSummary {
  bool quick = false;
  size_t deltas = 0;
  size_t k = 0;
  std::vector<OracleRow> rows;
};

/// One quiet tenant's row of the noisy-neighbor scenario: its p99 served
/// alone versus served next to the flooding hot tenant.
struct TenantQuietRow {
  std::string tenant;
  size_t requests = 0;
  double solo_p99_ms = 0.0;
  double storm_p99_ms = 0.0;
  /// storm_p99 / solo_p99 — the number the checker gates.
  double isolation_ratio = 0.0;
  uint64_t shed = 0;
};

/// Summary of the multi-tenant noisy-neighbor scenario.
struct TenantSummary {
  bool quick = false;
  size_t quiet_tenants = 0;
  double hot_budget_qps = 0.0;
  size_t hot_attempts = 0;
  uint64_t hot_admitted = 0;
  uint64_t hot_shed = 0;
  double hot_shed_rate = 0.0;
  double hot_p99_ms = 0.0;
  double isolation_ratio_max = 0.0;
  std::vector<TenantQuietRow> rows;
};

void WriteServingJson(double serial_qps, double serial_kl_per_query,
                      const std::vector<ServingRow>& rows,
                      const ChurnSummary& churn,
                      const OracleSummary& oracle_summary,
                      const TenantSummary& tenants) {
  const char* path = "BENCH_serving.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"serving_throughput\",\n");
  // The host record lets the checker scale its expectations: "8 threads must
  // beat serial" is physics on an 8-core box and fiction on a 1-core one.
  // The simd subrecord states which KL kernel variant served the run, so a
  // scalar-host (or forced-scalar) artifact is distinguishable from a SIMD
  // regression.
  std::fprintf(f,
               "  \"host\": {\"hardware_concurrency\": %u, "
               "\"simd\": {\"detected\": \"%s\", \"active\": \"%s\", "
               "\"forced_scalar\": %s}},\n",
               std::thread::hardware_concurrency(),
               inflex::simplex::DetectedSimdName(),
               inflex::simplex::ActiveKernelOps().name,
               inflex::simplex::ActiveKernelsForcedScalar() ? "true" : "false");
  std::fprintf(f, "  \"serial\": {\"qps\": %.0f, \"kl_evaluations_per_query\": %.1f},\n",
               serial_qps, serial_kl_per_query);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServingRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"config\": \"%s\", \"cached\": %s, \"threads\": %zu, "
        "\"qps\": %.0f, \"speedup_vs_serial\": %.2f, \"hit_rate\": %.3f, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"max_ms\": %.4f, \"kl_evaluations_per_query\": %.1f}%s\n",
        r.label.c_str(), r.cached ? "true" : "false", r.threads, r.stats.qps,
        serial_qps > 0.0 ? r.stats.qps / serial_qps : 0.0, r.stats.hit_rate(),
        r.stats.p50_ms, r.stats.p95_ms, r.stats.p99_ms, r.stats.max_ms,
        r.kl_evals_per_query, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"churn\": {\n"
      "    \"deltas_submitted\": %zu, \"admitted\": %llu, "
      "\"burst_generations\": %llu, \"batched_deltas\": %llu,\n"
      "    \"index_points_initial\": %zu, \"index_points_peak\": %zu, "
      "\"decay_sweeps\": %llu, \"points_evicted\": %llu,\n"
      "    \"rows\": [\n",
      churn.deltas_submitted,
      static_cast<unsigned long long>(churn.admitted),
      static_cast<unsigned long long>(churn.burst_generations),
      static_cast<unsigned long long>(churn.batched_deltas),
      churn.index_points_initial, churn.index_points_peak,
      static_cast<unsigned long long>(churn.decay_sweeps),
      static_cast<unsigned long long>(churn.points_evicted));
  for (size_t i = 0; i < churn.phases.size(); ++i) {
    const ChurnPhase& p = churn.phases[i];
    std::fprintf(f,
                 "      {\"phase\": \"%s\", \"generation_swaps\": %llu, "
                 "\"index_points\": %zu, \"points_evicted\": %llu}%s\n",
                 p.phase.c_str(),
                 static_cast<unsigned long long>(p.generation_swaps),
                 p.index_points,
                 static_cast<unsigned long long>(p.points_evicted),
                 i + 1 < churn.phases.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  // The oracle A/B section: admission-time seed precompute per backend.
  // (bench_net_throughput splices `net` in after this section, so it must
  // stay inside the body written here.)
  std::fprintf(f,
               "  \"oracle\": {\n"
               "    \"quick\": %s, \"deltas\": %zu, \"k\": %zu,\n"
               "    \"rows\": [\n",
               oracle_summary.quick ? "true" : "false", oracle_summary.deltas,
               oracle_summary.k);
  for (size_t i = 0; i < oracle_summary.rows.size(); ++i) {
    const OracleRow& r = oracle_summary.rows[i];
    std::fprintf(
        f,
        "      {\"backend\": \"%s\", \"admit_to_publish_mean_ms\": %.3f, "
        "\"admit_to_publish_max_ms\": %.3f, \"precompute_mean_ms\": %.3f, "
        "\"mean_spread\": %.2f, \"quality_vs_celfpp\": %.4f, "
        "\"speedup_vs_celfpp\": %.2f}%s\n",
        r.backend.c_str(), r.admit_to_publish_mean_ms,
        r.admit_to_publish_max_ms, r.precompute_mean_ms, r.mean_spread,
        r.quality_vs_celfpp, r.speedup_vs_celfpp,
        i + 1 < oracle_summary.rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  // The multi-tenant noisy-neighbor section: one hot tenant flooding against
  // its per-tenant budget next to quiet tenants, each quiet tenant's p99
  // under the storm versus served alone. check_bench_json.py gates the
  // isolation ratio (full runs, multi-core hosts).
  std::fprintf(
      f,
      "  \"tenants\": {\n"
      "    \"quick\": %s, \"quiet_tenants\": %zu, "
      "\"isolation_ratio_max\": %.3f,\n"
      "    \"hot\": {\"tenant\": \"hot\", \"budget_qps\": %.0f, "
      "\"attempts\": %zu, \"admitted\": %llu, \"shed\": %llu, "
      "\"shed_rate\": %.4f, \"p99_ms\": %.4f},\n"
      "    \"rows\": [\n",
      tenants.quick ? "true" : "false", tenants.quiet_tenants,
      tenants.isolation_ratio_max, tenants.hot_budget_qps,
      tenants.hot_attempts,
      static_cast<unsigned long long>(tenants.hot_admitted),
      static_cast<unsigned long long>(tenants.hot_shed),
      tenants.hot_shed_rate, tenants.hot_p99_ms);
  for (size_t i = 0; i < tenants.rows.size(); ++i) {
    const TenantQuietRow& r = tenants.rows[i];
    std::fprintf(f,
                 "      {\"tenant\": \"%s\", \"requests\": %zu, "
                 "\"solo_p99_ms\": %.4f, \"storm_p99_ms\": %.4f, "
                 "\"isolation_ratio\": %.3f, \"shed\": %llu}%s\n",
                 r.tenant.c_str(), r.requests, r.solo_p99_ms, r.storm_p99_ms,
                 r.isolation_ratio, static_cast<unsigned long long>(r.shed),
                 i + 1 < tenants.rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Mixtures far (3× the admission threshold, both KL directions) from every
/// index point and from each other: a submitted burst admits in full with no
/// supersede losses, making the coalescing arithmetic of the scenario exact.
std::vector<simplex::TopicDistribution> FarApartMixtures(
    const core::InflexIndex& index, size_t n, double margin, uint64_t seed) {
  Rng rng(seed);
  const size_t dim = index.num_topics();
  std::vector<simplex::TopicDistribution> picked;
  for (int attempt = 0; attempt < 200000 && picked.size() < n; ++attempt) {
    const auto q = simplex::SampleUniformSimplex(dim, &rng);
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
  return picked;
}

/// The churn+decay scenario: a 100-delta catalog burst against a live engine
/// (coalesced publication must cost O(1) generations, not 100), followed by
/// decay sweeps that evict the cold points back down to the floor while
/// serving continues. The phase rows land in BENCH_serving.json so a
/// regression in batching (generations exploding) or eviction (index never
/// shrinking) shows up in the committed artifact.
/// The oracle A/B scenario: a burst of near-corner catalog deltas is fed —
/// one delta at a time, coalescing disabled — through three maintainers
/// that differ only in the spread-oracle backend of the stage-2 precompute.
/// Per backend it reports the admit→publish latency (which the precompute
/// dominates by construction) and the seed quality of the published lists,
/// measured by one common Monte-Carlo referee on each delta's own IC
/// instance and normalized by the CELF++ row. check_bench_json.py gates
/// quality ≥ 0.95× and latency ≥ 10× below CELF++ (full runs).
///
/// The deltas are peaked on a primary topic like real catalog items
/// (the generator draws items from a peaked Dirichlet): a near-corner
/// mixture runs its community's arcs at full per-topic strength, the
/// supercritical regime where cascades are large and a slow precompute
/// actually gates catalog freshness. (Uniform-simplex mixtures would
/// dilute every arc by ~1/num_topics and measure the backends on
/// near-empty cascades instead.) Each corner is also maximally far from
/// the data-driven index points, so the burst admits in full.
OracleSummary RunOracleScenario(const Testbed& tb, bool quick) {
  OracleSummary out;
  out.quick = quick;
  constexpr size_t kSeedK = 10;
  out.k = kSeedK;
  auto initial = std::make_shared<core::InflexIndex>(*tb.index);
  const size_t num_topics = initial->num_topics();
  std::vector<simplex::TopicDistribution> deltas;
  for (size_t i = 0; i < (quick ? size_t{4} : size_t{8}); ++i) {
    const double mass = i % 2 == 0 ? 0.9997 : 0.999;
    std::vector<double> probs(
        num_topics, (1.0 - mass) / static_cast<double>(num_topics - 1));
    probs[i % num_topics] = mass;
    deltas.push_back(
        simplex::TopicDistribution::Create(std::move(probs)).ValueOrDie());
  }
  out.deltas = deltas.size();

  // One referee for every backend: the paper's Monte-Carlo evaluator with a
  // fixed seed, so quality ratios compare seed sets, not estimators.
  im::MonteCarloOptions mc;
  mc.num_simulations = quick ? 300 : 800;
  mc.seed = 4242;
  mc.parallel = false;

  const oracle::OracleBackend backends[] = {oracle::OracleBackend::kCelfPp,
                                            oracle::OracleBackend::kRis};
  std::printf("  %-8s %12s %12s %12s %10s %8s\n", "backend", "admit->pub",
              "max ms", "precomp ms", "spread", "quality");
  for (const oracle::OracleBackend backend : backends) {
    core::QueryEngineOptions eopts;
    eopts.enable_cache = false;
    core::QueryEngine engine(initial, eopts);
    core::IndexMaintainerOptions mopts;
    // Production-shaped precompute: ℓ follows the index (testbed ℓ=50 ranked
    // lists), CELF++ runs at the maintainer's default snapshot count. This
    // is the configuration whose admit→publish latency actually gates
    // catalog freshness, so it is what the A/B compares. --quick shrinks
    // every backend for CI smoke; those numbers are shape-only.
    mopts.seed_list_length = 0;
    // Publish each delta the moment its precompute lands: admit→publish is
    // then queueing + precompute + one-point publish, i.e. the quantity the
    // backends actually differ in.
    mopts.max_batch_delay_ms = 0.0;
    mopts.oracle.backend = backend;
    switch (backend) {
      case oracle::OracleBackend::kCelfPp:
        if (quick) mopts.oracle.num_snapshots = 20;
        break;
      case oracle::OracleBackend::kRis:
        mopts.oracle.num_rr_sets = quick ? 8000 : 30000;
        break;
    }
    core::IndexMaintainer maintainer(initial, &tb.graph(), &engine, mopts);
    for (size_t i = 0; i < deltas.size(); ++i) {
      core::CatalogDelta d;
      d.id = "oracle-" + std::to_string(i);
      d.item = deltas[i];
      const auto receipt = maintainer.SubmitDelta(d);
      INFLEX_CHECK(receipt.ok());
      INFLEX_CHECK(receipt.ValueOrDie().outcome ==
                   core::DeltaOutcome::kAdmitted);
      maintainer.Drain();
    }

    OracleRow row;
    row.backend = oracle::OracleBackendName(backend);
    const auto final_index = maintainer.current();
    for (const auto& item : deltas) {
      // The published point sits exactly at the delta's mixture, so the
      // 1-NN probe recovers the backend's seed list for that delta.
      const auto nn = final_index->tree().ExactKnn(item.probs(), 1).front();
      const rank::RankedList& list = final_index->seed_list(nn.point_id);
      const std::vector<graph::NodeId> seeds(
          list.begin(), list.begin() + std::min(list.size(), kSeedK));
      const auto est = im::EstimateSpread(
          tb.graph(), tb.graph().ItemArcProbabilities(item), seeds, mc);
      INFLEX_CHECK(est.ok());
      row.mean_spread += est.ValueOrDie().mean;
    }
    row.mean_spread /= static_cast<double>(deltas.size());

    const core::ServingStats stats = engine.cumulative_stats();
    row.admit_to_publish_mean_ms = stats.admit_to_publish_mean_ms;
    row.admit_to_publish_max_ms = stats.admit_to_publish_max_ms;
    for (const auto& pre : stats.precompute) {
      if (pre.backend == row.backend) row.precompute_mean_ms = pre.mean_ns() / 1e6;
    }
    if (!out.rows.empty()) {
      const OracleRow& golden = out.rows.front();
      row.quality_vs_celfpp =
          golden.mean_spread > 0.0 ? row.mean_spread / golden.mean_spread : 0.0;
      row.speedup_vs_celfpp =
          row.admit_to_publish_mean_ms > 0.0
              ? golden.admit_to_publish_mean_ms / row.admit_to_publish_mean_ms
              : 0.0;
    } else {
      row.quality_vs_celfpp = 1.0;
      row.speedup_vs_celfpp = 1.0;
    }
    std::printf("  %-8s %12.3f %12.3f %12.3f %10.2f %7.3fx\n",
                row.backend.c_str(), row.admit_to_publish_mean_ms,
                row.admit_to_publish_max_ms, row.precompute_mean_ms,
                row.mean_spread, row.quality_vs_celfpp);
    out.rows.push_back(std::move(row));
  }
  return out;
}

ChurnSummary RunChurnScenario(const Testbed& tb,
                              const std::vector<core::QueryRequest>& trace,
                              bool quick, oracle::OracleBackend churn_backend) {
  ChurnSummary out;
  auto initial = std::make_shared<core::InflexIndex>(*tb.index);
  out.index_points_initial = initial->num_index_points();

  ThreadPool serve_pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &serve_pool;
  eopts.cache.capacity = 4096;
  eopts.cache.num_shards = 16;
  eopts.enable_hit_accounting = true;
  core::QueryEngine engine(initial, eopts);

  constexpr size_t kMaintWorkers = 4;
  ThreadPool maint_pool(kMaintWorkers);
  core::IndexMaintainerOptions mopts;
  mopts.pool = &maint_pool;
  // Scaled-down precompute per admitted point: the scenario measures the
  // publication/eviction machinery, not CELF++ runtime.
  mopts.seed_list_length = quick ? 6 : 10;
  mopts.oracle.num_snapshots = quick ? 4 : 8;
  // The churn scenario exercises the publication/eviction machinery under
  // whichever precompute backend --oracle selects (CI smokes it with ris).
  // Precompute cost is scaled down to match the snapshot counts above: the
  // scenario measures publication, not seed selection.
  mopts.oracle.backend = churn_backend;
  mopts.oracle.num_rr_sets = quick ? 4000 : 12000;
  mopts.max_batch = 32;
  // A wide window: the batch cap and the in-flight gate close it, so the
  // burst drains in ceil(100/32) = 4 generations; the timeout is only a
  // safety valve (a timeout mid-burst would splinter the batch into extra
  // generations, so keep it far above any plausible precompute stall).
  mopts.max_batch_delay_ms = 60'000.0;
  mopts.min_point_age_generations = 1;
  mopts.min_index_points = initial->num_index_points();  // evict churn only
  core::IndexMaintainer maintainer(initial, &tb.graph(), &engine, mopts);

  // Serve a fixed request volume per phase regardless of trace size: the
  // decay/eviction dynamics (hit scores vs the threshold) must match between
  // --quick and full runs, or the quick run's weaker scores keep eviction
  // churning instead of stabilizing.
  const size_t serve_passes = (2048 + trace.size() - 1) / trace.size();
  const auto serve_phase = [&] {
    for (size_t p = 0; p < serve_passes; ++p) engine.QueryBatch(trace);
  };

  const auto snapshot_phase = [&](const char* name) {
    ChurnPhase p;
    p.phase = name;
    p.generation_swaps = engine.cumulative_stats().generation_swaps;
    p.index_points = maintainer.stats().index_points;
    p.points_evicted = maintainer.stats().points_evicted;
    out.phases.push_back(p);
    std::printf("  %-10s %8llu swaps %8zu points %8llu evicted\n", name,
                static_cast<unsigned long long>(p.generation_swaps),
                p.index_points,
                static_cast<unsigned long long>(p.points_evicted));
  };

  // Phase 0: warm serving — the hit accounting learns which index points
  // actually back answers before any churn arrives.
  serve_phase();
  snapshot_phase("warm");

  // Phase 1: the churn burst. 100 far-apart mixtures submitted back-to-back;
  // the publisher's coalescing window folds them into ceil(100/max_batch)
  // generations instead of 100.
  const auto burst =
      FarApartMixtures(*initial, 100, 0.15, tb.config.seed + 9);
  const uint64_t gens_before = maintainer.stats().generations_published;
  // Gate the maintenance workers behind a latch until the whole burst is
  // submitted: the scenario measures how a *concurrent* burst coalesces.
  // Without this, the first delta's (fast) precompute can finish before the
  // second SubmitDelta call even lands, and the publisher — correctly seeing
  // a lone ready delta with nothing in flight — publishes a singleton
  // generation, turning the measurement into a submit-loop race.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  for (size_t w = 0; w < kMaintWorkers; ++w) {
    maint_pool.Submit([&] {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    });
  }
  for (size_t i = 0; i < burst.size(); ++i) {
    core::CatalogDelta d;
    d.id = "churn-" + std::to_string(i);
    d.item = burst[i];
    auto receipt = maintainer.SubmitDelta(d);
    if (receipt.ok() &&
        receipt.ValueOrDie().outcome == core::DeltaOutcome::kAdmitted) {
      ++out.admitted;
    }
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  out.deltas_submitted = burst.size();
  maintainer.Drain();
  out.burst_generations =
      maintainer.stats().generations_published - gens_before;
  out.batched_deltas = maintainer.stats().batched_deltas;
  out.index_points_peak = maintainer.stats().index_points;
  snapshot_phase("burst");

  // Phase 2: decay sweeps under continued serving. The churn points draw no
  // traffic, so their scores stay at zero and the sweeps evict them back to
  // the floor; the index size must stabilize, not keep shrinking. Evicting a
  // point re-routes its traffic to neighbors and shifts their hit scores, so
  // a marginal point can keep slipping under the threshold for a few rounds —
  // sweep until the size repeats (the artifact gate), bounded at 8 rounds.
  size_t prev_points = maintainer.stats().index_points;
  for (int round = 1; round <= 8; ++round) {
    serve_phase();
    maintainer.RequestDecaySweep();
    maintainer.Drain();
    char name[32];
    std::snprintf(name, sizeof(name), "sweep-%d", round);
    snapshot_phase(name);
    const size_t now = out.phases.back().index_points;
    if (round >= 2 && now == prev_points) break;
    prev_points = now;
  }
  out.decay_sweeps = maintainer.stats().decay_sweeps;
  out.points_evicted = maintainer.stats().points_evicted;
  return out;
}

double P99Ms(std::vector<double>* latencies_ms) {
  if (latencies_ms->empty()) return 0.0;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  return (*latencies_ms)[static_cast<size_t>(
      0.99 * static_cast<double>(latencies_ms->size() - 1))];
}

/// The noisy-neighbor scenario: one "hot" tenant floods the shared serving
/// plane from multiple threads while quiet tenants serve their normal
/// traces. The hot tenant's token bucket sheds the flood at the admission
/// layer — a shed costs a bucket probe, not a KL search — so the quiet
/// tenants' tail latency must stay within a small factor of what they see
/// serving alone. Caches are off: every admitted query pays the real search
/// cost, which is exactly the resource the flood would otherwise steal.
TenantSummary RunTenantScenario(const Testbed& tb,
                                const std::vector<core::QueryRequest>& trace,
                                bool quick) {
  TenantSummary out;
  out.quick = quick;
  constexpr size_t kQuiet = 3;
  constexpr size_t kFlooders = 2;
  out.quiet_tenants = kQuiet;
  auto initial = std::make_shared<core::InflexIndex>(*tb.index);

  tenant::TenantRegistry registry;
  tenant::TenantRouter router(&registry);

  const auto make_tenant = [&](const std::string& id,
                               const tenant::TenantBudget& budget) {
    tenant::TenantOptions topts;
    topts.id = id;
    topts.budget = budget;
    topts.engine.enable_cache = false;
    topts.with_maintainer = false;  // query-only: the scenario floods reads
    auto created = registry.CreateTenant(topts, initial, &tb.graph());
    INFLEX_CHECK(created.ok());
    return created.ValueOrDie();
  };

  tenant::TenantBudget hot_budget;
  hot_budget.query_rate_per_sec = 200.0;
  hot_budget.query_burst = 50.0;
  out.hot_budget_qps = hot_budget.query_rate_per_sec;
  const auto hot = make_tenant("hot", hot_budget);
  std::vector<std::shared_ptr<tenant::Tenant>> quiet;
  for (size_t i = 0; i < kQuiet; ++i) {
    quiet.push_back(make_tenant("quiet-" + std::to_string(i),
                                tenant::TenantBudget{}));  // unlimited
  }

  const size_t per_quiet = quick ? 256 : 1024;

  // One quiet tenant's serving loop: route -> query -> record the latency.
  const auto run_quiet = [&](tenant::Tenant* t, std::vector<double>* lat) {
    for (size_t i = 0; i < per_quiet; ++i) {
      const auto& req = trace[i % trace.size()];
      Timer qt;
      auto route = router.RouteQuery(t->id());
      if (route.decision != tenant::RouteDecision::kOk) continue;
      if (route.tenant->engine()->Query(req).ok()) {
        lat->push_back(qt.ElapsedSeconds() * 1e3);
      }
    }
  };

  // The hot tenant's flood loop: hammer until the quiet tenants finish. A
  // shed client honors the retry-after interval instead of spinning (that is
  // what the wire layer tells it to do), so the flood stays a steady
  // thousands-of-attempts-per-second stream, not a busy-wait that measures
  // raw CPU contention.
  std::atomic<bool> storm_done{false};
  const auto run_hot = [&](std::vector<double>* lat, size_t* attempts) {
    size_t i = 0;
    while (!storm_done.load(std::memory_order_relaxed)) {
      const auto& req = trace[i++ % trace.size()];
      ++*attempts;
      auto route = router.RouteQuery("hot");
      if (route.decision != tenant::RouteDecision::kOk) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      Timer qt;
      if (route.tenant->engine()->Query(req).ok()) {
        lat->push_back(qt.ElapsedSeconds() * 1e3);
      }
    }
  };

  // Phase A — solo baseline: the quiet tenants serve concurrently with each
  // other (that is their steady state) but with no hot tenant traffic.
  std::vector<std::vector<double>> solo_lat(kQuiet);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kQuiet; ++i) {
      threads.emplace_back(run_quiet, quiet[i].get(), &solo_lat[i]);
    }
    for (auto& th : threads) th.join();
  }

  // Phase B — the storm: same quiet workload, now next to the flood.
  std::vector<std::vector<double>> storm_lat(kQuiet);
  std::vector<std::vector<double>> hot_lat(kFlooders);
  std::vector<size_t> hot_attempts(kFlooders, 0);
  {
    std::vector<std::thread> flooders;
    for (size_t i = 0; i < kFlooders; ++i) {
      flooders.emplace_back(run_hot, &hot_lat[i], &hot_attempts[i]);
    }
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kQuiet; ++i) {
      threads.emplace_back(run_quiet, quiet[i].get(), &storm_lat[i]);
    }
    for (auto& th : threads) th.join();
    storm_done.store(true, std::memory_order_relaxed);
    for (auto& th : flooders) th.join();
  }

  std::vector<double> hot_all;
  for (size_t i = 0; i < kFlooders; ++i) {
    out.hot_attempts += hot_attempts[i];
    hot_all.insert(hot_all.end(), hot_lat[i].begin(), hot_lat[i].end());
  }
  const tenant::TenantStats hot_stats = hot->Snapshot();
  out.hot_admitted = hot_stats.queries_admitted;
  out.hot_shed = hot_stats.queries_shed;
  out.hot_shed_rate =
      out.hot_attempts > 0
          ? static_cast<double>(out.hot_shed) /
                static_cast<double>(out.hot_attempts)
          : 0.0;
  out.hot_p99_ms = P99Ms(&hot_all);

  std::printf("  %-10s %10s %12s %12s %10s %8s\n", "tenant", "requests",
              "solo p99 ms", "storm p99 ms", "isolation", "shed");
  for (size_t i = 0; i < kQuiet; ++i) {
    TenantQuietRow row;
    row.tenant = quiet[i]->id();
    row.requests = per_quiet;
    row.solo_p99_ms = P99Ms(&solo_lat[i]);
    row.storm_p99_ms = P99Ms(&storm_lat[i]);
    row.isolation_ratio =
        row.solo_p99_ms > 0.0 ? row.storm_p99_ms / row.solo_p99_ms : 0.0;
    row.shed = quiet[i]->Snapshot().queries_shed;
    if (row.isolation_ratio > out.isolation_ratio_max) {
      out.isolation_ratio_max = row.isolation_ratio;
    }
    std::printf("  %-10s %10zu %12.4f %12.4f %9.2fx %8llu\n",
                row.tenant.c_str(), row.requests, row.solo_p99_ms,
                row.storm_p99_ms, row.isolation_ratio,
                static_cast<unsigned long long>(row.shed));
    out.rows.push_back(std::move(row));
  }
  std::printf(
      "  hot: %zu attempts, %llu admitted, %llu shed (%.1f%%), "
      "admitted p99 %.4f ms\n",
      out.hot_attempts, static_cast<unsigned long long>(out.hot_admitted),
      static_cast<unsigned long long>(out.hot_shed),
      100.0 * out.hot_shed_rate, out.hot_p99_ms);
  return out;
}

/// Mean KL evaluations per successfully served request (0 for fully cached
/// batches — cache hits run no search).
double MeanKlEvaluations(const std::vector<Result<core::QueryResult>>& results) {
  size_t ok = 0;
  double total = 0.0;
  for (const auto& r : results) {
    if (!r.ok()) continue;
    ++ok;
    total += static_cast<double>(r.ValueOrDie().search_stats.kl_evaluations);
  }
  return ok > 0 ? total / static_cast<double>(ok) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  oracle::OracleBackend churn_backend = oracle::OracleBackend::kCelfPp;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--oracle=", 9) == 0) {
      auto parsed = oracle::ParseOracleBackend(argv[i] + 9);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 2;
      }
      churn_backend = parsed.ValueOrDie();
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--oracle=celfpp|ris]\n",
                   argv[0]);
      return 2;
    }
  }
  auto tb_r = GetTestbed();
  if (!tb_r.ok()) {
    std::fprintf(stderr, "testbed: %s\n", tb_r.status().ToString().c_str());
    return 1;
  }
  const Testbed& tb = *tb_r.ValueOrDie();
  PrintBanner("Serving throughput — batched parallel queries + sharded cache",
              tb);
  if (quick) std::printf("[--quick] smoke-sized trace; numbers are not comparable\n");

  // --quick keeps every section (the checker still sees the full shape) but
  // shrinks the trace so a CI smoke run finishes in seconds.
  const size_t kUnique = 96;
  const size_t kTotal = quick ? 512 : 2048;
  constexpr size_t kK = 10;
  const auto trace = MakeTrace(tb, kUnique, kTotal, kK);
  if (trace.empty()) {
    std::fprintf(stderr, "failed to build the serving trace\n");
    return 1;
  }

  // Serial baseline: one thread, straight through the index, no cache.
  double serial_qps = 0.0;
  double serial_kl_per_query = 0.0;
  {
    Timer t;
    size_t failed = 0;
    size_t kl_total = 0;
    for (const auto& r : trace) {
      auto result = tb.index->Query(r.item, r.k, r.options);
      if (!result.ok()) {
        ++failed;
      } else {
        kl_total += result.ValueOrDie().search_stats.kl_evaluations;
      }
    }
    const double wall_s = t.ElapsedSeconds();
    serial_qps = static_cast<double>(trace.size()) / wall_s;
    serial_kl_per_query = trace.size() > failed
                              ? static_cast<double>(kl_total) /
                                    static_cast<double>(trace.size() - failed)
                              : 0.0;
    std::printf("serial (no cache, 1 thread): %zu queries in %.1f ms -> "
                "%.0f QPS, %.1f KL evals/query (%zu failed)\n\n",
                trace.size(), wall_s * 1e3, serial_qps, serial_kl_per_query,
                failed);
  }

  std::printf("%-28s %10s %8s %9s %9s %9s %9s %9s %9s\n", "configuration",
              "QPS", "vs serial", "hit rate", "p50 ms", "p95 ms", "p99 ms",
              "max ms", "KL/query");
  std::vector<ServingRow> rows;
  const size_t thread_counts[] = {1, 2, 4, 8};
  for (bool cached : {false, true}) {
    for (size_t threads : thread_counts) {
      ThreadPool pool(threads);
      core::QueryEngineOptions eopts;
      eopts.pool = &pool;
      eopts.enable_cache = cached;
      eopts.cache.capacity = 4096;
      eopts.cache.num_shards = 16;
      core::QueryEngine engine(tb.index.get(), eopts);
      // Warm-up pass (populates the cache for the cached rows), then the
      // measured pass — steady-state serving is what the row reports.
      engine.QueryBatch(trace);
      core::ServingStats stats;
      const auto results = engine.QueryBatch(trace, &stats);
      char label[64];
      std::snprintf(label, sizeof(label), "%s, %zu thread%s",
                    cached ? "cached" : "uncached", threads,
                    threads == 1 ? "" : "s");
      ServingRow row;
      row.label = label;
      row.cached = cached;
      row.threads = threads;
      row.stats = stats;
      row.kl_evals_per_query = MeanKlEvaluations(results);
      rows.push_back(row);
      std::printf(
          "%-28s %10.0f %7.2fx %8.1f%% %9.3f %9.3f %9.3f %9.3f %9.1f\n", label,
          stats.qps, stats.qps / serial_qps, 100.0 * stats.hit_rate(),
          stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.max_ms,
          row.kl_evals_per_query);
    }
  }
  std::printf("\nChurn + decay: 100-delta burst, then eviction sweeps "
              "(oracle: %s)\n",
              oracle::OracleBackendName(churn_backend));
  const ChurnSummary churn = RunChurnScenario(tb, trace, quick, churn_backend);
  std::printf(
      "  burst: %llu/%zu admitted -> %llu generations (%llu coalesced), "
      "index %zu -> %zu; sweeps: %llu evicted, final %zu points\n",
      static_cast<unsigned long long>(churn.admitted), churn.deltas_submitted,
      static_cast<unsigned long long>(churn.burst_generations),
      static_cast<unsigned long long>(churn.batched_deltas),
      churn.index_points_initial, churn.index_points_peak,
      static_cast<unsigned long long>(churn.points_evicted),
      churn.phases.empty() ? 0 : churn.phases.back().index_points);

  std::printf("\nOracle A/B: admission-time precompute per backend\n");
  const OracleSummary oracle_summary = RunOracleScenario(tb, quick);

  std::printf("\nMulti-tenant noisy neighbor: hot tenant flood vs %d quiet "
              "tenants\n", 3);
  const TenantSummary tenant_summary = RunTenantScenario(tb, trace, quick);

  WriteServingJson(serial_qps, serial_kl_per_query, rows, churn,
                   oracle_summary, tenant_summary);

  std::printf(
      "\nShape to expect: uncached QPS grows with threads up to the physical "
      "core count; the cached rows add a ~%zux request-collapse on top "
      "(%zu unique mixtures serve %zu requests), with p50 dropping to the "
      "cache-probe cost. The churn section must show a burst coalescing into "
      "a handful of generations and the decay sweeps returning the index to "
      "its floor.\n",
      kTotal / kUnique, kUnique, kTotal);
  return 0;
}

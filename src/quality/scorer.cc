#include "quality/scorer.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "im/spread_estimator.h"
#include "inflex/index_maintainer.h"
#include "inflex/query_engine.h"
#include "oracle/celfpp_oracle.h"
#include "simplex/divergence.h"

namespace inflex {
namespace quality {
namespace {

/// min_i D_KL(γ_i ‖ γ_item) over `points` — the admission-test geometry
/// (IndexMaintainer::MinDivergence), recomputed here exactly so corpus
/// construction can predict which deltas the maintainer will admit.
double MinDivergenceToPoints(const std::vector<simplex::TopicVector>& points,
                             const simplex::TopicVector& item) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    best = std::min(best, simplex::KlDivergence(p, item));
  }
  return best;
}

std::vector<simplex::TopicVector> IndexPointVectors(
    const core::InflexIndex& index) {
  std::vector<simplex::TopicVector> points;
  points.reserve(index.num_index_points());
  for (uint32_t i = 0; i < index.num_index_points(); ++i) {
    points.push_back(index.index_point(i));
  }
  return points;
}

im::MonteCarloOptions RefereeOptions(const RelevanceCorpus& corpus) {
  im::MonteCarloOptions mc;
  mc.num_simulations = corpus.mc_simulations;
  mc.seed = corpus.mc_seed;
  // Serial: bit-reproducible independent of thread count AND of pool
  // availability, which the determinism contract (DESIGN.md §15) requires.
  mc.parallel = false;
  return mc;
}

/// |answer ∩ golden| / |golden|.
double SeedOverlap(const std::vector<graph::NodeId>& answer,
                   const std::vector<graph::NodeId>& golden) {
  if (golden.empty()) return 0.0;
  size_t hits = 0;
  for (graph::NodeId s : answer) {
    if (std::find(golden.begin(), golden.end(), s) != golden.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(golden.size());
}

std::vector<uint8_t> SegmentMask(const std::vector<graph::NodeId>& segment,
                                 size_t num_users) {
  std::vector<uint8_t> mask;
  if (segment.empty()) return mask;
  mask.assign(num_users, 0);
  for (graph::NodeId n : segment) {
    if (n < num_users) mask[n] = 1;
  }
  return mask;
}

}  // namespace

Result<CorpusWorld> BuildCorpusWorld(const RelevanceCorpus& corpus) {
  const CorpusWorldConfig& w = corpus.world;
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = w.num_users;
  dopts.num_topics = w.num_topics;
  dopts.num_items = w.num_items;
  dopts.avg_degree = w.avg_degree;
  dopts.seed = w.dataset_seed;
  INFLEX_ASSIGN_OR_RETURN(data::SyntheticDataset dataset,
                          data::GenerateSyntheticDataset(dopts));

  CorpusWorld world;
  world.dataset =
      std::make_unique<data::SyntheticDataset>(std::move(dataset));

  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = w.num_index_points;
  bopts.index_points.num_dirichlet_samples = w.dirichlet_samples;
  bopts.seed_list_length = w.seed_list_length;
  bopts.oracle_snapshots = w.oracle_snapshots;
  bopts.seed = w.build_seed;
  INFLEX_ASSIGN_OR_RETURN(
      core::InflexIndex index,
      core::InflexIndex::Build(world.dataset->graph, world.dataset->catalog,
                               bopts));
  world.base_index =
      std::make_shared<const core::InflexIndex>(std::move(index));
  return world;
}

Result<BackendReport> ScoreBackend(
    const CorpusWorld& world, const RelevanceCorpus& corpus,
    oracle::OracleBackend backend,
    std::shared_ptr<const core::InflexIndex> index_override,
    const ScoreBackendHooks& hooks) {
  const CorpusScenarioConfig& sc = corpus.scenario;
  std::shared_ptr<const core::InflexIndex> initial =
      index_override ? std::move(index_override) : world.base_index;
  const size_t base_points = initial->num_index_points();

  BackendReport report;
  report.backend = oracle::OracleBackendName(backend);

  // The serving stack under test: cache + hit accounting, exactly the
  // production wiring — the post-eviction category depends on the cache
  // epoch and the hit scores behaving correctly across the sweep.
  core::QueryEngineOptions eopts;
  eopts.enable_cache = true;
  eopts.enable_hit_accounting = true;
  core::QueryEngine engine(initial, eopts);

  core::IndexMaintainerOptions mopts;
  mopts.admission_threshold = sc.admission_threshold;
  mopts.oracle.num_snapshots = sc.maintainer_snapshots;
  mopts.seed = sc.maintainer_seed;
  mopts.oracle.backend = backend;
  mopts.oracle.num_rr_sets = sc.ris_rr_sets;
  mopts.max_batch_delay_ms = 0.0;  // no coalescing: one publish per delta
  mopts.eviction_score_threshold = sc.eviction_score_threshold;
  mopts.min_point_age_generations = sc.min_point_age_generations;
  mopts.min_index_points = sc.min_index_points;
  core::IndexMaintainer maintainer(initial, &world.graph(), &engine, mopts);

  // --- Scenario phase 1: delta churn. Evict-deltas first (the subsequent
  // churn publications age them past the sweep's grace period), drained
  // one-by-one so tickets, generations, and precompute salts replay
  // identically on every run.
  auto submit = [&](const simplex::TopicDistribution& item,
                    const std::string& id) -> Status {
    core::CatalogDelta delta;
    delta.id = id;
    delta.item = item;
    INFLEX_ASSIGN_OR_RETURN(core::DeltaReceipt receipt,
                            maintainer.SubmitDelta(delta));
    if (receipt.outcome == core::DeltaOutcome::kAdmitted) {
      ++report.deltas_admitted;
    }
    maintainer.Drain();
    return Status::OK();
  };
  for (size_t i = 0; i < sc.evict_deltas.size(); ++i) {
    INFLEX_RETURN_NOT_OK(submit(sc.evict_deltas[i], "evict-" + std::to_string(i)));
  }
  for (size_t i = 0; i < sc.churn_deltas.size(); ++i) {
    INFLEX_RETURN_NOT_OK(submit(sc.churn_deltas[i], "churn-" + std::to_string(i)));
  }

  // --- Scenario phase 2: heat trace. Query the exact mixture of every base
  // point and every churn point (ε-exact ⇒ each query credits precisely its
  // own point), leaving the evict points cold.
  const size_t heat_k = 8;
  for (size_t rep = 0; rep < sc.heat_repetitions; ++rep) {
    auto snapshot = engine.index_snapshot();
    for (uint32_t id = 0; id < base_points; ++id) {
      INFLEX_ASSIGN_OR_RETURN(
          simplex::TopicDistribution item,
          simplex::TopicDistribution::Create(snapshot->index_point(id)));
      core::QueryRequest req;
      req.item = std::move(item);
      req.k = heat_k;
      INFLEX_RETURN_NOT_OK(engine.Query(req).status());
    }
    for (const auto& churn : sc.churn_deltas) {
      core::QueryRequest req;
      req.item = churn;
      req.k = heat_k;
      INFLEX_RETURN_NOT_OK(engine.Query(req).status());
    }
  }

  // --- Scenario phase 3: decay sweep evicts exactly the cold points.
  maintainer.RequestDecaySweep();
  maintainer.Drain();

  const core::MaintenanceStats mstats = maintainer.stats();
  report.points_evicted = mstats.points_evicted;
  report.final_index_points = mstats.index_points;
  const size_t expected_admitted =
      sc.evict_deltas.size() + sc.churn_deltas.size();
  report.scenario_ok =
      report.deltas_admitted == expected_admitted &&
      report.points_evicted == sc.evict_deltas.size() &&
      report.final_index_points == base_points + sc.churn_deltas.size();

  // The scenario is replayed; hand the live stack to the transport seam
  // before any corpus query runs (see ScoreBackendHooks). The guard fires
  // on EVERY exit path below — a transport that wrapped the engine in a
  // server must get to tear it down while the engine is still alive.
  if (hooks.on_scenario_ready) hooks.on_scenario_ready(&engine, &maintainer);
  struct QueriesDoneGuard {
    const ScoreBackendHooks& hooks;
    ~QueriesDoneGuard() {
      if (hooks.on_queries_done) hooks.on_queries_done();
    }
  } queries_done_guard{hooks};

  // --- Corpus queries, serial, through the full serving stack.
  const im::MonteCarloOptions mc = RefereeOptions(corpus);
  std::map<std::string, std::vector<const QueryScore*>> by_category;
  for (const CorpusQuery& q : corpus.queries) {
    core::QueryRequest req;
    req.item = q.item;
    req.k = q.k;
    req.options.segment_mask = SegmentMask(q.segment, world.graph().num_nodes());
    INFLEX_ASSIGN_OR_RETURN(
        core::QueryResult answer,
        hooks.transport ? hooks.transport(req) : engine.Query(req));

    QueryScore score;
    score.id = q.id;
    score.category = q.category;
    score.seeds.assign(answer.seeds.begin(), answer.seeds.end());
    score.epsilon_exact = answer.epsilon_exact;
    score.from_cache = answer.from_cache;
    score.golden_spread = q.golden_spread;

    const graph::ArcProbabilities arc_probs =
        world.graph().ItemArcProbabilities(q.item);
    INFLEX_ASSIGN_OR_RETURN(
        im::SpreadEstimate est,
        im::EstimateSpread(world.graph(), arc_probs, score.seeds, mc));
    score.indexed_spread = est.mean;
    score.spread_ratio =
        q.golden_spread > 0.0 ? score.indexed_spread / q.golden_spread : 0.0;
    score.seed_overlap = SeedOverlap(score.seeds, q.golden_seeds);
    report.queries.push_back(std::move(score));
  }
  for (const QueryScore& s : report.queries) {
    by_category[s.category].push_back(&s);
  }

  // --- Per-category aggregation against the committed floors.
  bool all_passed = true;
  for (const std::string& category : AllCorpusCategories()) {
    auto it = by_category.find(category);
    if (it == by_category.end()) continue;
    const auto& scores = it->second;
    CategoryScore cat;
    cat.category = category;
    cat.num_queries = scores.size();
    cat.min_spread_ratio = std::numeric_limits<double>::infinity();
    for (const QueryScore* s : scores) {
      cat.mean_spread_ratio += s->spread_ratio;
      cat.mean_seed_overlap += s->seed_overlap;
      cat.min_spread_ratio = std::min(cat.min_spread_ratio, s->spread_ratio);
    }
    cat.mean_spread_ratio /= static_cast<double>(scores.size());
    cat.mean_seed_overlap /= static_cast<double>(scores.size());
    INFLEX_ASSIGN_OR_RETURN(cat.threshold, corpus.ThresholdFor(category));
    cat.passed = cat.mean_spread_ratio >= cat.threshold.min_mean_spread_ratio &&
                 cat.min_spread_ratio >= cat.threshold.min_query_spread_ratio &&
                 cat.mean_seed_overlap >= cat.threshold.min_mean_seed_overlap;
    all_passed = all_passed && cat.passed;
    report.categories.push_back(std::move(cat));
  }
  report.passed = report.scenario_ok && all_passed;
  return report;
}

Result<QualityReport> ScoreCorpus(
    const CorpusWorld& world, const RelevanceCorpus& corpus,
    std::span<const oracle::OracleBackend> backends) {
  QualityReport report;
  report.corpus_name = corpus.name;
  report.corpus_version = corpus.version;
  report.passed = true;
  for (oracle::OracleBackend backend : backends) {
    INFLEX_ASSIGN_OR_RETURN(BackendReport b,
                            ScoreBackend(world, corpus, backend));
    report.passed = report.passed && b.passed;
    report.backends.push_back(std::move(b));
  }
  return report;
}

Result<RelevanceCorpus> GenerateCorpus() {
  RelevanceCorpus corpus;
  INFLEX_ASSIGN_OR_RETURN(CorpusWorld world, BuildCorpusWorld(corpus));
  const auto& catalog = world.dataset->catalog;
  const std::vector<simplex::TopicVector> points =
      IndexPointVectors(*world.base_index);

  // KL geometry of every catalog item against the base index. All corpus
  // mixtures are drawn FROM the catalog by this geometry — no RNG — so
  // regeneration is exactly reproducible from the committed world config.
  std::vector<std::pair<double, size_t>> by_distance;  // (min-KL, item)
  by_distance.reserve(catalog.size());
  for (size_t j = 0; j < catalog.size(); ++j) {
    by_distance.emplace_back(
        MinDivergenceToPoints(points, catalog[j].probs()), j);
  }
  std::sort(by_distance.begin(), by_distance.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;  // far first
              return a.second < b.second;
            });

  std::set<size_t> used;
  // Deltas must stay admittable against base ∪ previously-chosen deltas
  // (the maintainer re-tests against the live index at submission).
  std::vector<simplex::TopicVector> chosen_deltas;
  auto pick_deltas = [&](size_t count, double min_base_kl,
                         std::vector<simplex::TopicDistribution>* out) {
    for (const auto& [dist, j] : by_distance) {
      if (out->size() == count) break;
      if (dist <= min_base_kl || used.count(j)) continue;
      if (MinDivergenceToPoints(chosen_deltas, catalog[j].probs()) <=
          corpus.scenario.admission_threshold) {
        continue;
      }
      used.insert(j);
      chosen_deltas.push_back(catalog[j].probs());
      out->push_back(catalog[j]);
    }
  };
  pick_deltas(2, 0.15, &corpus.scenario.evict_deltas);
  pick_deltas(3, 0.15, &corpus.scenario.churn_deltas);
  if (corpus.scenario.evict_deltas.size() != 2 ||
      corpus.scenario.churn_deltas.size() != 3) {
    return Status::Internal(
        "corpus world has too few catalog items far enough from the index "
        "to build the churn scenario");
  }

  auto add_query = [&](const std::string& category, size_t ordinal,
                       const simplex::TopicDistribution& item,
                       std::vector<graph::NodeId> segment = {}) {
    CorpusQuery q;
    q.id = category + "-" + std::to_string(ordinal);
    q.category = category;
    q.item = item;
    q.segment = std::move(segment);
    corpus.queries.push_back(std::move(q));
  };

  // far-from-index: the most distant items that stay distant from the churn
  // points too (those join the index before the corpus queries run).
  size_t far_count = 0;
  for (const auto& [dist, j] : by_distance) {
    if (far_count == 4) break;
    if (dist <= 0.10 || used.count(j)) continue;
    if (MinDivergenceToPoints(chosen_deltas, catalog[j].probs()) <= 0.10) {
      continue;
    }
    used.insert(j);
    add_query(kCategoryFarFromIndex, far_count++, catalog[j]);
  }

  // near-index-point: the closest items that are NOT ε-exact copies of a
  // point — they must exercise retrieval + aggregation, not the shortcut.
  size_t near_count = 0;
  for (auto it = by_distance.rbegin(); it != by_distance.rend(); ++it) {
    if (near_count == 4) break;
    const auto& [dist, j] = *it;
    if (dist <= 1e-4 || used.count(j)) continue;
    if (dist > 0.02) break;  // ascending scan left the near regime
    used.insert(j);
    add_query(kCategoryNearIndexPoint, near_count++, catalog[j]);
  }
  if (near_count < 2) {
    return Status::Internal(
        "corpus world has too few catalog items near the index points");
  }

  // segment-restricted: moderate-distance items, each restricted to the
  // community of its primary topic (where that topic's influencers live, so
  // retrieved seed lists always contain segment members).
  size_t seg_count = 0;
  const auto& community = world.dataset->user_community;
  for (size_t j = 0; j < catalog.size(); ++j) {
    if (seg_count == 3) break;
    if (used.count(j)) continue;
    const double dist = MinDivergenceToPoints(points, catalog[j].probs());
    if (dist < 0.005 || dist > 0.05) continue;
    const auto& probs = catalog[j].probs();
    const uint32_t topic = static_cast<uint32_t>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
    std::vector<graph::NodeId> segment;
    for (graph::NodeId n = 0; n < community.size(); ++n) {
      if (community[n] == topic) segment.push_back(n);
    }
    if (segment.size() < 16) continue;
    used.insert(j);
    add_query(kCategorySegmentRestricted, seg_count++, catalog[j],
              std::move(segment));
  }
  if (seg_count < 2) {
    return Status::Internal("could not assemble segment-restricted queries");
  }

  // post-eviction: the evicted mixtures themselves — after the sweep the
  // index must answer them from surviving neighbors, through a cache whose
  // stale entries reference renumbered points.
  for (size_t i = 0; i < corpus.scenario.evict_deltas.size(); ++i) {
    add_query(kCategoryPostEviction, i, corpus.scenario.evict_deltas[i]);
  }
  // post-delta-churn: the churn mixtures — ε-exact against points whose
  // seed lists came from the backend under test (the one category where the
  // oracle backend is the entire answer).
  for (size_t i = 0; i < corpus.scenario.churn_deltas.size(); ++i) {
    add_query(kCategoryPostDeltaChurn, i, corpus.scenario.churn_deltas[i]);
  }

  // Floors calibrated from the seed report with margin: the healthy
  // pipeline clears them comfortably, a regression in any one regime
  // trips its row. Post-eviction is intrinsically the weakest regime —
  // the index answers an evicted mixture from surviving neighbors, so its
  // ratio floor is lower and seed overlap is not gated at all.
  auto add_threshold = [&](const std::string& category, double mean_ratio,
                           double query_ratio, double overlap) {
    CategoryThreshold t;
    t.category = category;
    t.min_mean_spread_ratio = mean_ratio;
    t.min_query_spread_ratio = query_ratio;
    t.min_mean_seed_overlap = overlap;
    corpus.thresholds.push_back(std::move(t));
  };
  add_threshold(kCategoryNearIndexPoint, 0.95, 0.90, 0.50);
  add_threshold(kCategoryFarFromIndex, 0.92, 0.85, 0.40);
  add_threshold(kCategorySegmentRestricted, 0.92, 0.85, 0.40);
  add_threshold(kCategoryPostEviction, 0.80, 0.70, 0.0);
  add_threshold(kCategoryPostDeltaChurn, 0.92, 0.85, 0.35);

  INFLEX_RETURN_NOT_OK(RegenerateGoldens(world, &corpus));
  return corpus;
}

Status RegenerateGoldens(const CorpusWorld& world, RelevanceCorpus* corpus) {
  const im::MonteCarloOptions mc = RefereeOptions(*corpus);
  for (CorpusQuery& q : corpus->queries) {
    const graph::ArcProbabilities arc_probs =
        world.graph().ItemArcProbabilities(q.item);
    oracle::OfflineImOptions oopts;
    oopts.num_snapshots = corpus->golden_oracle_snapshots;
    oopts.seed = corpus->golden_oracle_seed;
    oopts.selection.candidate_mask =
        SegmentMask(q.segment, world.graph().num_nodes());
    INFLEX_ASSIGN_OR_RETURN(
        im::SeedSelectionResult golden,
        oracle::OfflineTicSeeds(world.graph(), q.item, q.k, oopts));
    q.golden_seeds = std::move(golden.seeds);
    INFLEX_ASSIGN_OR_RETURN(
        im::SpreadEstimate est,
        im::EstimateSpread(world.graph(), arc_probs, q.golden_seeds, mc));
    q.golden_spread = est.mean;
  }
  return Status::OK();
}

JsonValue ReportToJson(const QualityReport& report) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("schema", JsonValue::MakeString("inflex-quality-v1"));
  JsonValue corpus = JsonValue::MakeObject();
  corpus.Set("name", JsonValue::MakeString(report.corpus_name));
  corpus.Set("version",
             JsonValue::MakeNumber(static_cast<double>(report.corpus_version)));
  root.Set("corpus", std::move(corpus));
  root.Set("passed", JsonValue::MakeBool(report.passed));

  JsonValue backends = JsonValue::MakeArray();
  for (const BackendReport& b : report.backends) {
    JsonValue jb = JsonValue::MakeObject();
    jb.Set("backend", JsonValue::MakeString(b.backend));
    jb.Set("passed", JsonValue::MakeBool(b.passed));

    JsonValue scenario = JsonValue::MakeObject();
    scenario.Set("deltas_admitted",
                 JsonValue::MakeNumber(static_cast<double>(b.deltas_admitted)));
    scenario.Set("points_evicted",
                 JsonValue::MakeNumber(static_cast<double>(b.points_evicted)));
    scenario.Set(
        "final_index_points",
        JsonValue::MakeNumber(static_cast<double>(b.final_index_points)));
    scenario.Set("ok", JsonValue::MakeBool(b.scenario_ok));
    jb.Set("scenario", std::move(scenario));

    JsonValue categories = JsonValue::MakeArray();
    for (const CategoryScore& c : b.categories) {
      JsonValue jc = JsonValue::MakeObject();
      jc.Set("category", JsonValue::MakeString(c.category));
      jc.Set("num_queries",
             JsonValue::MakeNumber(static_cast<double>(c.num_queries)));
      jc.Set("mean_spread_ratio", JsonValue::MakeNumber(c.mean_spread_ratio));
      jc.Set("min_spread_ratio", JsonValue::MakeNumber(c.min_spread_ratio));
      jc.Set("mean_seed_overlap", JsonValue::MakeNumber(c.mean_seed_overlap));
      JsonValue jt = JsonValue::MakeObject();
      jt.Set("min_mean_spread_ratio",
             JsonValue::MakeNumber(c.threshold.min_mean_spread_ratio));
      jt.Set("min_query_spread_ratio",
             JsonValue::MakeNumber(c.threshold.min_query_spread_ratio));
      jt.Set("min_mean_seed_overlap",
             JsonValue::MakeNumber(c.threshold.min_mean_seed_overlap));
      jc.Set("thresholds", std::move(jt));
      jc.Set("passed", JsonValue::MakeBool(c.passed));
      categories.Append(std::move(jc));
    }
    jb.Set("categories", std::move(categories));

    JsonValue queries = JsonValue::MakeArray();
    for (const QueryScore& s : b.queries) {
      JsonValue js = JsonValue::MakeObject();
      js.Set("id", JsonValue::MakeString(s.id));
      js.Set("category", JsonValue::MakeString(s.category));
      JsonValue seeds = JsonValue::MakeArray();
      for (graph::NodeId n : s.seeds) {
        seeds.Append(JsonValue::MakeNumber(static_cast<double>(n)));
      }
      js.Set("seeds", std::move(seeds));
      js.Set("indexed_spread", JsonValue::MakeNumber(s.indexed_spread));
      js.Set("golden_spread", JsonValue::MakeNumber(s.golden_spread));
      js.Set("spread_ratio", JsonValue::MakeNumber(s.spread_ratio));
      js.Set("seed_overlap", JsonValue::MakeNumber(s.seed_overlap));
      js.Set("epsilon_exact", JsonValue::MakeBool(s.epsilon_exact));
      js.Set("from_cache", JsonValue::MakeBool(s.from_cache));
      queries.Append(std::move(js));
    }
    jb.Set("queries", std::move(queries));
    backends.Append(std::move(jb));
  }
  root.Set("backends", std::move(backends));
  return root;
}

}  // namespace quality
}  // namespace inflex

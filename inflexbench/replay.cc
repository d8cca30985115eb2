// The traced run's in-process replay: each traced wire query again, through
// the public calls of every layer on its path, timed from outside.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "bbtree/bbtree.h"
#include "inflex/query_engine.h"
#include "inflex/weighting.h"
#include "net/wire.h"
#include "rank/aggregators.h"
#include "workloads.h"

namespace inflexbench {

namespace core = inflex::core;
namespace net = inflex::net;

namespace {

/// The stage-sum reconciliation tolerance: the three layer calls must
/// account for InflexIndex::Query's time within this share.
constexpr double kIndexResidualTolerance = 0.15;

/// Per-layer samples of the replay, one entry per replayed query unless
/// noted.
struct LayerSamples {
  std::vector<double> encode_us, decode_us, bytes;
  std::vector<double> engine_hit_us, engine_miss_overhead_us;
  std::vector<double> index_us, search_us, weighting_us, rank_us;
  double kl_evals = 0, leaves = 0, retrieved = 0, kept = 0, union_items = 0;
  size_t epsilon_exact = 0, aggregated = 0;
};

/// Result of the hand-composed query path and its counts.
struct Composed {
  std::vector<uint32_t> seeds;
  bool epsilon_exact = false;
  inflex::bbtree::SearchStats stats;
  size_t retrieved = 0, kept = 0, union_items = 0;
};

}  // namespace

void RunReplay(World& world, double budget_s, Outcome* out) {
  const std::vector<Generation> generations = world.generations.Snapshot();
  std::unordered_map<uint64_t, std::shared_ptr<const core::InflexIndex>>
      by_epoch;
  for (const Generation& g : generations) by_epoch[g.epoch] = g.index;
  // One replay engine per generation, so each starts with a cold cache like
  // the server's does after a publish.
  std::unordered_map<uint64_t, std::unique_ptr<core::QueryEngine>> engines;

  const core::QueryOptions options;  // the wire's defaults (kInflex)
  inflex::bbtree::InflexSearchOptions search_options = options.search;
  search_options.max_leaves = options.max_leaves;
  inflex::bbtree::SearchContext ctx;

  LayerSamples s;
  SpanLog spans;
  uint64_t mismatched = 0;
  const double start = NowMicros();
  size_t replayed = 0;
  for (const TracedQuery& tq : out->traced) {
    if (replayed >= kReplayQueries || NowMicros() - start > budget_s * 1e6) break;
    auto gen = by_epoch.find(tq.epoch);
    if (gen == by_epoch.end()) {
      ++mismatched;
      continue;
    }
    const core::InflexIndex& index = *gen->second;
    auto& engine = engines[tq.epoch];
    if (engine == nullptr) {
      engine = std::make_unique<core::QueryEngine>(gen->second);
    }
    core::QueryRequest request;
    request.item = tq.item;
    request.k = kQueryK;
    // Mirror the wire's cache state: a query the server answered from its
    // cache is answered from the replay engine's cache too.
    if (tq.from_cache) (void)engine->Query(request);

    const double t_encode = NowMicros();
    const std::vector<uint8_t> request_frame =
        net::EncodeRequestFrame(net::MakeQueryRequest(request));
    const double t_engine = NowMicros();
    auto engine_result = engine->Query(request);
    const double t_index = NowMicros();
    auto index_result = index.Query(request.item, kQueryK, options);
    const double t_compose = NowMicros();

    // BbTree::InflexSearch → weighting → rank::AggregateRankings, composed
    // the way InflexIndex::Query composes them for kInflex.
    Composed c;
    const double t_search = NowMicros();
    inflex::bbtree::InflexSearchResult search =
        index.tree().InflexSearch(request.item.probs(), search_options, &ctx);
    const double t_weighting = NowMicros();
    c.stats = search.stats;
    c.retrieved = search.neighbors.size();
    double t_rank = t_weighting;
    double t_rank_end = t_weighting;
    double t_weighting_end = t_weighting;
    if (search.epsilon_exact) {
      c.epsilon_exact = true;
      const auto& list = index.seed_list(search.neighbors[0].point_id);
      c.seeds.assign(list.begin(),
                     list.begin() + std::min(kQueryK, list.size()));
    } else {
      auto weights = core::ComputeImportanceWeights(search.neighbors,
                                                    options.weighting);
      size_t keep = weights.ok() ? weights.ValueOrDie().size() : 0;
      if (weights.ok() && options.weighting.enable_selection) {
        keep = core::SelectNeighborCount(weights.ValueOrDie(),
                                         options.weighting);
      }
      t_weighting_end = NowMicros();
      std::vector<inflex::rank::RankedList> lists;
      std::vector<double> list_weights;
      for (size_t i = 0; i < keep; ++i) {
        lists.push_back(index.seed_list(search.neighbors[i].point_id));
        list_weights.push_back(weights.ValueOrDie()[i]);
      }
      t_rank = NowMicros();
      auto seeds = inflex::rank::AggregateRankings(lists, list_weights,
                                                   kQueryK, options.aggregation);
      t_rank_end = NowMicros();
      if (seeds.ok()) c.seeds = std::move(seeds).ValueOrDie();
      c.kept = keep;
      std::unordered_set<uint32_t> items;
      for (const auto& l : lists) items.insert(l.begin(), l.end());
      c.union_items = items.size();
    }
    const double t_compose_end = NowMicros();

    net::WireResponse response;
    if (engine_result.ok()) response.seeds = engine_result.ValueOrDie().seeds;
    const std::vector<uint8_t> response_frame =
        net::EncodeResponseFrame(response);
    const double t_decode = NowMicros();
    auto decoded = net::DecodeResponsePayload(std::span<const uint8_t>(
        response_frame.data() + net::kFrameHeaderBytes,
        response_frame.size() - net::kFrameHeaderBytes));
    const double t_end = NowMicros();

    // Checks: the composed path reproduces the index's seeds, the engine
    // agrees with the index, and both equal the wire's answer.
    const bool ok = index_result.ok() && engine_result.ok() && decoded.ok() &&
                    c.seeds == index_result.ValueOrDie().seeds &&
                    engine_result.ValueOrDie().seeds == c.seeds &&
                    HashSeeds(c.seeds) == tq.seeds_hash;
    if (!ok) ++mismatched;

    const uint64_t r = tq.request;
    const uint32_t root = spans.Add(r, 0, "replay", t_encode, t_end);
    spans.Add(r, root, "net.encode", t_encode, t_engine);
    spans.Add(r, root, "engine.query", t_engine, t_index);
    spans.Add(r, root, "index.query", t_index, t_compose);
    const uint32_t compose =
        spans.Add(r, root, "compose", t_compose, t_compose_end);
    spans.Add(r, compose, "bbtree.search", t_search, t_weighting);
    if (!c.epsilon_exact) {
      spans.Add(r, compose, "weighting", t_weighting, t_weighting_end);
      spans.Add(r, compose, "rank.aggregate", t_rank, t_rank_end);
    }
    spans.Add(r, root, "net.decode", t_decode, t_end);

    s.encode_us.push_back(t_engine - t_encode);
    s.decode_us.push_back(t_end - t_decode);
    s.bytes.push_back(
        static_cast<double>(request_frame.size() + response_frame.size()));
    const double engine_us = t_index - t_engine;
    const double index_us = t_compose - t_index;
    if (engine_result.ok() && engine_result.ValueOrDie().from_cache) {
      s.engine_hit_us.push_back(engine_us);
    } else {
      s.engine_miss_overhead_us.push_back(engine_us - index_us);
    }
    s.index_us.push_back(index_us);
    s.search_us.push_back(t_weighting - t_search);
    s.weighting_us.push_back(t_weighting_end - t_weighting);
    s.rank_us.push_back(t_rank_end - t_rank);
    s.kl_evals += static_cast<double>(c.stats.kl_evaluations);
    s.leaves += static_cast<double>(c.stats.leaves_visited);
    if (c.epsilon_exact) {
      ++s.epsilon_exact;
    } else {
      ++s.aggregated;
      s.retrieved += static_cast<double>(c.retrieved);
      s.kept += static_cast<double>(c.kept);
      s.union_items += static_cast<double>(c.union_items);
    }
    ++replayed;
  }

  out->inputs["replayed_queries"] = static_cast<double>(replayed);
  out->mismatched += mismatched;
  out->failed += mismatched;
  if (mismatched > 0) {
    out->Fail("replay: " + std::to_string(mismatched) +
              " queries where the layer composition, the engine, the index "
              "and the wire disagree");
  }
  if (replayed == 0) {
    out->Fail("replay: nothing to replay");
    return;
  }

  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double n = static_cast<double>(replayed);
  const double aggregated = std::max<double>(1.0, s.aggregated);
  auto& pl = out->per_layer;
  auto put = [&pl](const std::string& name, double value, const char* unit) {
    pl[name] = Metric{value, unit};
  };
  put("net.encode_us", Median(s.encode_us), "us");
  put("net.decode_us", Median(s.decode_us), "us");
  put("net.bytes_per_query", sum(s.bytes) / n, "bytes");
  put("cache.hit_us", Median(s.engine_hit_us), "us");
  put("engine.miss_overhead_us", Median(s.engine_miss_overhead_us), "us");
  put("index.query_us_p50", Percentile(s.index_us, 0.5), "us");
  put("index.query_us_p99", Percentile(s.index_us, 0.99), "us");
  put("index.epsilon_exact_share", s.epsilon_exact / n, "ratio");
  put("bbtree.search_us", Median(s.search_us), "us");
  put("bbtree.kl_evals_per_query", s.kl_evals / n, "count");
  put("bbtree.leaves_per_query", s.leaves / n, "count");
  put("weighting.us", Median(s.weighting_us), "us");
  put("weighting.kept_share",
      s.retrieved > 0 ? s.kept / s.retrieved : 0.0, "ratio");
  put("rank.aggregate_us_p50", Percentile(s.rank_us, 0.5), "us");
  put("rank.aggregate_us_p99", Percentile(s.rank_us, 0.99), "us");
  put("rank.lists_per_query", s.kept / aggregated, "count");
  put("rank.union_items_per_query", s.union_items / aggregated, "count");
  const double index_total = sum(s.index_us);
  put("rank.share", index_total > 0 ? sum(s.rank_us) / index_total : 0.0,
      "ratio");
  // Stage sums reconcile: search + weighting + aggregation, each timed as
  // its own call, against the whole InflexIndex::Query. The residual is the
  // index's own glue (validation, gathering the lists) plus timer noise.
  const double stages =
      sum(s.search_us) + sum(s.weighting_us) + sum(s.rank_us);
  const double residual =
      index_total > 0 ? (index_total - stages) / index_total : 0.0;
  put("reconcile.index_residual_share", residual, "ratio");
  out->inputs["index_p99_supported"] =
      SupportsPercentile(s.index_us.size(), 0.99) ? 1.0 : 0.0;
  if (std::abs(residual) > kIndexResidualTolerance) {
    out->Fail("index reconciliation: layer stages leave " +
              std::to_string(residual) + " of InflexIndex::Query unexplained");
  }

  for (const auto& [name, self_us] : SelfTimeByName(spans.spans())) {
    out->inputs["self_us_per_replayed_query." + name] = self_us / n;
  }
  out->spans.Append(spans);
}

}  // namespace inflexbench

#include "quality/corpus.h"

#include <cmath>

#include "quality/json.h"

namespace inflex {
namespace quality {

const std::vector<std::string>& AllCorpusCategories() {
  static const std::vector<std::string> kAll = {
      kCategoryNearIndexPoint, kCategoryFarFromIndex,
      kCategorySegmentRestricted, kCategoryPostEviction,
      kCategoryPostDeltaChurn};
  return kAll;
}

Result<CategoryThreshold> RelevanceCorpus::ThresholdFor(
    const std::string& category) const {
  for (const CategoryThreshold& t : thresholds) {
    if (t.category == category) return t;
  }
  return Status::InvalidArgument("corpus has no threshold for category '" +
                                 category + "'");
}

namespace {

JsonValue MixtureToJson(const simplex::TopicDistribution& d) {
  JsonValue arr = JsonValue::MakeArray();
  for (const double p : d.probs()) arr.Append(JsonValue::MakeNumber(p));
  return arr;
}

Result<simplex::TopicDistribution> MixtureFromJson(const JsonValue& v,
                                                   const std::string& where) {
  if (!v.is_array() || v.array_items().empty()) {
    return Status::InvalidArgument(where + ": expected a mixture array");
  }
  std::vector<double> probs;
  probs.reserve(v.array_items().size());
  for (const JsonValue& p : v.array_items()) {
    if (!p.is_number()) {
      return Status::InvalidArgument(where + ": non-numeric mixture entry");
    }
    probs.push_back(p.number_value());
  }
  auto dist = simplex::TopicDistribution::Create(std::move(probs));
  if (!dist.ok()) {
    return Status::InvalidArgument(where + ": " + dist.status().message());
  }
  return std::move(dist).ValueOrDie();
}

JsonValue NodeListToJson(const std::vector<graph::NodeId>& nodes) {
  JsonValue arr = JsonValue::MakeArray();
  for (const graph::NodeId n : nodes) {
    arr.Append(JsonValue::MakeNumber(static_cast<double>(n)));
  }
  return arr;
}

Result<std::vector<graph::NodeId>> NodeListFromJson(const JsonValue& v,
                                                    const std::string& where) {
  if (!v.is_array()) {
    return Status::InvalidArgument(where + ": expected a node-id array");
  }
  std::vector<graph::NodeId> out;
  out.reserve(v.array_items().size());
  for (const JsonValue& n : v.array_items()) {
    if (!n.is_number() || n.number_value() < 0 ||
        n.number_value() != std::floor(n.number_value())) {
      return Status::InvalidArgument(where + ": non-integral node id");
    }
    out.push_back(static_cast<graph::NodeId>(n.number_value()));
  }
  return out;
}

#define CORPUS_GET_SIZE(obj, field, dest)                 \
  do {                                                    \
    INFLEX_ASSIGN_OR_RETURN(double _v, (obj)->GetNumber(field)); \
    (dest) = static_cast<size_t>(_v);                     \
  } while (false)

#define CORPUS_GET_U64(obj, field, dest)                  \
  do {                                                    \
    INFLEX_ASSIGN_OR_RETURN(double _v, (obj)->GetNumber(field)); \
    (dest) = static_cast<uint64_t>(_v);                   \
  } while (false)

Result<CorpusWorldConfig> WorldFromJson(const JsonValue* w) {
  CorpusWorldConfig c;
  CORPUS_GET_SIZE(w, "num_users", c.num_users);
  CORPUS_GET_SIZE(w, "num_topics", c.num_topics);
  CORPUS_GET_SIZE(w, "num_items", c.num_items);
  INFLEX_ASSIGN_OR_RETURN(c.avg_degree, w->GetNumber("avg_degree"));
  CORPUS_GET_U64(w, "dataset_seed", c.dataset_seed);
  CORPUS_GET_SIZE(w, "num_index_points", c.num_index_points);
  CORPUS_GET_SIZE(w, "seed_list_length", c.seed_list_length);
  CORPUS_GET_SIZE(w, "oracle_snapshots", c.oracle_snapshots);
  CORPUS_GET_SIZE(w, "dirichlet_samples", c.dirichlet_samples);
  CORPUS_GET_U64(w, "build_seed", c.build_seed);
  return c;
}

JsonValue WorldToJson(const CorpusWorldConfig& c) {
  JsonValue w = JsonValue::MakeObject();
  w.Set("num_users", JsonValue::MakeNumber(static_cast<double>(c.num_users)));
  w.Set("num_topics", JsonValue::MakeNumber(static_cast<double>(c.num_topics)));
  w.Set("num_items", JsonValue::MakeNumber(static_cast<double>(c.num_items)));
  w.Set("avg_degree", JsonValue::MakeNumber(c.avg_degree));
  w.Set("dataset_seed",
        JsonValue::MakeNumber(static_cast<double>(c.dataset_seed)));
  w.Set("num_index_points",
        JsonValue::MakeNumber(static_cast<double>(c.num_index_points)));
  w.Set("seed_list_length",
        JsonValue::MakeNumber(static_cast<double>(c.seed_list_length)));
  w.Set("oracle_snapshots",
        JsonValue::MakeNumber(static_cast<double>(c.oracle_snapshots)));
  w.Set("dirichlet_samples",
        JsonValue::MakeNumber(static_cast<double>(c.dirichlet_samples)));
  w.Set("build_seed", JsonValue::MakeNumber(static_cast<double>(c.build_seed)));
  return w;
}

Result<CorpusScenarioConfig> ScenarioFromJson(const JsonValue* s) {
  CorpusScenarioConfig c;
  INFLEX_ASSIGN_OR_RETURN(const JsonValue* evict, s->GetArray("evict_deltas"));
  for (size_t i = 0; i < evict->array_items().size(); ++i) {
    INFLEX_ASSIGN_OR_RETURN(
        simplex::TopicDistribution d,
        MixtureFromJson(evict->array_items()[i],
                        "scenario.evict_deltas[" + std::to_string(i) + "]"));
    c.evict_deltas.push_back(std::move(d));
  }
  INFLEX_ASSIGN_OR_RETURN(const JsonValue* churn, s->GetArray("churn_deltas"));
  for (size_t i = 0; i < churn->array_items().size(); ++i) {
    INFLEX_ASSIGN_OR_RETURN(
        simplex::TopicDistribution d,
        MixtureFromJson(churn->array_items()[i],
                        "scenario.churn_deltas[" + std::to_string(i) + "]"));
    c.churn_deltas.push_back(std::move(d));
  }
  CORPUS_GET_SIZE(s, "heat_repetitions", c.heat_repetitions);
  INFLEX_ASSIGN_OR_RETURN(c.admission_threshold,
                          s->GetNumber("admission_threshold"));
  CORPUS_GET_SIZE(s, "maintainer_snapshots", c.maintainer_snapshots);
  CORPUS_GET_U64(s, "maintainer_seed", c.maintainer_seed);
  CORPUS_GET_SIZE(s, "ris_rr_sets", c.ris_rr_sets);
  INFLEX_ASSIGN_OR_RETURN(c.eviction_score_threshold,
                          s->GetNumber("eviction_score_threshold"));
  CORPUS_GET_SIZE(s, "min_point_age_generations", c.min_point_age_generations);
  CORPUS_GET_SIZE(s, "min_index_points", c.min_index_points);
  return c;
}

JsonValue ScenarioToJson(const CorpusScenarioConfig& c) {
  JsonValue s = JsonValue::MakeObject();
  JsonValue evict = JsonValue::MakeArray();
  for (const auto& d : c.evict_deltas) evict.Append(MixtureToJson(d));
  s.Set("evict_deltas", std::move(evict));
  JsonValue churn = JsonValue::MakeArray();
  for (const auto& d : c.churn_deltas) churn.Append(MixtureToJson(d));
  s.Set("churn_deltas", std::move(churn));
  s.Set("heat_repetitions",
        JsonValue::MakeNumber(static_cast<double>(c.heat_repetitions)));
  s.Set("admission_threshold", JsonValue::MakeNumber(c.admission_threshold));
  s.Set("maintainer_snapshots",
        JsonValue::MakeNumber(static_cast<double>(c.maintainer_snapshots)));
  s.Set("maintainer_seed",
        JsonValue::MakeNumber(static_cast<double>(c.maintainer_seed)));
  s.Set("ris_rr_sets",
        JsonValue::MakeNumber(static_cast<double>(c.ris_rr_sets)));
  s.Set("eviction_score_threshold",
        JsonValue::MakeNumber(c.eviction_score_threshold));
  s.Set("min_point_age_generations",
        JsonValue::MakeNumber(static_cast<double>(c.min_point_age_generations)));
  s.Set("min_index_points",
        JsonValue::MakeNumber(static_cast<double>(c.min_index_points)));
  return s;
}

}  // namespace

Result<RelevanceCorpus> LoadCorpus(const std::string& path) {
  INFLEX_ASSIGN_OR_RETURN(JsonValue doc, LoadJsonFile(path));
  if (!doc.is_object()) {
    return Status::InvalidArgument(path + ": corpus must be a JSON object");
  }
  RelevanceCorpus corpus;
  INFLEX_ASSIGN_OR_RETURN(corpus.name, doc.GetString("name"));
  INFLEX_ASSIGN_OR_RETURN(double version, doc.GetNumber("version"));
  corpus.version = static_cast<int>(version);
  CORPUS_GET_SIZE(&doc, "golden_oracle_snapshots",
                  corpus.golden_oracle_snapshots);
  CORPUS_GET_U64(&doc, "golden_oracle_seed", corpus.golden_oracle_seed);
  CORPUS_GET_SIZE(&doc, "mc_simulations", corpus.mc_simulations);
  CORPUS_GET_U64(&doc, "mc_seed", corpus.mc_seed);

  INFLEX_ASSIGN_OR_RETURN(const JsonValue* world, doc.GetObject("world"));
  INFLEX_ASSIGN_OR_RETURN(corpus.world, WorldFromJson(world));
  INFLEX_ASSIGN_OR_RETURN(const JsonValue* scenario,
                          doc.GetObject("scenario"));
  INFLEX_ASSIGN_OR_RETURN(corpus.scenario, ScenarioFromJson(scenario));

  INFLEX_ASSIGN_OR_RETURN(const JsonValue* thresholds,
                          doc.GetArray("thresholds"));
  for (size_t i = 0; i < thresholds->array_items().size(); ++i) {
    const JsonValue& t = thresholds->array_items()[i];
    const std::string where = "thresholds[" + std::to_string(i) + "]";
    if (!t.is_object()) {
      return Status::InvalidArgument(where + ": expected an object");
    }
    CategoryThreshold row;
    INFLEX_ASSIGN_OR_RETURN(row.category, t.GetString("category"));
    INFLEX_ASSIGN_OR_RETURN(row.min_mean_spread_ratio,
                            t.GetNumber("min_mean_spread_ratio"));
    INFLEX_ASSIGN_OR_RETURN(row.min_query_spread_ratio,
                            t.GetNumber("min_query_spread_ratio"));
    INFLEX_ASSIGN_OR_RETURN(row.min_mean_seed_overlap,
                            t.GetNumber("min_mean_seed_overlap"));
    corpus.thresholds.push_back(std::move(row));
  }

  INFLEX_ASSIGN_OR_RETURN(const JsonValue* queries, doc.GetArray("queries"));
  for (size_t i = 0; i < queries->array_items().size(); ++i) {
    const JsonValue& q = queries->array_items()[i];
    const std::string where = "queries[" + std::to_string(i) + "]";
    if (!q.is_object()) {
      return Status::InvalidArgument(where + ": expected an object");
    }
    CorpusQuery query;
    INFLEX_ASSIGN_OR_RETURN(query.id, q.GetString("id"));
    INFLEX_ASSIGN_OR_RETURN(query.category, q.GetString("category"));
    const JsonValue* item = q.Find("item");
    if (item == nullptr) {
      return Status::InvalidArgument(where + ": missing 'item'");
    }
    INFLEX_ASSIGN_OR_RETURN(query.item,
                            MixtureFromJson(*item, where + ".item"));
    CORPUS_GET_SIZE(&q, "k", query.k);
    if (const JsonValue* seg = q.Find("segment"); seg != nullptr) {
      INFLEX_ASSIGN_OR_RETURN(query.segment,
                              NodeListFromJson(*seg, where + ".segment"));
    }
    const JsonValue* golden = q.Find("golden_seeds");
    if (golden == nullptr) {
      return Status::InvalidArgument(where + ": missing 'golden_seeds'");
    }
    INFLEX_ASSIGN_OR_RETURN(
        query.golden_seeds,
        NodeListFromJson(*golden, where + ".golden_seeds"));
    INFLEX_ASSIGN_OR_RETURN(query.golden_spread,
                            q.GetNumber("golden_spread"));
    corpus.queries.push_back(std::move(query));
  }

  // Every query category must be gated: an ungated category would score but
  // never fail, which is exactly the silent hole the corpus exists to close.
  for (const CorpusQuery& q : corpus.queries) {
    INFLEX_RETURN_NOT_OK(corpus.ThresholdFor(q.category).status());
  }
  return corpus;
}

Status SaveCorpus(const RelevanceCorpus& corpus, const std::string& path) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("name", JsonValue::MakeString(corpus.name));
  doc.Set("version", JsonValue::MakeNumber(corpus.version));
  doc.Set("golden_oracle_snapshots",
          JsonValue::MakeNumber(
              static_cast<double>(corpus.golden_oracle_snapshots)));
  doc.Set("golden_oracle_seed",
          JsonValue::MakeNumber(static_cast<double>(corpus.golden_oracle_seed)));
  doc.Set("mc_simulations",
          JsonValue::MakeNumber(static_cast<double>(corpus.mc_simulations)));
  doc.Set("mc_seed",
          JsonValue::MakeNumber(static_cast<double>(corpus.mc_seed)));
  doc.Set("world", WorldToJson(corpus.world));
  doc.Set("scenario", ScenarioToJson(corpus.scenario));

  JsonValue thresholds = JsonValue::MakeArray();
  for (const CategoryThreshold& t : corpus.thresholds) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("category", JsonValue::MakeString(t.category));
    row.Set("min_mean_spread_ratio",
            JsonValue::MakeNumber(t.min_mean_spread_ratio));
    row.Set("min_query_spread_ratio",
            JsonValue::MakeNumber(t.min_query_spread_ratio));
    row.Set("min_mean_seed_overlap",
            JsonValue::MakeNumber(t.min_mean_seed_overlap));
    thresholds.Append(std::move(row));
  }
  doc.Set("thresholds", std::move(thresholds));

  JsonValue queries = JsonValue::MakeArray();
  for (const CorpusQuery& q : corpus.queries) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("id", JsonValue::MakeString(q.id));
    row.Set("category", JsonValue::MakeString(q.category));
    row.Set("item", MixtureToJson(q.item));
    row.Set("k", JsonValue::MakeNumber(static_cast<double>(q.k)));
    if (!q.segment.empty()) {
      row.Set("segment", NodeListToJson(q.segment));
    }
    row.Set("golden_seeds", NodeListToJson(q.golden_seeds));
    row.Set("golden_spread", JsonValue::MakeNumber(q.golden_spread));
    queries.Append(std::move(row));
  }
  doc.Set("queries", std::move(queries));
  return SaveJsonFile(doc, path);
}

}  // namespace quality
}  // namespace inflex

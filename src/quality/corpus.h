#ifndef INFLEX_QUALITY_CORPUS_H_
#define INFLEX_QUALITY_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/topic_graph.h"
#include "simplex/topic_distribution.h"
#include "util/status.h"

namespace inflex {
namespace quality {

/// Query categories of the golden relevance corpus. Each names one way the
/// indexed (approximate) pipeline can drift from the exact topic-aware IM
/// objective; the CI gate holds a per-category spread-ratio floor so a speed
/// optimization that only hurts one regime still fails loudly (DESIGN.md
/// §15).
inline constexpr const char* kCategoryNearIndexPoint = "near-index-point";
inline constexpr const char* kCategoryFarFromIndex = "far-from-index";
inline constexpr const char* kCategorySegmentRestricted = "segment-restricted";
inline constexpr const char* kCategoryPostEviction = "post-eviction";
inline constexpr const char* kCategoryPostDeltaChurn = "post-delta-churn";

/// All categories, in report order.
const std::vector<std::string>& AllCorpusCategories();

/// \brief Deterministic recipe for the corpus world: the synthetic graph,
/// catalog, and base index every scoring run rebuilds bit-identically from
/// these seeds. Committed with the corpus so the goldens stay meaningful.
struct CorpusWorldConfig {
  size_t num_users = 240;
  size_t num_topics = 4;
  size_t num_items = 400;
  double avg_degree = 8.0;
  uint64_t dataset_seed = 71;
  /// Base-index build (InflexIndex::Build — exact CELF++ per point).
  size_t num_index_points = 20;
  size_t seed_list_length = 12;
  size_t oracle_snapshots = 40;
  size_t dirichlet_samples = 3000;
  uint64_t build_seed = 17;
};

/// \brief The maintenance scenario replayed (per oracle backend) before the
/// corpus queries run: a delta-churn phase grows the index, a heat trace
/// credits every point that should survive, and a decay sweep evicts the
/// deliberately-cold points. This is what makes the post-eviction and
/// post-delta-churn categories exercise a *mutated* index rather than the
/// pristine build.
struct CorpusScenarioConfig {
  /// Deltas admitted first; left cold by the heat trace; evicted by the
  /// sweep. The post-eviction queries sit at these mixtures.
  std::vector<simplex::TopicDistribution> evict_deltas;
  /// Deltas admitted second (they also age the evict points past the sweep's
  /// age gate). The post-delta-churn queries sit at these mixtures.
  std::vector<simplex::TopicDistribution> churn_deltas;
  /// Times the heat trace queries each surviving point's exact mixture.
  size_t heat_repetitions = 2;
  /// Maintainer tuning (admission + sweep rails). The oracle backend itself
  /// is the scorer's axis, not corpus state.
  double admission_threshold = 0.05;
  size_t maintainer_snapshots = 40;
  uint64_t maintainer_seed = 101;
  size_t ris_rr_sets = 20000;
  double eviction_score_threshold = 0.5;
  size_t min_point_age_generations = 2;
  size_t min_index_points = 16;
};

/// \brief One golden query: a topic mixture plus the exact answer. The
/// golden seed set is CELF++ on the query's own IC instance (restricted to
/// `segment` when non-empty) — the paper's offline reference, recomputed
/// only by `tools/score_relevance --regen`.
struct CorpusQuery {
  std::string id;
  std::string category;
  simplex::TopicDistribution item;
  size_t k = 8;
  /// Non-empty only for segment-restricted queries: the node ids eligible
  /// as seeds (becomes QueryOptions::segment_mask and the golden CELF++
  /// candidate mask).
  std::vector<graph::NodeId> segment;
  /// Exact CELF++ seeds for this instance (length k).
  std::vector<graph::NodeId> golden_seeds;
  /// MC-refereed expected spread of golden_seeds (corpus mc_seed /
  /// mc_simulations referee).
  double golden_spread = 0.0;
};

/// \brief Per-category gate floors. A backend passes a category when the
/// mean and worst-query spread ratios and the mean seed overlap all clear
/// their floors.
struct CategoryThreshold {
  std::string category;
  double min_mean_spread_ratio = 0.90;
  double min_query_spread_ratio = 0.80;
  double min_mean_seed_overlap = 0.25;
};

/// \brief The version-controlled golden relevance corpus
/// (tests/corpus/golden_v1.json).
struct RelevanceCorpus {
  std::string name = "golden_v1";
  int version = 1;
  /// Exact-reference oracle behind the goldens (snapshot CELF++).
  size_t golden_oracle_snapshots = 120;
  uint64_t golden_oracle_seed = 20140324;
  /// The shared MC referee (spread-ratio numerator AND denominator).
  size_t mc_simulations = 500;
  uint64_t mc_seed = 4242;
  CorpusWorldConfig world;
  CorpusScenarioConfig scenario;
  std::vector<CategoryThreshold> thresholds;
  std::vector<CorpusQuery> queries;

  /// The floor row for `category` (InvalidArgument when absent — every
  /// category present in `queries` must carry a threshold).
  Result<CategoryThreshold> ThresholdFor(const std::string& category) const;
};

Result<RelevanceCorpus> LoadCorpus(const std::string& path);
Status SaveCorpus(const RelevanceCorpus& corpus, const std::string& path);

}  // namespace quality
}  // namespace inflex

#endif  // INFLEX_QUALITY_CORPUS_H_

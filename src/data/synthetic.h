#ifndef INFLEX_DATA_SYNTHETIC_H_
#define INFLEX_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "graph/topic_graph.h"
#include "simplex/topic_distribution.h"
#include "tic/propagation_log.h"
#include "util/random.h"
#include "util/status.h"

namespace inflex {
namespace data {

/// \brief Parameters of the synthetic Flixster-equivalent dataset.
///
/// The paper's evaluation uses the Flixster social-movie dataset (~30k
/// users, 425k directed links, 12k items with a rating log); that download
/// is unavailable offline, so this generator synthesizes a dataset with the
/// same *structure* (see DESIGN.md §3):
///  - a directed social graph with power-law influence (a few authorities
///    with many outgoing arcs) organized into one community per topic;
///  - ground-truth per-topic arc probabilities that are strong inside a
///    topic's community and weak elsewhere — so WHO is influential depends
///    on the topic, the property the whole paper rests on;
///  - an item catalog drawn from a peaked Dirichlet mixture (items
///    concentrate on a primary topic, as LDA-style learning produces);
///  - a propagation log obtained by actually running TIC cascades of the
///    catalog items, from which TIC parameters can be re-learned exactly as
///    in the paper's pipeline (Figure 1).
struct SyntheticDatasetOptions {
  size_t num_users = 2000;
  size_t num_topics = 10;
  size_t num_items = 3000;
  /// Expected in-degree (≈ arcs per user).
  double avg_degree = 8.0;
  /// Probability that a link stays inside the user's community.
  double intra_community_fraction = 0.8;
  /// Pareto shape of the authority (out-degree) distribution.
  double authority_exponent = 4.0;
  /// Per-topic arc probability on a community-matching arc: drawn uniformly
  /// from [strong_prob_lo, strong_prob_hi], scaled by source authority.
  /// The defaults keep cascades below community saturation so that
  /// topic-aware seeding has room to beat topic-blind seeding (the paper's
  /// Figure 8 gap); raising them saturates small communities and shrinks
  /// that gap.
  double strong_prob_lo = 0.05;
  double strong_prob_hi = 0.22;
  /// Background probability on non-matching topics: [weak_lo, weak_hi].
  double weak_prob_lo = 0.0005;
  double weak_prob_hi = 0.005;
  /// Fraction of users that are "generalists": they exert a moderate,
  /// flat influence on EVERY topic (news-aggregator style) instead of a
  /// strong influence on one. Under a uniform topic mixture a generalist
  /// arc (≈ scale × strong) beats a specialist arc (≈ strong / Z), so a
  /// topic-blind seeder gravitates to generalists — and then underperforms
  /// on topical items, reproducing the paper's offline-IC collapse
  /// (Figure 8: less than half the TIC spread).
  double generalist_fraction = 0.25;
  /// Generalists' per-topic probability as a fraction of the strong range.
  double generalist_prob_scale = 0.25;
  /// Dirichlet concentration of an item's primary topic and of the rest.
  double item_primary_alpha = 4.0;
  double item_background_alpha = 0.25;
  /// TIC cascades recorded in the log for every catalog item. The paper's
  /// Flixster log is enormous (millions of ratings); several cascades per
  /// item keep the EM learner's signal comparable at synthetic scale.
  size_t cascades_per_item = 4;
  /// Seeds per recorded cascade.
  size_t seeds_per_cascade = 4;
  uint64_t seed = 2024;
};

/// \brief The generated dataset: the three inputs of Figure 1.
struct SyntheticDataset {
  /// Social graph carrying the ground-truth per-topic probabilities.
  graph::TopicGraph graph;
  /// Ground-truth item-topic distributions (the "catalog" I).
  std::vector<simplex::TopicDistribution> catalog;
  /// Simulated propagation traces.
  tic::PropagationLog log{1, 1};
  /// Community (primary topic) of every user — kept for diagnostics.
  std::vector<uint32_t> user_community;
};

/// Generates a dataset. Fails on degenerate parameter combinations
/// (zero users/topics/items, probability ranges outside (0,1), …).
Result<SyntheticDataset> GenerateSyntheticDataset(
    const SyntheticDatasetOptions& options);

/// The log stage of GenerateSyntheticDataset, which calls it with its own
/// generator: for every catalog item in order, `cascades_per_item` TIC
/// cascades on the item's Eq. 1 instance, each from `seeds_per_cascade`
/// seeds drawn uniformly (with repeats) from the community of the item's
/// largest topic. Cascade c's activations get timestamps c·10⁶, c·10⁶ + 1, …
/// in activation order. The log is finalized. Fails when `user_community`
/// does not give every node a community below num_topics(), when an item's
/// dimension differs from the graph's, or when an item's primary community
/// is empty.
Result<tic::PropagationLog> SimulatePropagationLog(
    const graph::TopicGraph& g,
    const std::vector<simplex::TopicDistribution>& catalog,
    const std::vector<uint32_t>& user_community, size_t cascades_per_item,
    size_t seeds_per_cascade, Rng* rng);

}  // namespace data
}  // namespace inflex

#endif  // INFLEX_DATA_SYNTHETIC_H_

#ifndef INFLEX_INFLEX_INFLEX_INDEX_H_
#define INFLEX_INFLEX_INFLEX_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bbtree/bbtree.h"
#include "graph/topic_graph.h"
#include "inflex/index_points.h"
#include "inflex/weighting.h"
#include "rank/aggregators.h"
#include "util/shared_base_vector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace inflex {
namespace core {

/// Query-evaluation strategies: INFLEX proper plus the retrieval baselines
/// the paper compares in Figures 6-9.
enum class QueryStrategy {
  /// Algorithm 1 search (ε-exact + AD early stop + pruning) followed by
  /// automatic neighbor selection and weighted aggregation.
  kInflex,
  /// Exact K-NN (a linear scan), weighted aggregation, no selection.
  kExactKnn,
  /// Leaf-bounded approximate K-NN, weighted aggregation, no selection.
  kApproxKnn,
  /// Leaf-bounded approximate K-NN + automatic neighbor selection.
  kApproxKnnSel,
  /// AD-early-stopped search without the neighbor-selection step.
  kApproxAd,
};

const char* QueryStrategyName(QueryStrategy s);

/// Sentinel in RemoveIndexPoints' old→new id remap for ids that were dropped.
inline constexpr uint32_t kDroppedIndexPoint = UINT32_MAX;

/// \brief Options governing one TIM query evaluation.
struct QueryOptions {
  QueryStrategy strategy = QueryStrategy::kInflex;
  /// K of the K-NN-based strategies (the paper found K = 10 best).
  size_t knn_k = 10;
  /// Leaf budget of the approximate strategies (paper: 5).
  size_t max_leaves = 5;
  /// Algorithm 1 parameters (ε-exact threshold, AD confidence, pruning).
  bbtree::InflexSearchOptions search;
  /// Importance weighting + automatic neighbor selection.
  WeightingOptions weighting;
  /// Rank-aggregation configuration (default: weighted Copeland with Local
  /// Kemenization — the best setting in Table 1).
  rank::AggregationOptions aggregation;
  /// Segment-targeted campaigns (the paper's §6 future-work query type):
  /// when non-empty, one entry per node; only nodes with a non-zero entry
  /// may appear in the answer. Pre-computed seed lists are filtered to the
  /// segment before aggregation, so the ranking among segment members is
  /// preserved. Queries whose retrieved lists contain no segment member
  /// fail with NotFound.
  std::vector<uint8_t> segment_mask;
};

/// \brief Outcome of one TIM query.
struct QueryResult {
  /// The aggregated ranked seed list (size ≤ k; can exceed ℓ when the union
  /// of retrieved lists is large enough).
  rank::RankedList seeds;
  /// True when the ε-exact shortcut answered the query from a single list.
  bool epsilon_exact = false;
  /// Neighbors that entered the aggregation, closest first.
  std::vector<bbtree::Neighbor> neighbors_used;
  /// Their importance weights (empty for an ε-exact answer).
  std::vector<double> weights;
  /// Retrieved-but-discarded count (automatic selection).
  size_t neighbors_discarded = 0;
  bbtree::SearchStats search_stats;
  double similarity_search_ms = 0.0;
  double aggregation_ms = 0.0;
  double total_ms = 0.0;
  /// True when this answer was served from a QueryCache without running the
  /// index. Per-stage timings and search_stats are zero in that case — the
  /// stages did not run; only total_ms reflects the (cached) serving cost.
  bool from_cache = false;
  /// Epoch of the index generation this answer was computed against (set by
  /// the serving layer; 0 when querying an InflexIndex directly). Under live
  /// maintenance an answer is reproducible only against its own generation.
  uint64_t generation = 0;
};

/// \brief Options for building an INFLEX index.
struct InflexBuildOptions {
  IndexPointOptions index_points;
  /// ℓ — length of each pre-computed seed list (paper: 50).
  size_t seed_list_length = 50;
  /// Live-edge snapshots behind each seed-list precomputation.
  size_t oracle_snapshots = 150;
  bbtree::BbTreeOptions tree;
  uint64_t seed = 17;
  ThreadPool* pool = nullptr;
};

/// \brief The INFLEX index (Figure 2): h index points on the topic simplex,
/// their pre-computed CELF++ seed lists, and a Bregman ball tree over the
/// points for similarity search. Holds a pointer to the social graph it was
/// built for (the graph must outlive the index); the graph is not consulted
/// at query time — queries touch only the index, which is what makes
/// millisecond answers possible. An index is a value: a copy shares the seed
/// lists and the tree's storage with its source (both are copy-on-write) and
/// allocates only what it then changes, so the two evolve independently.
class InflexIndex {
 public:
  /// Builds the full index from a graph and an item catalog: index-point
  /// selection (§3.1), per-point seed precompute (oracle::OfflineTicSeeds),
  /// bb-tree (§3.2).
  /// This is the paper's heavy offline phase. On glibc it ends with one
  /// `malloc_trim(0)`, which returns the phase's freed heap to the system
  /// before serving.
  static Result<InflexIndex> Build(const graph::TopicGraph& graph,
                                   const std::vector<simplex::TopicDistribution>& catalog,
                                   const InflexBuildOptions& options = {});

  /// Builds an index from externally supplied points and seed lists (used by
  /// tests and by Load()).
  static Result<InflexIndex> FromParts(const graph::TopicGraph* graph,
                                       std::vector<simplex::TopicVector> points,
                                       std::vector<rank::RankedList> seed_lists,
                                       const bbtree::BbTreeOptions& tree_options);

  /// Answers the TIM query Q(γ_q, k) (§4). Fails on dimension mismatch,
  /// k = 0, or an empty retrieval.
  Result<QueryResult> Query(const simplex::TopicDistribution& item, size_t k,
                            const QueryOptions& options = {}) const;

  size_t num_index_points() const { return seed_lists_.size(); }
  size_t seed_list_length() const { return seed_list_length_; }
  size_t num_topics() const { return tree_.dim(); }
  const bbtree::BbTree& tree() const { return tree_; }
  const rank::RankedList& seed_list(uint32_t point_id) const {
    return *seed_lists_[point_id];
  }
  /// A copy of the index point (the tree stores points in a flat SoA buffer,
  /// so there is no long-lived TopicVector to reference).
  simplex::TopicVector index_point(uint32_t point_id) const {
    return tree_.point(point_id);
  }

  /// Adds one index point online (a newly catalogued item with its
  /// pre-computed seed list) without rebuilding the ball tree: the point is
  /// inserted incrementally into the tree (O(depth), conservative ball
  /// enlargement — every search stays sound and finds it immediately).
  /// Inserts degrade the tree's partition quality; watch
  /// tree().degradation() and call Compact() for a full §3.2 rebuild once
  /// it crosses your budget. Fails on dimension mismatch, an invalid list,
  /// or (when a graph is attached) out-of-range node ids.
  Status AddIndexPoint(const simplex::TopicDistribution& item,
                       rank::RankedList seed_list);

  /// Drops the given index points (and their seed lists) without rebuilding
  /// the tree: rows are physically compacted and surviving ids densely
  /// renumbered in order (see BbTree::RemovePoints). When `old_to_new` is
  /// non-null it receives the id remap — old_to_new[old_id] is the
  /// survivor's new id, or kDroppedIndexPoint for removed ids — which the
  /// serving layer threads through generation publishes so hit accounting
  /// and admitted-item registries follow the renumbering. Fails (without
  /// mutating) on out-of-range ids or when the removal would empty the
  /// index. Removals count toward tree().degradation(); Compact() restores
  /// a fresh partition.
  Status RemoveIndexPoints(std::span<const uint32_t> ids,
                           std::vector<uint32_t>* old_to_new = nullptr);

  /// Rebuilds the ball tree from scratch over all points (the §3.2 offline
  /// construction), restoring tree().degradation() to 0. Point ids are
  /// preserved (ids are positions in the point set, which rebuilding keeps).
  /// A no-op when the tree has seen neither inserts nor removals since the
  /// last build.
  Status Compact(const bbtree::BbTreeOptions& tree_options = {});

  /// Number of points added online since the last full (re)build.
  size_t overflow_size() const { return tree_.num_inserted(); }

  /// Persists points + seed lists (the tree is rebuilt on load; any
  /// online-inserted points are folded in).
  Status Save(const std::string& path) const;

  /// Loads an index saved by Save(). `graph` may be nullptr — it is only
  /// used for invariant checks against node ids.
  static Result<InflexIndex> Load(const std::string& path,
                                  const graph::TopicGraph* graph,
                                  const bbtree::BbTreeOptions& tree_options = {});

 private:
  InflexIndex() = default;

  /// Retrieval stage of Query() per strategy.
  bbtree::InflexSearchResult RunSearch(const simplex::TopicVector& q,
                                       const QueryOptions& options) const;

  const graph::TopicGraph* graph_ = nullptr;  // may be null after Load
  bbtree::BbTree tree_;
  // Aligned with tree point ids. A list never changes once made, and the
  // pointers to the built lists are one block shared by every copy of the
  // index (a new generation), which copies only the pointers AddIndexPoint
  // appended since. RemoveIndexPoints and Compact write a fresh block.
  util::SharedBaseVector<std::shared_ptr<const rank::RankedList>> seed_lists_;
  size_t seed_list_length_ = 0;
};

}  // namespace core
}  // namespace inflex

#endif  // INFLEX_INFLEX_INFLEX_INDEX_H_

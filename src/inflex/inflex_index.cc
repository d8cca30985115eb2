#include "inflex/inflex_index.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "oracle/celfpp_oracle.h"
#include "simplex/topic_distribution.h"
#include "util/check.h"
#include "util/heap.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace inflex {
namespace core {

namespace {
constexpr uint32_t kIndexMagic = 0x494e4658;  // "INFX"
constexpr uint32_t kIndexVersion = 1;
}  // namespace

const char* QueryStrategyName(QueryStrategy s) {
  switch (s) {
    case QueryStrategy::kInflex:
      return "INFLEX";
    case QueryStrategy::kExactKnn:
      return "exactKNN";
    case QueryStrategy::kApproxKnn:
      return "approxKNN";
    case QueryStrategy::kApproxKnnSel:
      return "approxKNN+Sel";
    case QueryStrategy::kApproxAd:
      return "approxAD";
  }
  return "?";
}

namespace {

// Phases 1 and 2 of the offline phase and the bb-tree (§3); every transient
// they allocate is freed by the time this returns.
Result<InflexIndex> BuildParts(
    const graph::TopicGraph& graph,
    const std::vector<simplex::TopicDistribution>& catalog,
    const InflexBuildOptions& options) {
  // Phase 1 (§3.1): select the h index points.
  INFLEX_ASSIGN_OR_RETURN(IndexPointSelection selection,
                          SelectIndexPoints(catalog, options.index_points));
  // Only the points are read from here on. The Dirichlet sample they were
  // clustered from is freed, and it goes back to the system with the
  // k-means transients below, before the seed lists allocate in the pool
  // threads' arenas, where it could not be reused.
  std::vector<simplex::TopicVector>().swap(selection.samples);
  const size_t h = selection.points.size();
  INFLEX_LOG(Info) << "INFLEX build: " << h << " index points selected, "
                   << "precomputing seed lists (l=" << options.seed_list_length
                   << ", " << options.oracle_snapshots << " snapshots each)";
  util::ReleaseFreedHeap("INFLEX build, before the seed lists");

  // Phase 2: one CELF run per index point — the heavy offline stage, so
  // it is parallelized across points (each task owns its oracle).
  std::vector<rank::RankedList> seed_lists(h);
  std::vector<Status> statuses(h);
  ParallelFor(
      0, h,
      [&](size_t i) {
        auto item = simplex::TopicDistribution::Create(selection.points[i]);
        if (!item.ok()) {
          statuses[i] = item.status();
          return;
        }
        oracle::OfflineImOptions oopts;
        oopts.num_snapshots = options.oracle_snapshots;
        oopts.seed = options.seed + i;
        // The outer loop already spreads the points across the pool, so
        // each selection stays serial.
        oopts.selection.parallel_first_iteration = false;
        auto seeds = oracle::OfflineTicSeeds(
            graph, item.ValueOrDie(), options.seed_list_length, oopts);
        if (!seeds.ok()) {
          statuses[i] = seeds.status();
          return;
        }
        seed_lists[i].assign(seeds.ValueOrDie().seeds.begin(),
                             seeds.ValueOrDie().seeds.end());
      },
      options.pool);
  for (const Status& s : statuses) {
    INFLEX_RETURN_NOT_OK(s);
  }

  return InflexIndex::FromParts(&graph, std::move(selection.points),
                                std::move(seed_lists), options.tree);
}

}  // namespace

Result<InflexIndex> InflexIndex::Build(
    const graph::TopicGraph& graph,
    const std::vector<simplex::TopicDistribution>& catalog,
    const InflexBuildOptions& options) {
  if (catalog.empty()) {
    return Status::InvalidArgument("INFLEX build requires an item catalog");
  }
  if (catalog.front().num_topics() != graph.num_topics()) {
    return Status::InvalidArgument("catalog dimension does not match graph");
  }
  if (options.seed_list_length == 0) {
    return Status::InvalidArgument("seed_list_length must be positive");
  }
  if (options.seed_list_length > graph.num_nodes()) {
    return Status::InvalidArgument("seed_list_length exceeds node count");
  }

  // Freed memory stays resident under glibc (its dynamic mmap threshold
  // sends large buffers to the arenas after the first one is freed), so
  // each stage boundary hands it back before the next stage allocates
  // (DESIGN.md "Offline-phase memory"): here the caller's dataset or loader
  // staging, in BuildParts the index-point stage's, and at the end the
  // seed lists' and the bb-tree's, before serving.
  util::ReleaseFreedHeap("INFLEX build, before the index points");
  Result<InflexIndex> index = BuildParts(graph, catalog, options);
  util::ReleaseFreedHeap("INFLEX build, after the bb-tree");
  return index;
}

Result<InflexIndex> InflexIndex::FromParts(
    const graph::TopicGraph* graph, std::vector<simplex::TopicVector> points,
    std::vector<rank::RankedList> seed_lists,
    const bbtree::BbTreeOptions& tree_options) {
  if (points.size() != seed_lists.size()) {
    return Status::InvalidArgument("one seed list per index point expected");
  }
  if (points.empty()) {
    return Status::InvalidArgument("index requires at least one point");
  }
  size_t ell = 0;
  for (const auto& list : seed_lists) {
    if (list.empty()) {
      return Status::InvalidArgument("empty pre-computed seed list");
    }
    INFLEX_RETURN_NOT_OK(rank::ValidateRankedList(list));
    if (graph != nullptr) {
      for (rank::Item v : list) {
        if (v >= graph->num_nodes()) {
          return Status::InvalidArgument("seed list references unknown node");
        }
      }
    }
    ell = std::max(ell, list.size());
  }

  InflexIndex index;
  index.graph_ = graph;
  index.seed_list_length_ = ell;
  std::vector<std::shared_ptr<const rank::RankedList>> lists;
  lists.reserve(seed_lists.size());
  for (rank::RankedList& list : seed_lists) {
    lists.push_back(std::make_shared<const rank::RankedList>(std::move(list)));
  }
  index.seed_lists_ = decltype(index.seed_lists_)(std::move(lists));
  INFLEX_ASSIGN_OR_RETURN(index.tree_,
                          bbtree::BbTree::Build(std::move(points),
                                                tree_options));
  return index;
}

bbtree::InflexSearchResult InflexIndex::RunSearch(
    const simplex::TopicVector& q, const QueryOptions& options) const {
  // One search context per serving thread: the per-query log transform and
  // all tree-search scratch reuse its buffers, so steady-state queries do
  // not allocate in the search stage.
  thread_local bbtree::SearchContext ctx;
  switch (options.strategy) {
    case QueryStrategy::kInflex: {
      bbtree::InflexSearchOptions sopts = options.search;
      sopts.max_leaves = options.max_leaves;
      return tree_.InflexSearch(q, sopts, &ctx);
    }
    case QueryStrategy::kExactKnn: {
      bbtree::InflexSearchResult r;
      r.neighbors = tree_.ExactKnn(q, options.knn_k, &r.stats, &ctx);
      return r;
    }
    case QueryStrategy::kApproxKnn:
    case QueryStrategy::kApproxKnnSel: {
      bbtree::InflexSearchResult r;
      r.neighbors = tree_.LeafBoundedKnn(q, options.knn_k, options.max_leaves,
                                         &r.stats, &ctx);
      return r;
    }
    case QueryStrategy::kApproxAd: {
      bbtree::InflexSearchOptions sopts = options.search;
      sopts.max_leaves = options.max_leaves;
      sopts.use_ad_early_stop = true;
      return tree_.InflexSearch(q, sopts, &ctx);
    }
  }
  INFLEX_CHECK(false);
  return {};
}

namespace {

// Restricts a seed list to the campaign segment, preserving rank order.
rank::RankedList FilterToSegment(const rank::RankedList& list,
                                 const std::vector<uint8_t>& mask) {
  if (mask.empty()) return list;
  rank::RankedList out;
  out.reserve(list.size());
  for (rank::Item v : list) {
    if (v < mask.size() && mask[v] != 0) out.push_back(v);
  }
  return out;
}

}  // namespace

Result<QueryResult> InflexIndex::Query(const simplex::TopicDistribution& item,
                                       size_t k,
                                       const QueryOptions& options) const {
  if (item.num_topics() != num_topics()) {
    return Status::InvalidArgument("query dimension does not match the index");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (!options.segment_mask.empty() && graph_ != nullptr &&
      options.segment_mask.size() != graph_->num_nodes()) {
    return Status::InvalidArgument("segment mask must have one entry per node");
  }

  Timer total_timer;
  QueryResult result;

  // Stage 1: similarity search (§4.1).
  Timer search_timer;
  bbtree::InflexSearchResult search = RunSearch(item.probs(), options);
  result.similarity_search_ms = search_timer.ElapsedMillis();
  result.search_stats = search.stats;

  if (search.neighbors.empty()) {
    return Status::Internal("similarity search returned no neighbors");
  }

  if (search.epsilon_exact) {
    // ε-exact match: return the stored list directly, truncated to k (it is
    // copied whole only when a segment mask has to filter it).
    const rank::RankedList& stored = seed_list(search.neighbors[0].point_id);
    rank::RankedList filtered;
    if (!options.segment_mask.empty()) {
      filtered = FilterToSegment(stored, options.segment_mask);
    }
    const rank::RankedList& list =
        options.segment_mask.empty() ? stored : filtered;
    if (list.empty()) {
      return Status::NotFound(
          "the matched seed list contains no segment member");
    }
    result.epsilon_exact = true;
    result.neighbors_used = search.neighbors;
    result.seeds.assign(list.begin(),
                        list.begin() + std::min(k, list.size()));
    result.total_ms = total_timer.ElapsedMillis();
    return result;
  }

  // Stage 2: importance weights + automatic neighbor selection (§4.2).
  Timer agg_timer;
  INFLEX_ASSIGN_OR_RETURN(
      std::vector<double> weights,
      ComputeImportanceWeights(search.neighbors, options.weighting));
  size_t keep = weights.size();
  const bool selection_enabled =
      options.strategy == QueryStrategy::kInflex ||
      options.strategy == QueryStrategy::kApproxKnnSel;
  if (selection_enabled && options.weighting.enable_selection) {
    keep = SelectNeighborCount(weights, options.weighting);
  }
  result.neighbors_discarded = search.neighbors.size() - keep;
  result.neighbors_used.assign(search.neighbors.begin(),
                               search.neighbors.begin() + keep);
  weights.resize(keep);
  result.weights = weights;

  // Stage 3: weighted rank aggregation of the retained seed lists
  // (segment-filtered first; empty filtered lists drop out together with
  // their weights).
  std::vector<rank::RankedList> lists;
  std::vector<double> list_weights;
  lists.reserve(keep);
  list_weights.reserve(keep);
  for (size_t i = 0; i < result.neighbors_used.size(); ++i) {
    rank::RankedList filtered = FilterToSegment(
        seed_list(result.neighbors_used[i].point_id), options.segment_mask);
    if (filtered.empty()) continue;
    lists.push_back(std::move(filtered));
    list_weights.push_back(weights[i]);
  }
  if (lists.empty()) {
    return Status::NotFound(
        "no retrieved seed list contains a segment member");
  }
  INFLEX_ASSIGN_OR_RETURN(
      result.seeds,
      rank::AggregateRankings(lists, list_weights, k, options.aggregation));
  result.aggregation_ms = agg_timer.ElapsedMillis();
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

Status InflexIndex::AddIndexPoint(const simplex::TopicDistribution& item,
                                  rank::RankedList seed_list) {
  if (item.num_topics() != num_topics()) {
    return Status::InvalidArgument("item dimension does not match the index");
  }
  if (seed_list.empty()) {
    return Status::InvalidArgument("empty pre-computed seed list");
  }
  INFLEX_RETURN_NOT_OK(rank::ValidateRankedList(seed_list));
  if (graph_ != nullptr) {
    for (rank::Item v : seed_list) {
      if (v >= graph_->num_nodes()) {
        return Status::InvalidArgument("seed list references unknown node");
      }
    }
  }
  INFLEX_ASSIGN_OR_RETURN(uint32_t id, tree_.Insert(item.probs()));
  INFLEX_CHECK_EQ(static_cast<size_t>(id), seed_lists_.size());
  seed_list_length_ = std::max(seed_list_length_, seed_list.size());
  seed_lists_.push_back(
      std::make_shared<const rank::RankedList>(std::move(seed_list)));
  return Status::OK();
}

Status InflexIndex::RemoveIndexPoints(std::span<const uint32_t> ids,
                                      std::vector<uint32_t>* old_to_new) {
  const size_t n = num_index_points();
  if (ids.empty()) {
    if (old_to_new != nullptr) {
      old_to_new->resize(n);
      std::iota(old_to_new->begin(), old_to_new->end(), 0u);
    }
    return Status::OK();
  }
  // Validate and build the dense renumbering before mutating anything, so a
  // bad request leaves the index untouched.
  std::vector<uint8_t> drop(n, 0);
  for (uint32_t id : ids) {
    if (id >= n) return Status::InvalidArgument("remove id out of range");
    drop[id] = 1;
  }
  std::vector<uint32_t> map(n, kDroppedIndexPoint);
  uint32_t next = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (drop[i] == 0) map[i] = next++;
  }
  if (next == 0) {
    return Status::InvalidArgument("cannot remove every index point");
  }
  INFLEX_RETURN_NOT_OK(tree_.RemovePoints(ids));
  // Compact seed lists in id order so list i stays aligned with tree point i
  // under the same dense renumbering the tree applied.
  std::vector<std::shared_ptr<const rank::RankedList>> kept;
  kept.reserve(next);
  size_t ell = 0;
  for (uint32_t i = 0; i < n; ++i) {
    if (map[i] == kDroppedIndexPoint) continue;
    kept.push_back(seed_lists_[i]);
    ell = std::max(ell, kept.back()->size());
  }
  seed_lists_ = decltype(seed_lists_)(std::move(kept));
  seed_list_length_ = ell;
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return Status::OK();
}

Status InflexIndex::Compact(const bbtree::BbTreeOptions& tree_options) {
  if (tree_.num_inserted() == 0 && tree_.num_removed() == 0) {
    return Status::OK();
  }
  std::vector<simplex::TopicVector> points;
  points.reserve(num_index_points());
  for (uint32_t i = 0; i < num_index_points(); ++i) {
    points.push_back(index_point(i));
  }
  INFLEX_ASSIGN_OR_RETURN(tree_,
                          bbtree::BbTree::Build(std::move(points),
                                                tree_options));
  // Fold the appended list pointers into a fresh shared block too, so a
  // copy's owned tail stays as short as the tree's.
  seed_lists_.Fold();
  return Status::OK();
}

Status InflexIndex::Save(const std::string& path) const {
  INFLEX_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::Open(path));
  INFLEX_RETURN_NOT_OK(WriteHeader(&w, kIndexMagic, kIndexVersion));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(num_index_points()));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(num_topics()));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(seed_list_length_));
  for (uint32_t i = 0; i < num_index_points(); ++i) {
    INFLEX_RETURN_NOT_OK(w.WriteVector(index_point(i)));
    INFLEX_RETURN_NOT_OK(w.WriteVector(seed_list(i)));
  }
  return w.Close();
}

Result<InflexIndex> InflexIndex::Load(const std::string& path,
                                      const graph::TopicGraph* graph,
                                      const bbtree::BbTreeOptions& tree_options) {
  INFLEX_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  INFLEX_RETURN_NOT_OK(CheckHeader(&r, kIndexMagic, kIndexVersion));
  uint64_t h = 0, z_count = 0, ell = 0;
  INFLEX_RETURN_NOT_OK(r.ReadPod(&h));
  INFLEX_RETURN_NOT_OK(r.ReadPod(&z_count));
  INFLEX_RETURN_NOT_OK(r.ReadPod(&ell));
  if (h == 0 || z_count == 0 || ell == 0) {
    return Status::IOError("corrupt index header");
  }
  std::vector<simplex::TopicVector> points;
  std::vector<rank::RankedList> lists;
  points.reserve(h);
  lists.reserve(h);
  for (uint64_t i = 0; i < h; ++i) {
    simplex::TopicVector point;
    rank::RankedList list;
    INFLEX_RETURN_NOT_OK(r.ReadVector(&point));
    INFLEX_RETURN_NOT_OK(r.ReadVector(&list));
    if (point.size() != z_count) {
      return Status::IOError("index point dimension mismatch");
    }
    points.push_back(std::move(point));
    lists.push_back(std::move(list));
  }
  return FromParts(graph, std::move(points), std::move(lists), tree_options);
}

}  // namespace core
}  // namespace inflex

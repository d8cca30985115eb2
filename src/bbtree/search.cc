#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "bbtree/bbtree.h"
#include "simplex/kl_kernel.h"
#include "stats/anderson_darling.h"
#include "util/bound_capacity.h"
#include "util/check.h"
#include "util/timer.h"

namespace inflex {
namespace bbtree {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Min-heap entries keyed by the descent divergence. The carried screen
// value is derived data and deliberately NOT part of the ordering.
struct QueuedSubtreeGreater {
  bool operator()(const QueuedSubtree& a, const QueuedSubtree& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.node > b.node;
  }
};
using MinHeap = std::priority_queue<QueuedSubtree, std::vector<QueuedSubtree>,
                                    QueuedSubtreeGreater>;

// Resolves the caller's context: a nullptr falls back to a thread_local
// instance, so steady-state search is allocation-free either way. Every
// search entry point follows the resolve with BbTree::BindScratch, which
// re-validates the (possibly tree-hopping) context against the tree about
// to be searched and bounds its retained capacity.
SearchContext& Scratch(SearchContext* ctx) {
  if (ctx != nullptr) return *ctx;
  thread_local SearchContext tls;
  return tls;
}

uint64_t ElapsedNs(const Timer& t) {
  return static_cast<uint64_t>(t.ElapsedSeconds() * 1e9);
}

}  // namespace

void SearchContext::BindTo(size_t dim, size_t max_leaf, size_t max_children) {
  using util::BoundCapacity;
  // Sizes are additionally re-validated at every use site (resize/assign per
  // node or leaf), so binding is purely about bounding retention: correctness
  // against a different tree never depends on this call.
  kl_.ShrinkTo(dim);
  BoundCapacity(bisect_.x, dim);
  BoundCapacity(bisect_.u, dim);
  BoundCapacity(child_divs_, max_children);
  BoundCapacity(leaf_divs_, max_leaf);
  BoundCapacity(mean_, dim);
  BoundCapacity(direction_, dim);
  BoundCapacity(sample_, max_leaf + 1);
  // One bypassed sibling set per level is the steady state; depth ×
  // branching is a loose worst case the queue rarely approaches.
  const size_t queue_bound = std::max<size_t>(max_children * 8, 16);
  BoundCapacity(siblings_, queue_bound);
  // The batched-screen gather scratch is bounded by the same frontier size
  // (ScreenSiblings runs over one descent's bypassed siblings).
  BoundCapacity(screen_divs_, queue_bound);
  BoundCapacity(screen_rows_, queue_bound * util::AlignedRowStride(dim));
}

// The `similar_enough` test of Algorithm 1: project the leaf population and
// the query onto the direction from the leaf's mean to the query and
// Anderson-Darling-test the joint sample for normality. Accepting the null
// ("the query blends into the leaf population") stops the search.
bool BbTree::SimilarEnough(const std::vector<uint32_t>& leaf_ids,
                           SearchContext& ctx, double ad_alpha) const {
  if (leaf_ids.size() + 1 < 5) return false;  // too small to test: continue
  const size_t dim = dim_;
  const double* query = ctx.kl_.query();
  ctx.mean_.assign(dim, 0.0);
  for (uint32_t id : leaf_ids) {
    const double* p = row_ptr(row_of(id));
    for (size_t d = 0; d < dim; ++d) ctx.mean_[d] += p[d];
  }
  for (double& v : ctx.mean_) v /= static_cast<double>(leaf_ids.size());

  ctx.direction_.resize(dim);
  double norm_sq = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    ctx.direction_[d] = query[d] - ctx.mean_[d];
    norm_sq += ctx.direction_[d] * ctx.direction_[d];
  }
  if (norm_sq <= 1e-24) return true;  // query coincides with the population
  const double inv_norm = 1.0 / std::sqrt(norm_sq);

  ctx.sample_.clear();
  for (uint32_t id : leaf_ids) {
    ctx.sample_.push_back(
        simplex::DotProduct(row_ptr(row_of(id)), ctx.direction_.data(),
                            dim) *
        inv_norm);
  }
  ctx.sample_.push_back(
      simplex::DotProduct(query, ctx.direction_.data(), dim) * inv_norm);

  auto ad = stats::AndersonDarlingNormality(ctx.sample_);
  if (!ad.ok()) return true;  // degenerate (zero variance): trivially similar
  return ad.ValueOrDie().IsNormal(ad_alpha);
}

uint32_t BbTree::DescendToLeaf(uint32_t node_id, SearchContext& ctx,
                               SearchStats* stats) const {
  uint32_t current = node_id;
  while (!node_at(current).is_leaf()) {
    ++stats->nodes_visited;
    const Node& node = node_at(current);
    const size_t m = node.children.size();
    ctx.child_divs_.resize(m);
    Timer timer;
    simplex::KlBatch(node.child_centers.data(),
                     node.child_center_negent.data(), m, dim_, row_stride_,
                     ctx.kl_.log_query(), ctx.child_divs_.data());
    stats->kl_ns += ElapsedNs(timer);
    stats->kl_evaluations += m;
    size_t best = 0;
    for (size_t c = 1; c < m; ++c) {
      if (ctx.child_divs_[c] < ctx.child_divs_[best]) best = c;
    }
    for (size_t c = 0; c < m; ++c) {
      if (c != best) {
        ctx.siblings_.push_back({ctx.child_divs_[c], node.children[c]});
      }
    }
    current = node.children[best];
  }
  ++stats->nodes_visited;
  return current;
}

void BbTree::ScreenSiblings(SearchContext& ctx, SearchStats* stats) const {
  // Gather the balls' cached log-centers into stride-padded aligned rows.
  // Stale padding from a previous (larger) batch is harmless: the kernel
  // reads exactly dim_ values per row.
  const size_t m = ctx.siblings_.size();
  const size_t stride = row_stride_;
  ctx.screen_rows_.resize(m * stride);
  for (size_t i = 0; i < m; ++i) {
    const std::vector<double>& lc =
        node_at(ctx.siblings_[i].node).ball.log_center();
    std::copy(lc.begin(), lc.end(), ctx.screen_rows_.begin() + i * stride);
  }
  ctx.screen_divs_.resize(m);
  Timer timer;
  simplex::KlBatchTargets(ctx.kl_.query(), ctx.kl_.query_neg_entropy(),
                          ctx.screen_rows_.data(), m, dim_, stride,
                          ctx.screen_divs_.data());
  stats->kl_ns += ElapsedNs(timer);
  stats->kl_evaluations += m;
  for (size_t i = 0; i < m; ++i) ctx.siblings_[i].screen = ctx.screen_divs_[i];
}

void BbTree::ScanLeaf(const Node& leaf, SearchContext& ctx,
                      SearchStats* stats) const {
  const size_t m = leaf.point_ids.size();
  ctx.leaf_divs_.resize(m);
  Timer timer;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t row = row_of(leaf.point_ids[i]);
    ctx.leaf_divs_[i] = ctx.kl_.Kl(row_ptr(row), point_negent_[row]);
  }
  stats->kl_ns += ElapsedNs(timer);
  stats->kl_evaluations += m;
}

InflexSearchResult BbTree::InflexSearch(const simplex::TopicVector& query,
                                        const InflexSearchOptions& options,
                                        SearchContext* ctx_in) const {
  INFLEX_CHECK_EQ(query.size(), dim());
  SearchContext& ctx = Scratch(ctx_in);
  BindScratch(ctx);
  ctx.kl_.Reset(query);
  InflexSearchResult result;
  SearchStats& stats = result.stats;

  MinHeap pending;
  pending.push({0.0, 0});  // root
  double delta = kInf;  // max divergence in the current solution set

  while (!pending.empty() && stats.leaves_visited < options.max_leaves) {
    const QueuedSubtree top = pending.top();
    pending.pop();
    // The root is popped while the solution set is still empty, so every
    // tested entry is a bypassed sibling carrying its enqueue-time screen.
    if (options.use_pruning && !result.neighbors.empty() &&
        node_at(top.node).ball.CanPruneScreened(ctx.kl_, top.screen, delta,
                                                &ctx.bisect_, &stats)) {
      ++stats.subtrees_pruned;
      continue;
    }
    ctx.siblings_.clear();
    const uint32_t leaf = DescendToLeaf(top.node, ctx, &stats);
    if (options.use_pruning && !ctx.siblings_.empty()) {
      // One kernel sweep screens the whole bypassed frontier at enqueue
      // time; each entry carries its screen to the eventual pruning test.
      ScreenSiblings(ctx, &stats);
    }
    for (const auto& s : ctx.siblings_) pending.push(s);

    ++stats.leaves_visited;
    const Node& leaf_node = node_at(leaf);
    const auto& leaf_ids = leaf_node.point_ids;
    ScanLeaf(leaf_node, ctx, &stats);
    for (size_t i = 0; i < leaf_ids.size(); ++i) {
      const double d = ctx.leaf_divs_[i];
      if (d <= options.epsilon_exact) {
        // ε-exact match: the index already contains (essentially) this very
        // item; return its seed list alone.
        result.neighbors.assign(1, Neighbor{leaf_ids[i], d});
        result.epsilon_exact = true;
        return result;
      }
      result.neighbors.push_back(Neighbor{leaf_ids[i], d});
      delta = std::max(delta == kInf ? d : delta, d);
    }
    if (options.use_ad_early_stop &&
        SimilarEnough(leaf_ids, ctx, options.ad_alpha)) {
      break;
    }
  }
  std::sort(result.neighbors.begin(), result.neighbors.end());
  return result;
}

std::vector<Neighbor> BbTree::LeafBoundedKnn(const simplex::TopicVector& query,
                                             size_t k, size_t max_leaves,
                                             SearchStats* stats,
                                             SearchContext* ctx) const {
  InflexSearchOptions options;
  options.epsilon_exact = -1.0;       // never short-circuit
  options.use_ad_early_stop = false;  // leaf budget is the only stop
  options.max_leaves = max_leaves;
  InflexSearchResult r = InflexSearch(query, options, ctx);
  if (stats != nullptr) *stats = r.stats;
  if (r.neighbors.size() > k) r.neighbors.resize(k);
  return std::move(r.neighbors);
}

std::vector<Neighbor> BbTree::ExactKnn(const simplex::TopicVector& query,
                                       size_t k, SearchStats* stats,
                                       SearchContext* ctx_in) const {
  INFLEX_CHECK_EQ(query.size(), dim());
  INFLEX_CHECK_GT(k, 0u);
  SearchContext& ctx = Scratch(ctx_in);
  BindScratch(ctx);
  ctx.kl_.Reset(query);
  const size_t n = num_points();
  std::vector<Neighbor> all(n);
  Timer timer;
  // Sweep the rows in physical row order (sequential memory): the shared
  // built block, then the appended tail, where row == id.
  const RowBlock& built = *rows_;
  const double* data = built.data.data();
  const double* negent = built.negent.data();
  const uint32_t* ids = built.id_of_row.data();
  const size_t stride = row_stride_;
  const auto num_built = static_cast<uint32_t>(built.negent.size());
  for (uint32_t row = 0; row < num_built; ++row) {
    all[row] = Neighbor{ids[row], ctx.kl_.Kl(data + row * stride, negent[row])};
  }
  for (uint32_t row = num_built; row < n; ++row) {
    all[row] = Neighbor{row, ctx.kl_.Kl(row_ptr(row), point_negent_[row])};
  }
  if (stats != nullptr) {
    stats->kl_evaluations += n;
    stats->kl_ns += ElapsedNs(timer);
  }
  const size_t kk = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + kk, all.end());
  all.resize(kk);
  return all;
}

}  // namespace bbtree
}  // namespace inflex

#ifndef INFLEX_BBTREE_BBTREE_H_
#define INFLEX_BBTREE_BBTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bbtree/bregman_ball.h"
#include "simplex/kl_kernel.h"
#include "simplex/topic_distribution.h"
#include "util/aligned.h"
#include "util/shared_base_vector.h"
#include "util/status.h"

namespace inflex {
namespace bbtree {

/// \brief Construction options for the Bregman ball tree (§3.2).
struct BbTreeOptions {
  /// Nodes with at most this many points become leaves.
  size_t max_leaf_size = 16;
  /// Cap on the branching factor learned by G-means at each split.
  size_t max_branching = 4;
  /// Significance level of the Anderson-Darling test G-means uses to decide
  /// whether child Bregman balls would overlap (split further) or not.
  double gmeans_alpha = 0.05;
  uint64_t seed = 1;
};

/// \brief One retrieved index point.
struct Neighbor {
  uint32_t point_id = 0;
  /// D_KL(point ‖ query) — the paper's right-sided divergence.
  double divergence = 0.0;

  bool operator<(const Neighbor& other) const {
    if (divergence != other.divergence) return divergence < other.divergence;
    return point_id < other.point_id;
  }
};

/// \brief Options for the INFLEX similarity search (Algorithm 1).
struct InflexSearchOptions {
  /// ε of the ε-exact match shortcut.
  double epsilon_exact = 1e-9;
  /// Significance level of the Anderson-Darling `similar_enough` test. The
  /// search stops once the null ("the query blends into the leaf
  /// population") is ACCEPTED, i.e. p ≥ ad_alpha — so larger values make
  /// the search explore more leaves. The paper does not report its α; 0.75
  /// reproduces its observed behaviour (~3.7 of the 5 allowed leaves visited
  /// on average), whereas a textbook 0.05 stops after ~1.3 leaves.
  double ad_alpha = 0.75;
  /// Hard cap on visited leaves ("in all our experiments we keep this value
  /// equal to 5").
  size_t max_leaves = 5;
  /// Use the Eq. 5 Bregman-projection bound to prune queued subtrees.
  bool use_pruning = true;
  /// Disable the AD early stop (the paper's leaf-count-only `approxKNN`
  /// search sets this false).
  bool use_ad_early_stop = true;
};

/// \brief One queued (bypassed, not yet descended) subtree of a search:
/// the heap key plus the Eq. 5 screen D_KL(q ‖ μ) of its ball, computed for
/// the whole bypassed frontier in one batched kernel sweep at enqueue time
/// (DESIGN.md §10). The screen depends only on (query, ball), never on δ,
/// so the dequeue-time pruning test needs only the δ-dependent refinement.
struct QueuedSubtree {
  double key = 0.0;
  uint32_t node = 0;
  double screen = 0.0;
};

/// \brief Result of the INFLEX similarity search.
struct InflexSearchResult {
  /// Retrieved neighbors sorted by ascending divergence. For an ε-exact
  /// match this is exactly one entry.
  std::vector<Neighbor> neighbors;
  /// True when the ε-exact shortcut fired.
  bool epsilon_exact = false;
  SearchStats stats;
};

/// \brief Reusable per-query scratch for the tree searches: the KL query
/// context (clamped log(q), −H(q)), the bisection buffers, and every
/// per-level/per-leaf vector the search loops need. Searches given a nullptr
/// context fall back to an internal thread_local instance, so steady-state
/// tree search allocates nothing either way; passing an explicit context
/// merely makes the reuse visible at the call site.
///
/// A context is not bound to one tree: every search entry point re-validates
/// the scratch against the tree it is about to search (BindTo), so one
/// long-lived context — in particular the thread_local fallback on a serving
/// thread — can serve trees of different dimension and point count back to
/// back, and a single worst-case query cannot pin its high-water scratch
/// forever (capacity far beyond the bound tree's needs is released).
class SearchContext {
 public:
  SearchContext() = default;

  /// Total retained scratch capacity in doubles (ops/testing visibility;
  /// sibling entries count as one double each).
  size_t retained_capacity() const {
    return kl_.retained_capacity() + bisect_.x.capacity() +
           bisect_.u.capacity() + siblings_.capacity() +
           child_divs_.capacity() + leaf_divs_.capacity() + mean_.capacity() +
           direction_.capacity() + sample_.capacity() +
           screen_rows_.capacity() + screen_divs_.capacity();
  }

 private:
  friend class BbTree;

  /// Re-validates the scratch against a tree with the given dimension, worst
  /// leaf occupancy and branching factor: buffers whose retained capacity is
  /// far beyond what that tree can demand are released (4× hysteresis above
  /// a small floor, so steady-state reuse on one tree never reallocates).
  void BindTo(size_t dim, size_t max_leaf, size_t max_children);

  simplex::KlQueryContext kl_;
  BisectionScratch bisect_;
  /// Bypassed siblings of one descent, hoisted out of the per-level loop.
  std::vector<QueuedSubtree> siblings_;
  /// Batched-screen gather scratch (BbTree::ScreenSiblings): the bypassed
  /// balls' log-centers as stride-padded 64B-aligned rows and the screen
  /// divergences the one-sweep kernel writes.
  util::AlignedVector<double> screen_rows_;
  std::vector<double> screen_divs_;
  /// Per-level child divergences (was `evaluated`, reallocated per level).
  std::vector<double> child_divs_;
  /// Leaf-scan batch output, aligned with the leaf's point ids.
  std::vector<double> leaf_divs_;
  // `similar_enough` scratch (leaf mean, projection direction, AD sample).
  std::vector<double> mean_;
  std::vector<double> direction_;
  std::vector<double> sample_;
};

/// \brief Bregman ball tree over a set of topic distributions, built
/// top-down with Bregman K-means++ splits whose branching factor is learned
/// by G-means (Nielsen et al. 2009), following §3.2. After Build() the tree
/// additionally supports online point insertion (Insert) for live index
/// maintenance; inserted points degrade the partition quality, which
/// degradation() quantifies so a maintainer can decide when to rebuild.
///
/// Storage (kernel layer, DESIGN.md §10): points live in one flat row-major
/// buffer ordered so that each built leaf occupies a contiguous block of
/// rows, with per-row precomputed negative entropies and an id↔row
/// indirection (ids are stable positions in the input; rows are the physical
/// layout). Rows are padded to row_stride() doubles (the next cache-line
/// multiple) and the buffer is 64-byte aligned, so every row starts on a
/// cache-line boundary and a SIMD load never straddles two lines; padding is
/// zero-filled and never read by the kernels. Every internal node mirrors
/// its children's ball centers in a contiguous child matrix with the same
/// stride. All searches evaluate D_KL through the factorized kernel
/// (simplex/kl_kernel.h): one clamped log transform per query, one dot
/// product per evaluation.
///
/// Copy-on-write (DESIGN.md §9): a copy shares its source's storage and
/// allocates only what it then changes. The built rows (points, negative
/// entropies, id↔row maps) are one immutable block every copy points at;
/// Build and RemovePoints write a fresh block. Insert appends to a small
/// tail of rows each tree owns, where row == id until the next rebuild.
/// Nodes are immutable and shared too: Insert copies only the nodes whose
/// radius it enlarges plus the leaf it appends to, RemovePoints only the
/// leaves it edits. Nothing shared is ever written, so a copy may be
/// mutated while other threads search its source.
class BbTree {
 public:
  /// Creates an empty tree; usable only as a move-assignment target.
  BbTree() = default;

  /// Builds the tree. Fails on an empty point set or inconsistent
  /// dimensions.
  static Result<BbTree> Build(std::vector<simplex::TopicVector> points,
                              const BbTreeOptions& options = {});

  /// Inserts one point online in O(depth): descends from the root picking at
  /// each level the child minimizing D_KL(center ‖ point) (the same rule
  /// every search uses to order its descent), appends the point to the
  /// reached leaf, and conservatively enlarges each ball on the path to
  /// contain the point. All search bounds stay sound, but leaves grow
  /// beyond max_leaf_size and ball radii beyond their built-time tightness,
  /// which is what degradation() tracks.
  /// The point's row is appended to the flat buffer (inserted points are not
  /// leaf-contiguous until the next Build/Compact). Returns the new point id
  /// (= num_points() before the call). Fails on a dimension mismatch.
  Result<uint32_t> Insert(simplex::TopicVector point);

  /// Number of points added by Insert() since Build().
  size_t num_inserted() const { return num_inserted_; }

  /// Number of points dropped by RemovePoints() since Build().
  size_t num_removed() const { return num_removed_; }

  /// Removes the given points online (duplicates tolerated; ids must be in
  /// range and at least one point must survive). Surviving points are
  /// renumbered to dense ids preserving their relative order, the flat SoA
  /// rows are physically compacted in row order (surviving leaf runs stay
  /// contiguous), and the ids are dropped from their leaves. Balls are NOT
  /// shrunk — a conservative (too large) ball only weakens pruning and
  /// every bound stays sound — which is what degradation() tracks until the
  /// next Build/Compact rebuild restores tightness.
  Status RemovePoints(std::span<const uint32_t> ids);

  /// Quality loss of the incrementally maintained tree, 0 for a freshly
  /// built one: the fraction of points that arrived via Insert() or left via
  /// RemovePoints() since the last build, plus the worst leaf's relative
  /// occupancy overflow beyond its built-time size. A maintainer triggers a
  /// full §3.2 rebuild once this crosses its threshold. Guaranteed to be 0
  /// immediately after Build() — even when a degenerate split left an
  /// oversized leaf, the built shape is the baseline, not an overflow.
  double degradation() const;

  size_t num_points() const { return point_negent_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const { return num_leaves_; }
  size_t depth() const { return depth_; }
  size_t dim() const { return dim_; }
  /// Physical row length of the SoA buffers in doubles: dim() rounded up to
  /// the next cache-line multiple (util::AlignedRowStride).
  size_t row_stride() const { return row_stride_; }

  /// A copy of the indexed point with the given id (ids are positions in the
  /// input). The backing storage is the flat SoA buffer; use point_span()
  /// for copy-free access.
  simplex::TopicVector point(uint32_t id) const;

  /// Copy-free view of the indexed point's row in the SoA buffer (the dim()
  /// real values; the row's alignment padding is not part of the span).
  std::span<const double> point_span(uint32_t id) const {
    return {row_ptr(row_of(id)), dim_};
  }

  /// Precomputed Σ p_z·log p_z (= −H(p)) of the indexed point.
  double point_neg_entropy(uint32_t id) const {
    return point_negent_[row_of(id)];
  }

  /// Exact K nearest neighbors under D_KL(point ‖ query), ascending by
  /// (divergence, point id) — equal divergences come back in ascending id
  /// order. Used by the paper's `exactKNN` baseline and as the ground truth
  /// for recall experiments. A linear scan of the flat buffer in row order,
  /// O(Z·h) as the paper notes: at every measured (h, Z, k) it beat a
  /// branch-and-bound on the Eq. 5 bound by 16–104× (DESIGN.md §10).
  std::vector<Neighbor> ExactKnn(const simplex::TopicVector& query, size_t k,
                                 SearchStats* stats = nullptr,
                                 SearchContext* ctx = nullptr) const;

  /// Approximate K-NN bounded by a maximum number of visited leaves
  /// (the paper's `approxKNN` baseline; with max_leaves = num_leaves() it
  /// degenerates to exact search order without the K-bound guarantee).
  std::vector<Neighbor> LeafBoundedKnn(const simplex::TopicVector& query,
                                       size_t k, size_t max_leaves,
                                       SearchStats* stats = nullptr,
                                       SearchContext* ctx = nullptr) const;

  /// Algorithm 1: the unbounded INFLEX similarity search with ε-exact
  /// shortcut, Anderson-Darling early stop and Bregman-projection pruning.
  InflexSearchResult InflexSearch(const simplex::TopicVector& query,
                                  const InflexSearchOptions& options = {},
                                  SearchContext* ctx = nullptr) const;

 private:
  friend class BbTreeBuilder;

  struct Node {
    BregmanBall ball;
    /// Child node ids (empty for leaves).
    std::vector<uint32_t> children;
    /// Point ids stored here (leaves only).
    std::vector<uint32_t> point_ids;
    /// SoA mirror of the children's ball centers (children.size() rows of
    /// row_stride() doubles, 64B-aligned) with their negative entropies: the
    /// per-level descent evaluation is one contiguous batch-kernel sweep.
    /// Filled by Finalize; centers never change afterwards (Insert only
    /// enlarges radii), so no maintenance is needed.
    util::AlignedVector<double> child_centers;
    std::vector<double> child_center_negent;
    bool is_leaf() const { return children.empty(); }
  };

  /// The built rows: one immutable block shared by every copy of the tree.
  struct RowBlock {
    util::AlignedVector<double> data;  // rows × row_stride_
    std::vector<double> negent;        // per row: Σ p_z·log p_z
    std::vector<uint32_t> row_of_id;
    std::vector<uint32_t> id_of_row;
  };

  const Node& node_at(uint32_t id) const { return *nodes_[id]; }

  /// Fills every node's child-center matrix, writes the SoA row block
  /// (leaf-contiguous rows + id↔row maps + per-row negative entropies) and
  /// makes the nodes the tree's shared immutable nodes. Called once at the
  /// end of Build.
  void Finalize(const std::vector<simplex::TopicVector>& input,
                std::vector<Node> nodes);

  /// Makes `block` the shared built rows, with an empty tail.
  void SetRows(RowBlock block);

  /// Rows past the built block were appended by Insert, with row == id.
  uint32_t row_of(uint32_t id) const {
    return id < point_negent_.base_size() ? rows_->row_of_id[id] : id;
  }
  uint32_t id_of(uint32_t row) const {
    return row < point_negent_.base_size() ? rows_->id_of_row[row] : row;
  }

  /// Re-validates a (possibly long-lived thread_local) context against this
  /// tree before a search runs: see SearchContext::BindTo.
  void BindScratch(SearchContext& ctx) const {
    ctx.BindTo(dim_, largest_leaf_, max_children_);
  }

  /// Descends greedily from `node_id` to a leaf, choosing at every level the
  /// child whose center is closest to the query (arg min of D_KL(μ_c ‖ q),
  /// as in Algorithm 1, evaluated as one batch over the node's child matrix)
  /// and appending the bypassed siblings to ctx.siblings_; returns the leaf
  /// id. The descent step of InflexSearch (and so of LeafBoundedKnn).
  uint32_t DescendToLeaf(uint32_t node_id, SearchContext& ctx,
                         SearchStats* stats) const;

  /// Evaluates D_KL(p ‖ q) for every point of `leaf` against the context's
  /// query into ctx.leaf_divs_ (aligned with leaf.point_ids).
  void ScanLeaf(const Node& leaf, SearchContext& ctx,
                SearchStats* stats) const;

  /// The batched bisection screen (DESIGN.md §10): gathers the log-centers
  /// of the balls in ctx.siblings_ into ctx.screen_rows_ (stride-padded
  /// aligned rows), computes every screen divergence D_KL(q ‖ μ_i) in one
  /// KlBatchTargets sweep and stores each in its sibling's `screen`. Each is
  /// bit-identical to what KlQueryContext::KlOfQueryAgainst returns for that
  /// ball.
  void ScreenSiblings(SearchContext& ctx, SearchStats* stats) const;

  /// The `similar_enough` AD test of Algorithm 1 over a leaf population.
  bool SimilarEnough(const std::vector<uint32_t>& leaf_ids, SearchContext& ctx,
                     double ad_alpha) const;

  const double* row_ptr(uint32_t row) const { return point_data_.entry(row); }

  // Flat SoA point storage: rows are leaf-contiguous after Build (inserted
  // points append), ids are stable input positions. Rows are row_stride_
  // doubles (cache-line padded, zero-filled tail), each 64B-aligned. The
  // built rows are rows_, which point_data_ and point_negent_ alias as their
  // shared base; each tree owns only the tail of rows Insert appended.
  size_t dim_ = 0;
  size_t row_stride_ = 0;  // util::AlignedRowStride(dim_), set by Finalize
  std::shared_ptr<const RowBlock> rows_;
  util::SharedBaseVector<double, util::AlignedAllocator<double>> point_data_;
  util::SharedBaseVector<double> point_negent_;

  // nodes_[0] is the root. Shared between copies, never written in place.
  std::vector<std::shared_ptr<const Node>> nodes_;
  size_t num_leaves_ = 0;
  size_t depth_ = 0;
  size_t max_children_ = 0;  // widest node's branching (scratch sizing)
  // Online insert/removal bookkeeping (see Insert/RemovePoints/degradation).
  BbTreeOptions options_;
  size_t num_inserted_ = 0;
  size_t num_removed_ = 0;
  size_t largest_leaf_ = 0;
  size_t built_largest_leaf_ = 0;  // baseline for the overflow term
};

}  // namespace bbtree
}  // namespace inflex

#endif  // INFLEX_BBTREE_BBTREE_H_

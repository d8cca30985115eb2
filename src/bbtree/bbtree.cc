#include "bbtree/bbtree.h"

#include <algorithm>
#include <limits>

#include "cluster/gmeans.h"
#include "cluster/kmeans.h"
#include "simplex/divergence.h"
#include "util/check.h"
#include "util/random.h"

namespace inflex {
namespace bbtree {

namespace {

// Bregman ball covering the given points: center at the arithmetic mean
// (the right-type KL centroid), radius = max divergence of a member from it.
BregmanBall CoveringBall(const std::vector<simplex::TopicVector>& points,
                         const std::vector<uint32_t>& ids) {
  INFLEX_CHECK(!ids.empty());
  const size_t dim = points[ids.front()].size();
  simplex::TopicVector center(dim, 0.0);
  for (uint32_t id : ids) {
    for (size_t d = 0; d < dim; ++d) center[d] += points[id][d];
  }
  for (double& v : center) v /= static_cast<double>(ids.size());
  double radius = 0.0;
  for (uint32_t id : ids) {
    radius = std::max(radius, simplex::KlDivergence(points[id], center));
  }
  return BregmanBall(std::move(center), radius);
}

}  // namespace

class BbTreeBuilder {
 public:
  BbTreeBuilder(std::vector<simplex::TopicVector> points,
                const BbTreeOptions& options)
      : options_(options), rng_(options.seed), input_(std::move(points)) {
    tree_.options_ = options;
    tree_.dim_ = input_.front().size();
  }

  Result<BbTree> Build() {
    std::vector<uint32_t> all_ids(input_.size());
    for (uint32_t i = 0; i < input_.size(); ++i) all_ids[i] = i;
    nodes_.emplace_back();
    INFLEX_RETURN_NOT_OK(BuildNode(0, std::move(all_ids), 1));
    tree_.Finalize(input_, std::move(nodes_));
    return std::move(tree_);
  }

 private:
  Status BuildNode(uint32_t node_id, std::vector<uint32_t> ids, size_t level) {
    tree_.depth_ = std::max(tree_.depth_, level);
    nodes_[node_id].ball = CoveringBall(input_, ids);
    if (ids.size() <= options_.max_leaf_size) {
      return MakeLeaf(node_id, std::move(ids));
    }

    // Learn the branching factor with G-means over this node's points; the
    // AD test decides how many non-overlapping child balls the population
    // supports (Nielsen et al. 2009). Fall back to a plain 2-way Bregman
    // K-means++ split when G-means sees a single Gaussian cluster.
    std::vector<simplex::TopicVector> members;
    members.reserve(ids.size());
    for (uint32_t id : ids) members.push_back(input_[id]);

    cluster::GMeansOptions gopts;
    gopts.ad_alpha = options_.gmeans_alpha;
    gopts.max_clusters = std::max<size_t>(options_.max_branching, 2);
    gopts.divergence = cluster::BregmanDivergenceKind::kKl;
    gopts.seed = rng_.Next();
    INFLEX_ASSIGN_OR_RETURN(cluster::KMeansResult clustering,
                            cluster::GMeans(members, gopts));
    if (clustering.centroids.size() < 2) {
      cluster::KMeansOptions kopts;
      kopts.num_clusters = 2;
      kopts.divergence = cluster::BregmanDivergenceKind::kKl;
      kopts.seed = rng_.Next();
      INFLEX_ASSIGN_OR_RETURN(clustering,
                              cluster::KMeansPlusPlus(members, kopts));
    }

    // Partition ids by cluster; drop empty clusters.
    std::vector<std::vector<uint32_t>> groups(clustering.centroids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      groups[clustering.assignment[i]].push_back(ids[i]);
    }
    groups.erase(std::remove_if(groups.begin(), groups.end(),
                                [](const auto& g) { return g.empty(); }),
                 groups.end());
    if (groups.size() < 2) {
      // Degenerate split (e.g. duplicated points): stop here.
      return MakeLeaf(node_id, std::move(ids));
    }

    for (auto& group : groups) {
      const uint32_t child_id = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
      nodes_[node_id].children.push_back(child_id);
      INFLEX_RETURN_NOT_OK(BuildNode(child_id, std::move(group), level + 1));
    }
    return Status::OK();
  }

  Status MakeLeaf(uint32_t node_id, std::vector<uint32_t> ids) {
    tree_.largest_leaf_ = std::max(tree_.largest_leaf_, ids.size());
    nodes_[node_id].point_ids = std::move(ids);
    ++tree_.num_leaves_;
    return Status::OK();
  }

  BbTreeOptions options_;
  Rng rng_;
  std::vector<simplex::TopicVector> input_;
  std::vector<BbTree::Node> nodes_;  // built here, frozen by Finalize
  BbTree tree_;
};

void BbTree::Finalize(const std::vector<simplex::TopicVector>& input,
                      std::vector<Node> nodes) {
  const size_t n = input.size();
  // Cache-line padded rows in a 64B-aligned buffer: every row starts on a
  // line boundary, the zero-filled tail is never read by the kernels.
  row_stride_ = util::AlignedRowStride(dim_);
  RowBlock rows;
  rows.data.assign(n * row_stride_, 0.0);
  rows.negent.assign(n, 0.0);
  rows.row_of_id.assign(n, 0);
  rows.id_of_row.assign(n, 0);
  // Leaf-contiguous row layout: walking a leaf's points sweeps sequential
  // rows of the flat buffer.
  uint32_t next_row = 0;
  for (const Node& node : nodes) {
    if (!node.is_leaf()) continue;
    for (uint32_t id : node.point_ids) {
      const uint32_t row = next_row++;
      std::copy(input[id].begin(), input[id].end(),
                rows.data.begin() + static_cast<size_t>(row) * row_stride_);
      rows.negent[row] = simplex::NegativeEntropy(input[id].data(), dim_);
      rows.row_of_id[id] = row;
      rows.id_of_row[row] = id;
    }
  }
  INFLEX_CHECK_EQ(static_cast<size_t>(next_row), n);
  SetRows(std::move(rows));
  // Child-center matrices for the batched descent evaluation.
  max_children_ = 0;
  for (Node& node : nodes) {
    if (node.is_leaf()) continue;
    const size_t m = node.children.size();
    max_children_ = std::max(max_children_, m);
    node.child_centers.assign(m * row_stride_, 0.0);
    node.child_center_negent.resize(m);
    for (size_t c = 0; c < m; ++c) {
      const BregmanBall& ball = nodes[node.children[c]].ball;
      std::copy(ball.center().begin(), ball.center().end(),
                node.child_centers.begin() + c * row_stride_);
      node.child_center_negent[c] = ball.center_neg_entropy();
    }
  }
  nodes_.clear();
  nodes_.reserve(nodes.size());
  for (Node& node : nodes) {
    nodes_.push_back(std::make_shared<const Node>(std::move(node)));
  }
  // The built shape is the degradation baseline: a degenerate split can
  // legitimately leave a leaf beyond max_leaf_size, and that must read as
  // degradation 0 until online churn makes it worse.
  built_largest_leaf_ = largest_leaf_;
}

void BbTree::SetRows(RowBlock block) {
  rows_ = std::make_shared<const RowBlock>(std::move(block));
  // Aliasing pointers: both views share ownership of the one block.
  point_data_ = decltype(point_data_)(
      std::shared_ptr<const util::AlignedVector<double>>(rows_, &rows_->data),
      row_stride_);
  point_negent_ = decltype(point_negent_)(
      std::shared_ptr<const std::vector<double>>(rows_, &rows_->negent));
}

Result<BbTree> BbTree::Build(std::vector<simplex::TopicVector> points,
                             const BbTreeOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("bb-tree requires at least one point");
  }
  const size_t dim = points.front().size();
  if (dim < 2) {
    return Status::InvalidArgument("bb-tree points must have dimension >= 2");
  }
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("bb-tree points disagree on dimension");
    }
  }
  if (options.max_leaf_size == 0) {
    return Status::InvalidArgument("max_leaf_size must be positive");
  }
  BbTreeBuilder builder(std::move(points), options);
  return builder.Build();
}

simplex::TopicVector BbTree::point(uint32_t id) const {
  const auto view = point_span(id);
  return simplex::TopicVector(view.begin(), view.end());
}

Result<uint32_t> BbTree::Insert(simplex::TopicVector point) {
  INFLEX_CHECK(!nodes_.empty());
  if (point.size() != dim_) {
    return Status::InvalidArgument("inserted point dimension mismatch");
  }

  // One context for the whole descent: log(max(point, eps)) and −H(point)
  // serve both directions of the kernel (ball checks evaluate
  // D_KL(point ‖ center) against the ball's cached log-center; child
  // selection evaluates D_KL(center ‖ point) over the node's child matrix).
  simplex::KlQueryContext kq;
  kq.Reset(point);
  std::vector<double> child_divs;

  // Descend by the same closest-center rule the searches use, enlarging
  // every ball on the path so it keeps covering the new point (the ball is
  // {x : D_KL(x ‖ center) ≤ R}, so the required radius is the point's
  // divergence from the center). Path copy: a node is copied only when the
  // insert changes it (its radius grows, or it is the leaf that takes the
  // point); the copy replaces this tree's pointer and every other tree
  // keeps the original.
  uint32_t current = 0;
  while (true) {
    const Node* node = nodes_[current].get();
    const double to_center =
        kq.KlOfQueryAgainst(node->ball.log_center().data());
    if (node->is_leaf()) {
      auto leaf = std::make_shared<Node>(*node);
      if (to_center > leaf->ball.radius()) leaf->ball.EnlargeRadius(to_center);
      const auto id = static_cast<uint32_t>(num_points());
      leaf->point_ids.reserve(leaf->point_ids.size() + 1);
      leaf->point_ids.push_back(id);
      largest_leaf_ = std::max(largest_leaf_, leaf->point_ids.size());
      nodes_[current] = std::move(leaf);
      // Append one stride-padded row; appended rows coincide with appended
      // ids until the next rebuild.
      point_data_.Append(point);
      point_negent_.push_back(simplex::NegativeEntropy(point.data(), dim_));
      ++num_inserted_;
      return id;
    }
    if (to_center > node->ball.radius()) {
      auto enlarged = std::make_shared<Node>(*node);
      enlarged->ball.EnlargeRadius(to_center);
      node = enlarged.get();
      nodes_[current] = std::move(enlarged);
    }
    const size_t m = node->children.size();
    child_divs.resize(m);
    simplex::KlBatch(node->child_centers.data(),
                     node->child_center_negent.data(), m, dim_, row_stride_,
                     kq.log_query(), child_divs.data());
    size_t best = 0;
    for (size_t c = 1; c < m; ++c) {
      if (child_divs[c] < child_divs[best]) best = c;
    }
    current = node->children[best];
  }
}

Status BbTree::RemovePoints(std::span<const uint32_t> ids) {
  INFLEX_CHECK(!nodes_.empty());
  if (ids.empty()) return Status::OK();
  const size_t n = num_points();
  std::vector<uint8_t> removed(n, 0);
  size_t r = 0;
  for (uint32_t id : ids) {
    if (id >= n) {
      return Status::InvalidArgument("removed point id out of range");
    }
    if (!removed[id]) {
      removed[id] = 1;
      ++r;
    }
  }
  if (r == n) {
    return Status::InvalidArgument("cannot remove every point of a bb-tree");
  }

  // Dense renumbering of the survivors, preserving id order.
  constexpr uint32_t kGone = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> new_id(n, kGone);
  uint32_t next_id = 0;
  for (uint32_t id = 0; id < n; ++id) {
    if (!removed[id]) new_id[id] = next_id++;
  }

  // Physically compact the SoA rows in row order into a fresh block:
  // surviving leaf runs stay contiguous, so leaf scans remain sequential
  // sweeps.
  const size_t survivors = n - r;
  RowBlock rows;
  rows.data.resize(survivors * row_stride_);
  rows.negent.resize(survivors);
  rows.row_of_id.resize(survivors);
  rows.id_of_row.resize(survivors);
  uint32_t next_row = 0;
  for (uint32_t row = 0; row < n; ++row) {
    const uint32_t old_id = id_of(row);
    if (removed[old_id]) continue;
    // Full-stride copy: the zero padding travels with the row.
    std::copy_n(row_ptr(row), row_stride_,
                rows.data.data() + static_cast<size_t>(next_row) * row_stride_);
    rows.negent[next_row] = point_negent_[row];
    rows.id_of_row[next_row] = new_id[old_id];
    rows.row_of_id[new_id[old_id]] = next_row;
    ++next_row;
  }
  INFLEX_CHECK_EQ(static_cast<size_t>(next_row), survivors);
  SetRows(std::move(rows));

  // Drop the ids from their leaves and renumber the survivors; a leaf whose
  // ids all stay put is kept shared, an edited one is replaced by a copy.
  // Leaves may become empty — searches tolerate that (an empty scan) until
  // the next Compact rebuilds the partition. Balls keep their radii: a ball
  // that is too large is conservative, never unsound.
  largest_leaf_ = 0;
  for (std::shared_ptr<const Node>& node : nodes_) {
    if (!node->is_leaf()) continue;
    std::vector<uint32_t> kept;
    for (uint32_t pid : node->point_ids) {
      if (!removed[pid]) kept.push_back(new_id[pid]);
    }
    largest_leaf_ = std::max(largest_leaf_, kept.size());
    if (kept == node->point_ids) continue;
    auto edited = std::make_shared<Node>(*node);
    edited->point_ids = std::move(kept);
    node = std::move(edited);
  }
  num_removed_ += r;
  return Status::OK();
}

double BbTree::degradation() const {
  if (num_points() == 0) return 0.0;
  // Churn fraction: points that arrived or left since the last build,
  // relative to the built+inserted population the tree has seen.
  const double churn =
      static_cast<double>(num_inserted_ + num_removed_) /
      static_cast<double>(num_points() + num_removed_);
  // Overflow of the worst leaf beyond its built-time baseline (so a freshly
  // built tree — even one with a degenerate oversized leaf — reads 0).
  const size_t cap =
      std::max({options_.max_leaf_size, built_largest_leaf_, size_t{1}});
  const double leaf_overflow =
      largest_leaf_ > cap
          ? static_cast<double>(largest_leaf_ - cap) / static_cast<double>(cap)
          : 0.0;
  return churn + leaf_overflow;
}

}  // namespace bbtree
}  // namespace inflex

#ifndef INFLEX_BBTREE_BREGMAN_BALL_H_
#define INFLEX_BBTREE_BREGMAN_BALL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simplex/kl_kernel.h"
#include "simplex/topic_distribution.h"

namespace inflex {
namespace bbtree {

/// \brief Instrumentation shared by all search procedures; the paper reports
/// KL-evaluation counts and leaves visited for Figure 5 and the early-stop
/// analysis. `kl_ns` adds wall time spent inside the KL kernel regions
/// (leaf scans, descent batches, bisection projections) so the kernel share
/// of a query is measurable end to end.
struct SearchStats {
  size_t kl_evaluations = 0;
  size_t leaves_visited = 0;
  size_t nodes_visited = 0;
  size_t subtrees_pruned = 0;
  /// Nanoseconds spent in KL kernel evaluation regions.
  uint64_t kl_ns = 0;
};

/// \brief Reusable buffers for the Eq. 5 bisection (geodesic point and its
/// log-mixture coordinates). Owned by a SearchContext so repeated pruning
/// tests never allocate.
struct BisectionScratch {
  std::vector<double> x;  ///< normalized geodesic point x_λ
  std::vector<double> u;  ///< log-mixture (1−λ)·log q̂ + λ·log μ̂
};

/// \brief A Bregman ball under the KL generator (Eq. 4):
/// B(μ, R) = { x : D_KL(x ‖ μ) ≤ R }.
///
/// Provides the pruning primitive of the INFLEX search (Eq. 5): a sound
/// lower bound on min_{x ∈ B} D_KL(x ‖ q), computed by projecting the query
/// onto the ball with Cayton's bisection along the dual geodesic
///   x_λ = ∇f*((1−λ)·∇f(q) + λ·∇f(μ)),
/// which for the KL generator on the simplex is the normalized geometric
/// mixture x_λ ∝ q^{1−λ} μ^λ. The primal (inside the ball) and dual
/// (outside) endpoints of the bisection bracket yield upper and lower bounds
/// that allow early termination as soon as the δ-comparison is resolved.
///
/// Kernel caches: construction precomputes log(max(μ_z, eps)) and −H(μ), so
/// every divergence the bisection needs reduces to dot products against the
/// per-query KlQueryContext (the geodesic point's own entropy falls out of
/// the log-mixture without further log calls; see DESIGN.md §10).
class BregmanBall {
 public:
  BregmanBall() = default;
  BregmanBall(simplex::TopicVector center, double radius);

  const simplex::TopicVector& center() const { return center_; }
  double radius() const { return radius_; }

  /// Grows the radius to at least `radius` (online Insert's conservative
  /// ball enlargement). The center and its kernel caches are untouched.
  void EnlargeRadius(double radius);

  /// −H(μ) = Σ μ_z·log μ_z, cached at construction.
  double center_neg_entropy() const { return neg_entropy_; }
  /// log(max(μ_z, kKlSmoothingEps)), cached at construction.
  const std::vector<double>& log_center() const { return log_center_; }

  /// True when x lies in the ball: D_KL(x ‖ center) ≤ radius (+slack).
  bool Contains(const simplex::TopicVector& x, double slack = 1e-12) const;

  /// Resolves the Eq. 5 test "min_{x ∈ B} D_KL(x ‖ q) < δ" with early
  /// bisection exit: returns true when the subtree can be pruned
  /// (min ≥ δ). δ = +inf never prunes. `div_q_center` is the *screen*
  /// D_KL(q ‖ μ), which depends only on (query, ball): a search computes it
  /// for a whole frontier in one batched kernel sweep (BbTree::ScreenSiblings)
  /// and passes it here. A screen ≤ R puts the query inside the ball (never
  /// prunable); otherwise the geodesic bisection refines the bound. `stats`
  /// (optional) accumulates the refinement's kl_evaluations and kernel time.
  bool CanPruneScreened(const simplex::KlQueryContext& query,
                        double div_q_center, double delta,
                        BisectionScratch* scratch,
                        SearchStats* stats = nullptr) const;

 private:
  simplex::TopicVector center_;
  std::vector<double> log_center_;  // log(max(center, eps))
  double neg_entropy_ = 0.0;        // Σ center_z·log center_z
  double radius_ = 0.0;
};

}  // namespace bbtree
}  // namespace inflex

#endif  // INFLEX_BBTREE_BREGMAN_BALL_H_

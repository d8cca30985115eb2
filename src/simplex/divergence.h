#ifndef INFLEX_SIMPLEX_DIVERGENCE_H_
#define INFLEX_SIMPLEX_DIVERGENCE_H_

#include "simplex/topic_distribution.h"

namespace inflex {
namespace simplex {

/// Smoothing factor used to handle zero probabilities when computing KL
/// divergences, following §4.2 of the paper ("a smoothing factor of
/// machine-ε value"). We use 1e-12 rather than true machine epsilon so the
/// resulting KL_max bound stays numerically comfortable.
inline constexpr double kKlSmoothingEps = 1e-12;

/// Kullback-Leibler divergence D_KL(p ‖ q) = Σ_z p_z log(p_z / q_z), with
/// q clamped away from zero by `eps`. Terms with p_z = 0 contribute zero.
/// This is the paper's *right-sided* divergence when q is the query item.
double KlDivergence(const TopicVector& p, const TopicVector& q,
                    double eps = kKlSmoothingEps);

/// The same divergence over two arrays of n entries (rows of a row-major
/// point matrix); the vector overload runs this loop.
double KlDivergence(const double* p, const double* q, size_t n,
                    double eps = kKlSmoothingEps);

/// Convenience overload on validated distributions.
double KlDivergence(const TopicDistribution& p, const TopicDistribution& q,
                    double eps = kKlSmoothingEps);

/// Symmetrized KL: (D(p‖q) + D(q‖p)) / 2.
double SymmetrizedKl(const TopicVector& p, const TopicVector& q,
                     double eps = kKlSmoothingEps);

/// Empirical upper bound KL_max of the divergence on the ε-smoothed simplex:
/// the divergence between two distinct corners, log(1/eps). Used to scale
/// the importance-weighting function (Eq. 9).
double KlMaxBound(double eps = kKlSmoothingEps);

/// Shannon entropy H(p) = −Σ p_z log p_z (natural log).
double Entropy(const TopicVector& p);

/// Squared Euclidean distance between two equal-length vectors — the other
/// Bregman divergence the clustering layer supports.
double SquaredEuclidean(const TopicVector& p, const TopicVector& q);

/// The same distance over two arrays of n entries.
double SquaredEuclidean(const double* p, const double* q, size_t n);

}  // namespace simplex
}  // namespace inflex

#endif  // INFLEX_SIMPLEX_DIVERGENCE_H_

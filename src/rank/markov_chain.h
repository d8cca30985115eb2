#ifndef INFLEX_RANK_MARKOV_CHAIN_H_
#define INFLEX_RANK_MARKOV_CHAIN_H_

#include <vector>

#include "rank/preference_matrix.h"

namespace inflex {
namespace rank {

/// \brief Options for the MC4 Markov-chain rank aggregation.
struct Mc4Options {
  /// Teleportation (ergodicity) factor, as in PageRank.
  double damping = 0.85;
  /// Power-iteration sweeps / convergence threshold on L1 change.
  int max_iterations = 200;
  double tolerance = 1e-10;
};

/// Stationary distribution of the MC4 Markov chain (Dwork et al., WWW 2001)
/// — the method the paper cites as the generalization of Copeland
/// aggregation — aligned with `pm.items()`.
///
/// States are the items of U = ∪ lists. From state v, the chain moves to a
/// uniformly chosen item v'; if the weighted majority of the lists ranks v'
/// ahead of v the transition is taken, otherwise the chain stays at v.
/// AggregateRankings with kMarkovChainMc4 ranks U by descending probability.
/// Fails when `options.damping` lies outside (0, 1].
Result<std::vector<double>> Mc4StationaryDistribution(
    const PreferenceMatrix& pm, const Mc4Options& options = {});

}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_MARKOV_CHAIN_H_

#include "rank/markov_chain.h"

#include <algorithm>
#include <cmath>

namespace inflex {
namespace rank {

Result<std::vector<double>> Mc4StationaryDistribution(
    const PreferenceMatrix& pm, const Mc4Options& options) {
  if (options.damping <= 0.0 || options.damping > 1.0) {
    return Status::InvalidArgument("damping must lie in (0, 1]");
  }
  const size_t m = pm.num_items();
  if (m == 1) return std::vector<double>{1.0};

  // Row-stochastic MC4 transition matrix: from v, propose v' uniformly
  // among the other m−1 items; accept when the majority prefers v'.
  // (Stored dense: U is small — the union of a few top-ℓ seed lists.)
  std::vector<double> transition(m * m, 0.0);
  const double proposal = 1.0 / static_cast<double>(m - 1);
  for (size_t v = 0; v < m; ++v) {
    double stay = 0.0;
    for (size_t w = 0; w < m; ++w) {
      if (v == w) continue;
      if (pm.Beats(w, v)) {
        transition[v * m + w] = proposal;
      } else {
        stay += proposal;
      }
    }
    transition[v * m + v] = stay;
  }

  // Damped power iteration (teleportation guarantees a unique stationary
  // distribution even when the majority tournament has absorbing cycles).
  std::vector<double> pi(m, 1.0 / static_cast<double>(m));
  std::vector<double> next(m);
  const double teleport = (1.0 - options.damping) / static_cast<double>(m);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), teleport);
    for (size_t v = 0; v < m; ++v) {
      const double pv = options.damping * pi[v];
      if (pv == 0.0) continue;
      const double* row = transition.data() + v * m;
      for (size_t w = 0; w < m; ++w) next[w] += pv * row[w];
    }
    double l1 = 0.0;
    for (size_t v = 0; v < m; ++v) l1 += std::fabs(next[v] - pi[v]);
    pi.swap(next);
    if (l1 < options.tolerance) break;
  }
  return pi;
}

}  // namespace rank
}  // namespace inflex

#include "rank/markov_chain.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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
  // among the other m−1 items; accept when the majority prefers v'. Every
  // off-diagonal entry is `proposal` or zero, so row v is stored as one bit
  // per w (set: the majority prefers w to v) plus its diagonal `stay`.
  const size_t words = (m + 63) / 64;
  std::vector<uint64_t> moves(m * words, 0);
  const auto set_move = [&](size_t v, size_t w) {
    moves[v * words + w / 64] |= uint64_t{1} << (w % 64);
  };
  std::vector<double> votes_for(pm.row_stride());
  std::vector<double> votes_against(pm.row_stride());
  for (size_t v = 0; v + 1 < m; ++v) {
    pm.VoteRows(v, v + 1, votes_for.data(), votes_against.data());
    for (size_t w = v + 1; w < m; ++w) {
      if (votes_against[w] > votes_for[w]) set_move(v, w);  // w beats v
      if (votes_for[w] > votes_against[w]) set_move(w, v);  // v beats w
    }
  }
  const double proposal = 1.0 / static_cast<double>(m - 1);
  std::vector<double> stay(m, 0.0);
  for (size_t v = 0; v < m; ++v) {
    const uint64_t* row = moves.data() + v * words;
    for (size_t w = 0; w < m; ++w) {
      if (w != v && !((row[w / 64] >> (w % 64)) & 1)) stay[v] += proposal;
    }
  }

  // Damped power iteration (teleportation guarantees a unique stationary
  // distribution even when the majority tournament has absorbing cycles).
  // Zero entries are skipped: each would add +0.0 to a non-negative sum.
  std::vector<double> pi(m, 1.0 / static_cast<double>(m));
  std::vector<double> next(m);
  const double teleport = (1.0 - options.damping) / static_cast<double>(m);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), teleport);
    for (size_t v = 0; v < m; ++v) {
      const double pv = options.damping * pi[v];
      if (pv == 0.0) continue;
      if (stay[v] != 0.0) next[v] += pv * stay[v];
      const double move = pv * proposal;
      const uint64_t* row = moves.data() + v * words;
      for (size_t i = 0; i < words; ++i) {
        for (uint64_t bits = row[i]; bits != 0; bits &= bits - 1) {
          next[i * 64 + static_cast<size_t>(std::countr_zero(bits))] += move;
        }
      }
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

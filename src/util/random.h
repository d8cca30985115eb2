#ifndef INFLEX_UTIL_RANDOM_H_
#define INFLEX_UTIL_RANDOM_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace inflex {

/// \brief Fast deterministic PRNG (xoshiro256**), seeded via SplitMix64.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can drive
/// <random> distributions, while also providing the handful of inline
/// samplers (uniform double, bounded int, Bernoulli, Gamma) used in the hot
/// cascade-simulation loops without libstdc++ distribution overhead.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion, the recommended seeding procedure for xoshiro.
    uint64_t x = seed;
    for (auto& si : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      si = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return Next(); }

  /// Next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Advances the stream by `k` steps, exactly as `k` calls of Next() would,
  /// in O(log k): x^k mod P(x) over GF(2) (P the characteristic polynomial
  /// of the state transition) applied like the reference xoshiro256 jump().
  /// The cached Normal() deviate is kept.
  void Advance(uint64_t k);

  /// The raw xoshiro256 state words, for kernels that step several streams
  /// in lockstep.
  std::array<uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  /// Uniform double in [0, 1).
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    INFLEX_CHECK_GT(n, 0u);
    // Lemire's nearly-divisionless bounded sampling.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = (0 - n) % n;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  double Normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u, v, s;
    do {
      u = Uniform(-1.0, 1.0);
      v = Uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * f;
    has_cached_normal_ = true;
    return u * f;
  }

  /// Gamma(shape, 1) sample via Marsaglia–Tsang; supports shape < 1 via the
  /// standard boosting trick. Requires shape > 0.
  double Gamma(double shape) {
    INFLEX_CHECK_GT(shape, 0.0);
    if (shape < 1.0) {
      const double u = Uniform();
      // Guard against u == 0 which would return an exact zero sample.
      const double boost =
          std::pow(u > 0 ? u : std::numeric_limits<double>::min(),
                   1.0 / shape);
      return Gamma(shape + 1.0) * boost;
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
      double x, v;
      do {
        x = Normal();
        v = 1.0 + c * x;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = Uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
        return d * v;
      }
    }
  }

  /// Derives an independent child generator (for per-thread/per-task use).
  Rng Fork() { return Rng(Next()); }

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[UniformInt(i)]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// x^(2^e) mod P(x) over GF(2), where P is the degree-256 characteristic
/// polynomial of the xoshiro256 state transition: bit i of word i / 64 is the
/// coefficient of x^i. As a jump polynomial it advances a generator by 2^e
/// steps; e = 128 and e = 192 give xoshiro256's published jump() and
/// long_jump() constants.
std::array<uint64_t, 4> XoshiroPow2JumpPoly(unsigned e);

}  // namespace inflex

#endif  // INFLEX_UTIL_RANDOM_H_

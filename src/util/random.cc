#include "util/random.h"

#include <algorithm>
#include <bit>

namespace inflex {

namespace {

// A polynomial of degree < 256 over GF(2): bit i of word i / 64 is the
// coefficient of x^i.
using Poly = std::array<uint64_t, 4>;

// The low 256 coefficients of P(x) = x^256 + ..., the characteristic
// polynomial of the xoshiro256 state transition T. Derived by
// Berlekamp–Massey from 512 successive values of one state bit: that bit
// sequence satisfies the recurrence of T's minimal polynomial, which for
// xoshiro256 is P itself (its period is 2^256 - 1, so P is primitive).
Poly DeriveCharPoly() {
  constexpr int kTerms = 512;
  uint8_t bits[kTerms];
  Rng rng(1);
  for (auto& b : bits) {
    b = rng.state()[0] & 1;
    rng.Next();
  }
  // c is the connection polynomial 1 + c_1 x + ... + c_L x^L; prev is c as
  // it was before the last length change, `shift` steps ago.
  uint8_t c[kTerms + 1] = {1};
  uint8_t prev[kTerms + 1] = {1};
  int len = 0, shift = 1;
  for (int t = 0; t < kTerms; ++t) {
    uint8_t d = bits[t];
    for (int i = 1; i <= len; ++i) d ^= c[i] & bits[t - i];
    if (d == 0) {
      ++shift;
      continue;
    }
    uint8_t saved[kTerms + 1];
    std::copy(c, c + kTerms + 1, saved);
    for (int i = 0; i + shift <= kTerms; ++i) c[i + shift] ^= prev[i];
    if (2 * len <= t) {
      len = t + 1 - len;
      std::copy(saved, saved + kTerms + 1, prev);
      shift = 1;
    } else {
      ++shift;
    }
  }
  INFLEX_CHECK_EQ(len, 256);
  // P(x) = x^256 · C(1/x): c_i is the coefficient of x^(256 - i).
  Poly low{};
  for (int i = 1; i <= 256; ++i) {
    if (c[i]) low[(256 - i) / 64] |= uint64_t{1} << ((256 - i) % 64);
  }
  return low;
}

const Poly& CharPoly() {
  static const Poly p = DeriveCharPoly();
  return p;
}

// a · b mod P, Horner over a's bits from the top: r ← r·x mod P, then
// r ← r + b where a has a one.
Poly MulMod(const Poly& a, const Poly& b) {
  const Poly& p = CharPoly();
  Poly r{};
  for (int i = 255; i >= 0; --i) {
    const uint64_t overflow = r[3] >> 63;
    r[3] = (r[3] << 1) | (r[2] >> 63);
    r[2] = (r[2] << 1) | (r[1] >> 63);
    r[1] = (r[1] << 1) | (r[0] >> 63);
    r[0] <<= 1;
    if (overflow) {
      for (int w = 0; w < 4; ++w) r[w] ^= p[w];
    }
    if ((a[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) r[w] ^= b[w];
    }
  }
  return r;
}

// x^(2^e) mod P for e < 64, by repeated squaring of x.
const std::array<Poly, 64>& Pow2Table() {
  static const std::array<Poly, 64> table = [] {
    std::array<Poly, 64> t{};
    t[0] = Poly{2, 0, 0, 0};
    for (size_t e = 1; e < t.size(); ++e) t[e] = MulMod(t[e - 1], t[e - 1]);
    return t;
  }();
  return table;
}

}  // namespace

std::array<uint64_t, 4> XoshiroPow2JumpPoly(unsigned e) {
  const auto& table = Pow2Table();
  if (e < table.size()) return table[e];
  Poly r = table.back();
  for (unsigned i = table.size() - 1; i < e; ++i) r = MulMod(r, r);
  return r;
}

void Rng::Advance(uint64_t k) {
  if (k == 0) return;
  const auto& table = Pow2Table();
  Poly jump = {1, 0, 0, 0};
  for (uint64_t rest = k; rest != 0; rest &= rest - 1) {
    jump = MulMod(jump, table[std::countr_zero(rest)]);
  }
  // T^k s = Σ_i jump_i · T^i s, accumulated over 256 steps of the stream.
  uint64_t acc[4] = {0, 0, 0, 0};
  for (int i = 0; i < 256; ++i) {
    if ((jump[i / 64] >> (i % 64)) & 1) {
      for (int w = 0; w < 4; ++w) acc[w] ^= s_[w];
    }
    Next();
  }
  for (int w = 0; w < 4; ++w) s_[w] = acc[w];
}

}  // namespace inflex

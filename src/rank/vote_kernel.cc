// Pairwise vote rows over per-list rank rows. The scalar loop is the
// reference; the AVX2 kernel must reproduce its sums bit for bit (rank_test
// pins both against each other and against a tally, DESIGN.md §2).
#include "rank/vote_kernel.h"

#include "util/cpu_features.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define INFLEX_VOTES_X86 1
#include <immintrin.h>
#endif

namespace inflex {
namespace rank {
namespace internal {

namespace {

#ifdef INFLEX_VOTES_X86

// kBlocks blocks of eight slots from y on. One 32-bit compare covers a
// block; unpacking its masks in-lane widens them to the 64-bit lanes of two
// registers of four sums each, lo holding slots {0, 1, 4, 5} and hi slots
// {2, 3, 6, 7} of the block, put back in order when stored. Each lane
// starts at +0.0 and adds, in list order, w_j masked to +0.0 where the
// comparison fails, so it runs the reference's additions in the reference's
// order. Each lane is a chain of num_lists dependent adds; kBlocks > 1 keeps
// more chains in flight.
template <size_t kBlocks>
__attribute__((target("avx2"))) inline void VoteBlocksAvx2(
    const uint32_t* ranks, size_t stride, const double* weights,
    size_t num_lists, size_t x, size_t y, double* votes_for,
    double* votes_against) {
  // AVX2 has only signed 32-bit compares: flipping the sign bit of both
  // sides turns them into the unsigned order kAbsentRank relies on.
  const __m256i flip = _mm256_set1_epi32(INT32_MIN);
  __m256d for_lo[kBlocks], for_hi[kBlocks], against_lo[kBlocks],
      against_hi[kBlocks];
  for (size_t b = 0; b < kBlocks; ++b) {
    for_lo[b] = for_hi[b] = _mm256_setzero_pd();
    against_lo[b] = against_hi[b] = _mm256_setzero_pd();
  }
  for (size_t j = 0; j < num_lists; ++j) {
    const uint32_t* row = ranks + j * stride;
    const __m256i rx =
        _mm256_set1_epi32(static_cast<int32_t>(row[x] ^ 0x80000000u));
    const __m256d w = _mm256_broadcast_sd(weights + j);
    for (size_t b = 0; b < kBlocks; ++b) {
      const __m256i ry = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(row + y + b * kVoteBlock)),
          flip);
      const __m256i wins = _mm256_cmpgt_epi32(ry, rx);
      const __m256i losses = _mm256_cmpgt_epi32(rx, ry);
      for_lo[b] = _mm256_add_pd(
          for_lo[b],
          _mm256_and_pd(
              _mm256_castsi256_pd(_mm256_unpacklo_epi32(wins, wins)), w));
      for_hi[b] = _mm256_add_pd(
          for_hi[b],
          _mm256_and_pd(
              _mm256_castsi256_pd(_mm256_unpackhi_epi32(wins, wins)), w));
      against_lo[b] = _mm256_add_pd(
          against_lo[b],
          _mm256_and_pd(
              _mm256_castsi256_pd(_mm256_unpacklo_epi32(losses, losses)), w));
      against_hi[b] = _mm256_add_pd(
          against_hi[b],
          _mm256_and_pd(
              _mm256_castsi256_pd(_mm256_unpackhi_epi32(losses, losses)), w));
    }
  }
  for (size_t b = 0; b < kBlocks; ++b) {
    double* f = votes_for + y + b * kVoteBlock;
    double* a = votes_against + y + b * kVoteBlock;
    _mm256_storeu_pd(f, _mm256_permute2f128_pd(for_lo[b], for_hi[b], 0x20));
    _mm256_storeu_pd(f + 4,
                     _mm256_permute2f128_pd(for_lo[b], for_hi[b], 0x31));
    _mm256_storeu_pd(
        a, _mm256_permute2f128_pd(against_lo[b], against_hi[b], 0x20));
    _mm256_storeu_pd(
        a + 4, _mm256_permute2f128_pd(against_lo[b], against_hi[b], 0x31));
  }
}

__attribute__((target("avx2"))) void VoteRowsAvx2(
    const uint32_t* ranks, size_t stride, const double* weights,
    size_t num_lists, size_t x, size_t first, double* votes_for,
    double* votes_against) {
  constexpr size_t kInFlight = 2;
  size_t y = first;
  for (; y + kInFlight * kVoteBlock <= stride; y += kInFlight * kVoteBlock) {
    VoteBlocksAvx2<kInFlight>(ranks, stride, weights, num_lists, x, y,
                              votes_for, votes_against);
  }
  for (; y < stride; y += kVoteBlock) {
    VoteBlocksAvx2<1>(ranks, stride, weights, num_lists, x, y, votes_for,
                      votes_against);
  }
}

#endif  // INFLEX_VOTES_X86

}  // namespace

void VoteRowsScalar(const uint32_t* ranks, size_t stride,
                    const double* weights, size_t num_lists, size_t x,
                    size_t first, double* votes_for, double* votes_against) {
  for (size_t y = first; y < stride; ++y) {
    double f = 0.0;
    double a = 0.0;
    for (size_t j = 0; j < num_lists; ++j) {
      const uint32_t* row = ranks + j * stride;
      f += row[x] < row[y] ? weights[j] : 0.0;
      a += row[y] < row[x] ? weights[j] : 0.0;
    }
    votes_for[y] = f;
    votes_against[y] = a;
  }
}

VoteRowKernel Avx2VoteRows() {
#ifdef INFLEX_VOTES_X86
  return VoteRowsAvx2;
#else
  return nullptr;
#endif
}

VoteRowKernel ResolveVoteRowKernel(bool force_scalar) {
  if (force_scalar || !util::CpuHasAvx2() || Avx2VoteRows() == nullptr) {
    return VoteRowsScalar;
  }
  return Avx2VoteRows();
}

VoteRowKernel ActiveVoteRowKernel() {
  static const VoteRowKernel active =
      ResolveVoteRowKernel(util::ForceScalarFromEnv());
  return active;
}

}  // namespace internal
}  // namespace rank
}  // namespace inflex

#ifndef INFLEX_RANK_VOTE_KERNEL_H_
#define INFLEX_RANK_VOTE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace inflex {
namespace rank {
namespace internal {

/// Rank of a slot in a list that does not hold it. Ranks within a list are
/// distinct, so `r[x] < r[y]` is exactly "x beats y in this list": present
/// beats absent, and two absent slots (equal ranks) give no vote.
constexpr uint32_t kAbsentRank = UINT32_MAX;

/// Slots per vote block: rank rows are padded with kAbsentRank to a multiple
/// of this, and the row kernels start at a multiple of it.
constexpr size_t kVoteBlock = 8;

/// \brief One row of the pairwise vote relation (DESIGN.md §2).
///
/// `ranks` holds `num_lists` rows of `stride` ranks (stride a multiple of
/// kVoteBlock); `weights[j]` is list j's weight. For every slot y in
/// [first, stride), with `first` a multiple of kVoteBlock:
///   votes_for[y]     = Σ_j (ranks_j[x] < ranks_j[y] ? w_j : +0.0)
///   votes_against[y] = Σ_j (ranks_j[y] < ranks_j[x] ? w_j : +0.0)
/// each summed in list order from +0.0. Entries below `first` are not
/// written. Every variant returns these sums bit for bit.
using VoteRowKernel = void (*)(const uint32_t* ranks, size_t stride,
                               const double* weights, size_t num_lists,
                               size_t x, size_t first, double* votes_for,
                               double* votes_against);

/// The reference loop: one slot at a time.
void VoteRowsScalar(const uint32_t* ranks, size_t stride,
                    const double* weights, size_t num_lists, size_t x,
                    size_t first, double* votes_for, double* votes_against);

/// The AVX2 kernel (branch-free masked adds, four slots per register, two
/// blocks of eight slots in flight), or nullptr when the binary has no x86
/// target support.
/// Requires an AVX2 CPU.
VoteRowKernel Avx2VoteRows();

/// The AVX2 kernel when the executing CPU has AVX2 and `force_scalar` is
/// unset, else the scalar loop. Pure function of (cpuid, force_scalar).
VoteRowKernel ResolveVoteRowKernel(bool force_scalar);

/// The process-wide kernel, resolved once from cpuid and INFLEX_FORCE_SCALAR.
VoteRowKernel ActiveVoteRowKernel();

}  // namespace internal
}  // namespace rank
}  // namespace inflex

#endif  // INFLEX_RANK_VOTE_KERNEL_H_

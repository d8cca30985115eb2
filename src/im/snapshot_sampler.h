#ifndef INFLEX_IM_SNAPSHOT_SAMPLER_H_
#define INFLEX_IM_SNAPSHOT_SAMPLER_H_

// Internal to SnapshotSpreadOracle::Create: the live-edge samplers that fill
// its snapshot adjacency, exposed so tests can pin each variant.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/topic_graph.h"
#include "util/status.h"

namespace inflex {
namespace im {
namespace internal {

/// Bytes a vector holds: its capacity, not its size.
template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// What a sampler draws against: the arcs that take a draw, compacted in arc
/// order (so grouped by ascending source). Rng::Bernoulli(p) is Uniform() <
/// p with Uniform() = (Next() >> 11) · 2⁻⁵³; scaling by 2⁵³ is exact, so for
/// u = Next() >> 11 the test is u < ceil(p · 2⁵³). p >= 1 (+inf included)
/// keeps at threshold 2⁵³; p <= 0 and NaN take no draw and are left out.
/// Snapshot s starts at draw s · num_drawn() of the stream. No draw stores
/// its source: bit j of last_bits is set iff draw j is its source's last,
/// last_ranks[i] counts the set bits of the words before word i, and the
/// nodes that have a draw are `sources`, ascending, so draw j's source is
/// sources[PairIndex(last_bits, last_ranks, j)] (SourceOf).
struct SnapshotDraws {
  size_t num_nodes = 0;
  std::vector<uint64_t> threshold;
  std::vector<graph::NodeId> target;
  std::vector<uint64_t> last_bits;
  std::vector<uint32_t> last_ranks;
  std::vector<graph::NodeId> sources;
  /// Expected kept arcs in one snapshot.
  double expected_kept = 0.0;

  size_t num_drawn() const { return threshold.size(); }
  /// 12 bytes per drawn arc, 12 per 64 of them (rounded up) and 4 per
  /// source.
  size_t bytes() const {
    return CapacityBytes(threshold) + CapacityBytes(target) +
           CapacityBytes(last_bits) + CapacityBytes(last_ranks) +
           CapacityBytes(sources);
  }
};

/// Lays out the drawn arcs, each array sized to them exactly.
SnapshotDraws PrepareDraws(const graph::TopicGraph& g,
                           const graph::ArcProbabilities& arc_probs);

/// A kept target with this bit set is a sink in its snapshot (it keeps no
/// out-arc there), so a BFS counts it without expanding it. Node ids must
/// stay below it: see kMaxSnapshotNodes.
inline constexpr uint32_t kSinkFlag = uint32_t{1} << 31;

/// Node counts above this would collide with kSinkFlag.
inline constexpr size_t kMaxSnapshotNodes = size_t{kSinkFlag};

/// W snapshots of n nodes, concatenated in snapshot-major order. Bit s·n + u
/// of active_bits is set iff node u keeps an out-arc in snapshot s (an
/// active pair). The active pairs, numbered in bit order, index
/// pair_offsets (plus one end entry): the p-th pair's kept targets are
/// targets[pair_offsets[p] .. pair_offsets[p + 1]), in arc order, each with
/// kSinkFlag set when the target is a sink in that snapshot. word_ranks[i]
/// counts the set bits of active_bits' words before word i (PairIndex).
/// The targets keep the capacity of the sampler's kept-index buffer, which
/// is sized from the expected kept arcs.
struct SnapshotArrays {
  std::vector<uint64_t> active_bits;
  std::vector<uint32_t> word_ranks;
  std::vector<uint32_t> pair_offsets;
  std::vector<graph::NodeId> targets;
  /// The sampler's high-water mark in bytes: the larger of the draws, the
  /// kept-index buffer and the snapshot bounds while drawing, and the same
  /// without the thresholds plus the bitmap, word ranks and pair offsets
  /// while building.
  size_t peak_bytes = 0;

  /// 12 bytes per bitmap word, 4 per active pair (plus 4) and 4 per entry
  /// of the targets' capacity.
  size_t bytes() const {
    return CapacityBytes(active_bits) + CapacityBytes(word_ranks) +
           CapacityBytes(pair_offsets) + CapacityBytes(targets);
  }
};

/// Set bits of x, inline: the default build has no -mpopcnt, where
/// std::popcount is a library call.
inline uint32_t PopCount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555;
  x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f;
  return static_cast<uint32_t>((x * 0x0101010101010101) >> 56);
}

/// The set bits below `bit` of a bitmap with per-word ranks: its word's
/// rank plus the set bits below it in the word. For a set bit of
/// SnapshotArrays::active_bits this is its pair number.
inline uint32_t PairIndex(const uint64_t* bits, const uint32_t* word_ranks,
                          size_t bit) {
  const uint64_t below = (uint64_t{1} << (bit & 63)) - 1;
  return word_ranks[bit >> 6] + PopCount64(bits[bit >> 6] & below);
}

/// The source of draw j (SnapshotDraws): the sources whose last draw lies
/// below j come before it.
inline graph::NodeId SourceOf(const SnapshotDraws& d, size_t j) {
  return d.sources[PairIndex(d.last_bits.data(), d.last_ranks.data(), j)];
}

/// Checks the shape (n nodes, m arcs, W snapshots) against what the arrays
/// can index, before anything is allocated: W > 0, n <= kMaxSnapshotNodes,
/// and W · max(m, 1) <= UINT32_MAX (targets and pair offsets are 32-bit).
Status CheckSnapshotShape(size_t num_nodes, size_t num_arcs,
                          size_t num_snapshots);

/// Every sampler returns the same arrays: those of one Rng(seed) stream
/// consumed in snapshot and draw order. A sampler consumes its draws: it
/// releases the thresholds once every draw is taken, before it allocates
/// the bitmap, the word ranks and the pair offsets.
using SnapshotSampler = SnapshotArrays (*)(SnapshotDraws draws,
                                           size_t num_snapshots,
                                           uint64_t seed);

/// The reference loop: one stream, one draw at a time.
SnapshotArrays SampleSnapshotsScalar(SnapshotDraws draws,
                                     size_t num_snapshots, uint64_t seed);

/// The four-lane AVX2 sampler with each lane's target region holding
/// `region` entries; a lane that would overrun it falls back to the scalar
/// loop. Exposed so tests can force that fallback. Requires an AVX2 CPU on
/// x86 builds; elsewhere it is the scalar loop.
SnapshotArrays SampleSnapshotsLanes(SnapshotDraws draws,
                                    size_t num_snapshots, uint64_t seed,
                                    size_t region);

/// The four-lane sampler when the executing CPU has AVX2 and `force_scalar`
/// is unset, else the scalar loop. Pure function of (cpuid, force_scalar).
SnapshotSampler ResolveSnapshotSampler(bool force_scalar);

/// The process-wide sampler, resolved once from cpuid and
/// INFLEX_FORCE_SCALAR.
SnapshotSampler ActiveSnapshotSampler();

}  // namespace internal
}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_SNAPSHOT_SAMPLER_H_

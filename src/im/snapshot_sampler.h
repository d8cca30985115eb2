#ifndef INFLEX_IM_SNAPSHOT_SAMPLER_H_
#define INFLEX_IM_SNAPSHOT_SAMPLER_H_

// Internal to SnapshotSpreadOracle::Create: the live-edge samplers that fill
// its snapshot adjacency, exposed so tests can pin each variant.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/topic_graph.h"
#include "simplex/topic_distribution.h"
#include "util/status.h"

namespace inflex {
namespace im {
namespace internal {

/// Bytes a vector holds: its capacity, not its size.
template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Binary digits of a trial that a sampler takes from the point's xoshiro
/// stream, one 64-bit word per digit per block of 64 arcs. Fixed, so the
/// stream position of every word depends only on the shape.
inline constexpr size_t kStreamDigits = 12;

/// The graph's arc → source lookup, the same for every item, so one serves
/// all of a build's index points: bit a of last_bits is set iff arc a is its
/// source's last out-arc, last_ranks[i] counts the set bits of the words
/// before word i, and `sources` are the nodes with an out-arc, ascending, so
/// arc a's source is sources[PairIndex(last_bits, last_ranks, a)]
/// (SourceOf).
struct ArcSources {
  std::vector<uint64_t> last_bits;
  std::vector<uint32_t> last_ranks;
  std::vector<graph::NodeId> sources;

  /// 12 bytes per 64 arcs (rounded up) and 4 per source.
  size_t bytes() const {
    return CapacityBytes(last_bits) + CapacityBytes(last_ranks) +
           CapacityBytes(sources);
  }
};

/// Indexes the sources of g's arcs, each array sized exactly.
ArcSources IndexArcSources(const graph::TopicGraph& g);

/// What a sampler draws against: arc a of snapshot s is a trial u < T with
/// T = floor(p · 2⁶⁴) and u a uniform 64-bit integer, settled one binary
/// digit at a time from the top; p >= 1 (+inf included) always keeps, p <= 0
/// and NaN never do. Arcs go in blocks of 64 (arc a is bit a % 64 of block
/// a / 64); word b · kStreamDigits + d of `planes` holds digit d of T for
/// block b's arcs (all ones for p >= 1, zero past the last arc). The first
/// kStreamDigits digits of a block's 64 trials are one stream word each;
/// the trials they leave undecided read their later digits from
/// FallbackWord, and their T from the probability, recomputed
/// (Probability).
struct SnapshotPlanes {
  size_t num_arcs = 0;
  std::vector<uint64_t> planes;
  /// Expected kept arcs in one snapshot.
  double expected_kept = 0.0;
  /// Where Probability reads: probs[a] when set, else Eq. 1 of arc a's row
  /// of *graph and *item. Either must outlive the sampling.
  const double* probs = nullptr;
  const graph::TopicGraph* graph = nullptr;
  const simplex::TopicDistribution* item = nullptr;

  size_t num_blocks() const { return (num_arcs + 63) / 64; }
  double Probability(size_t a) const {
    return probs != nullptr
               ? probs[a]
               : graph->ItemArcProbability(static_cast<graph::ArcId>(a),
                                           *item);
  }
  /// 8 bytes per plane word: kStreamDigits words per 64 arcs.
  size_t bytes() const { return CapacityBytes(planes); }
};

/// The planes of an arc-probability vector; it must outlive the sampling.
SnapshotPlanes PlanesFromProbabilities(std::span<const double> probs);

/// The planes of g's IC instance for `item` (Eq. 1), computed block by block
/// with ItemArcProbabilitiesRange's bits, so they equal those of
/// g.ItemArcProbabilities(item) without holding that vector. g and item
/// must outlive the sampling.
SnapshotPlanes PlanesFromMixture(const graph::TopicGraph& g,
                                 const simplex::TopicDistribution& item);

/// The random word of digit `digit` (kStreamDigits .. 63) of block `block`
/// in snapshot `snapshot`: a counter-based hash of the four, so a trial's
/// later digits do not depend on which sampler or lane reaches them.
uint64_t FallbackWord(uint64_t seed, uint64_t snapshot, uint64_t block,
                      unsigned digit);

/// The digit rule past the stream's digits: settles the `open` trials of
/// block `block` in snapshot `snapshot` (those whose first kStreamDigits
/// digits equal T's) from FallbackWord, and returns those it keeps.
uint64_t SettleOpenTrials(const SnapshotPlanes& planes, uint64_t seed,
                          size_t snapshot, size_t block, uint64_t open);

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
  /// The sampler's high-water mark in bytes: the larger of the planes, the
  /// kept-index buffer and the snapshot bounds while drawing, and the same
  /// without the planes plus the bitmap, word ranks and pair offsets while
  /// building. The shared ArcSources are not counted.
  size_t peak_bytes = 0;
  /// Stream words taken (W · B · kStreamDigits) and (snapshot, block) pairs
  /// that left a trial open for SettleOpenTrials.
  uint64_t draws = 0;
  uint64_t fallback_blocks = 0;

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

/// The source of arc a.
inline graph::NodeId SourceOf(const ArcSources& d, size_t a) {
  return d.sources[PairIndex(d.last_bits.data(), d.last_ranks.data(), a)];
}

/// Checks the shape (n nodes, m arcs, W snapshots) against what the arrays
/// can index, before anything is allocated: W > 0, n <= kMaxSnapshotNodes,
/// and W · max(m, 1) <= UINT32_MAX (targets and pair offsets are 32-bit).
Status CheckSnapshotShape(size_t num_nodes, size_t num_arcs,
                          size_t num_snapshots);

/// Every sampler returns the same arrays: those of the digit rule
/// (SnapshotPlanes) with one Rng(seed) stream, whose word (s · B + b) ·
/// kStreamDigits + d is digit d of block b's trials in snapshot s (B blocks
/// per snapshot). A sampler consumes its planes: it releases them once
/// every trial is settled, before it allocates the bitmap, the word ranks
/// and the pair offsets. Kept arcs' targets are read from g.
using SnapshotSampler = SnapshotArrays (*)(const graph::TopicGraph& g,
                                           const ArcSources& sources,
                                           SnapshotPlanes planes,
                                           size_t num_snapshots,
                                           uint64_t seed);

/// The reference loop: one stream, one block of one snapshot at a time.
SnapshotArrays SampleSnapshotsScalar(const graph::TopicGraph& g,
                                     const ArcSources& sources,
                                     SnapshotPlanes planes,
                                     size_t num_snapshots, uint64_t seed);

/// The four-lane AVX2 sampler with each lane's target region holding
/// `region` entries; a lane that would overrun it falls back to the scalar
/// loop. Exposed so tests can force that fallback. Requires an AVX2 CPU on
/// x86 builds; elsewhere it is the scalar loop.
SnapshotArrays SampleSnapshotsLanes(const graph::TopicGraph& g,
                                    const ArcSources& sources,
                                    SnapshotPlanes planes,
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

// Live-edge snapshot sampling by bit planes: a block of 64 arcs of one
// snapshot takes one random word per binary digit. The scalar loop is the
// reference; the AVX2 sampler must reproduce its arrays bit for bit (im_test
// pins both against a one-trial-at-a-time reference of the digit rule,
// DESIGN.md §10).
#include "im/snapshot_sampler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <span>

#include "util/cpu_features.h"
#include "util/random.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define INFLEX_SAMPLER_X86 1
#include <immintrin.h>
#endif

namespace inflex {
namespace im {
namespace internal {

namespace {

// The kStreamDigits digits of one block, taken from the stream.
constexpr size_t kDigits = kStreamDigits;

// T's first kDigits digits, as an integer: floor(p · 2^kDigits).
constexpr double kTopScale = static_cast<double>(uint64_t{1} << kDigits);

// Buffer room for `expected` kept arcs: 1/32 over the expectation plus 64,
// so an overshoot that forces a resize is rare.
size_t Headroom(double expected) {
  return static_cast<size_t>(expected + expected / 32.0) + 64;
}

// The bits of block b's arcs that exist: all 64 but in a partial last block.
uint64_t LiveArcs(size_t num_arcs, size_t b) {
  const size_t rest = num_arcs - 64 * b;
  return rest >= 64 ? ~uint64_t{0} : (uint64_t{1} << rest) - 1;
}

// SplitMix64's finalizer, a bijection of 64-bit words.
uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Writes block planes out[0 .. kDigits) from the probabilities of its first
// `count` arcs (the rest are zero) and returns their expected keeps. Each
// arc's first kDigits digits are split into a low byte and a high one; a
// multiply gathers one digit of eight arcs' bytes into eight bits.
double FillBlock(const double* p, size_t count, uint64_t* out) {
  static_assert(kDigits > 8 && kDigits <= 16);
  uint8_t low[64] = {};
  uint8_t high[64] = {};
  double expected = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // NaN and p <= 0 clamp to 0, p >= 1 to 1, whose digits are all ones;
    // for p in (0, 1), floor(p · 2^kDigits) is T's first kDigits digits.
    const double q = p[i] > 0.0 ? std::min(p[i], 1.0) : 0.0;
    expected += q;
    const auto top =
        static_cast<uint32_t>(std::min(q * kTopScale, kTopScale - 1.0));
    low[i] = static_cast<uint8_t>(top);
    high[i] = static_cast<uint8_t>(top >> 8);
  }
  // Byte k of group g's words belongs to arc 8g + k.
  uint64_t low_group[8];
  uint64_t high_group[8];
  for (size_t g = 0; g < 8; ++g) {
    uint64_t lw = 0, hw = 0;
    for (size_t k = 0; k < 8; ++k) {
      lw |= uint64_t{low[8 * g + k]} << (8 * k);
      hw |= uint64_t{high[8 * g + k]} << (8 * k);
    }
    low_group[g] = lw;
    high_group[g] = hw;
  }
  for (size_t d = 0; d < kDigits; ++d) {
    const size_t bit = kDigits - 1 - d;
    const uint64_t* group = bit >= 8 ? high_group : low_group;
    uint64_t word = 0;
    for (size_t g = 0; g < 8; ++g) {
      // Bit 0 of byte k lands on bit 56 + k: the multiplier's terms put
      // every other byte's bit elsewhere, and no two terms collide.
      const uint64_t bits = (group[g] >> (bit & 7)) & 0x0101010101010101ULL;
      word |= ((bits * 0x0102040810204080ULL) >> 56) << (8 * g);
    }
    out[d] = word;
  }
  return expected;
}

// The lowest set bit of x, or 63 when x is 0: with the top bit forced, the
// count needs no branch for a zero word.
inline size_t LowestBit(uint64_t x) {
  return static_cast<size_t>(std::countr_zero(x | (uint64_t{1} << 63)));
}

// Appends base + i for each set bit i of `keep`, ascending, at dst[len],
// and returns the new length. dst has room for 64 entries past len, so the
// first two are written whether or not they exist: only a word of three or
// more kept arcs takes a branch the predictor can miss.
inline size_t AppendKept(uint64_t keep, size_t base, graph::NodeId* dst,
                         size_t len) {
  const uint64_t rest = keep & (keep - 1);
  dst[len] = static_cast<graph::NodeId>(base + LowestBit(keep));
  dst[len + 1] = static_cast<graph::NodeId>(base + LowestBit(rest));
  const size_t count = PopCount64(keep);
  if (count > 2) {
    size_t at = len + 2;
    for (uint64_t more = rest & (rest - 1); more != 0; more &= more - 1) {
      dst[at++] = static_cast<graph::NodeId>(base + LowestBit(more));
    }
  }
  return len + count;
}

// Samples snapshots [s_begin, s_end) from *rng_io (advanced past them),
// appending each kept arc to `kept` at *len_io (advanced) and recording where
// snapshot s starts in bounds[s]. The buffer grows, on the rare overshoot,
// before a block that could overrun it. Returns the blocks that left a
// trial open.
uint64_t SampleRange(const SnapshotPlanes& pl, uint64_t seed, size_t s_begin,
                     size_t s_end, Rng* rng_io, uint32_t* bounds,
                     std::vector<graph::NodeId>* kept, uint32_t* len_io) {
  const size_t num_blocks = pl.num_blocks();
  const uint64_t* planes = pl.planes.data();
  // Local copies stay in registers; stores into `kept` could alias *len_io.
  Rng rng = *rng_io;
  size_t len = *len_io;
  uint64_t fallbacks = 0;
  for (size_t s = s_begin; s < s_end; ++s) {
    bounds[s] = static_cast<uint32_t>(len);
    for (size_t b = 0; b < num_blocks; ++b) {
      if (len + 64 > kept->size()) {
        kept->resize(std::max(2 * kept->size(), len + 64));
      }
      const uint64_t* t = planes + b * kDigits;
      uint64_t open = LiveArcs(pl.num_arcs, b);
      uint64_t keep = 0;
      for (size_t d = 0; d < kDigits; ++d) {
        const uint64_t r = rng.Next();
        keep |= open & t[d] & ~r;
        open &= ~(r ^ t[d]);
      }
      if (open != 0) {
        ++fallbacks;
        keep |= SettleOpenTrials(pl, seed, s, b, open);
      }
      len = AppendKept(keep, 64 * b, kept->data(), len);
    }
  }
  *rng_io = rng;
  *len_io = static_cast<uint32_t>(len);
  return fallbacks;
}

// Turns the `len` kept arcs of W snapshots (snapshot s's from
// kept[bounds[s]] on, ascending) into the snapshot arrays, in place, once
// every trial is settled. A snapshot's arcs ascend, so its sources ascend
// and each source's kept arcs are adjacent: a pair starts wherever the
// source changes. After releasing the planes, the first pass sets each
// pair's bit; the word ranks, a prefix sum of the bitmap's word counts, give
// the pair count. The second writes the pair offsets, and each arc's
// target, with its sink flag, over the arc. Both passes are branch-free:
// SourceOf is a rank, and a pair offset is written at every arc but kept
// only where a pair starts.
SnapshotArrays BuildArrays(const graph::TopicGraph& g, const ArcSources& src,
                           SnapshotPlanes planes, std::vector<uint32_t> bounds,
                           std::vector<graph::NodeId> kept, uint32_t len) {
  const size_t drawing_bytes =
      planes.bytes() + CapacityBytes(bounds) + CapacityBytes(kept);
  std::vector<uint64_t>().swap(planes.planes);
  const size_t n = g.num_nodes();
  const size_t num_snapshots = bounds.size() - 1;
  bounds[num_snapshots] = len;
  kept.resize(len);
  SnapshotArrays out;
  out.active_bits.assign((num_snapshots * n + 63) / 64, 0);
  uint64_t* bits = out.active_bits.data();
  for (size_t s = 0; s < num_snapshots; ++s) {
    for (uint32_t k = bounds[s]; k < bounds[s + 1]; ++k) {
      // Setting a pair's bit again is harmless.
      const size_t bit = s * n + SourceOf(src, kept[k]);
      bits[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
  out.word_ranks.resize(out.active_bits.size());
  uint32_t num_pairs = 0;
  for (size_t i = 0; i < out.active_bits.size(); ++i) {
    out.word_ranks[i] = num_pairs;
    num_pairs += PopCount64(bits[i]);
  }
  out.pair_offsets.resize(num_pairs + 1);
  out.peak_bytes =
      std::max(drawing_bytes,
               CapacityBytes(bounds) + CapacityBytes(kept) + out.bytes());

  uint32_t* pair_offsets = out.pair_offsets.data();
  uint32_t pair = 0;
  for (size_t s = 0; s < num_snapshots; ++s) {
    const size_t row = s * n;
    size_t prev = n;
    for (uint32_t k = bounds[s]; k < bounds[s + 1]; ++k) {
      const uint32_t a = kept[k];
      const graph::NodeId u = SourceOf(src, a);
      // A later arc overwrites this slot until the next pair starts; the
      // last pair's stray writes land on the end entry, set below.
      pair_offsets[pair] = k;
      pair += u != prev;
      prev = u;
      const graph::NodeId t = g.ArcTarget(a);
      const size_t bit = row + t;
      const bool sink = ((bits[bit >> 6] >> (bit & 63)) & 1) == 0;
      kept[k] = t | (sink ? kSinkFlag : 0);
    }
  }
  pair_offsets[num_pairs] = len;
  out.targets = std::move(kept);
  return out;
}

#ifdef INFLEX_SAMPLER_X86

// Four xoshiro256** streams stepped together, lane l at element l; ×5 and
// ×9 are shift-adds (exact mod 2⁶⁴), rotl two shifts. Lane l samples
// snapshots [l·q, (l+1)·q) into buf[l·region ..), with bounds relative to
// its region start; every lane settles the same block at once, against the
// same planes. Returns false, leaving lens unset, when a lane would overrun
// its region.
__attribute__((target("avx2"))) bool SampleLanesAvx2(
    const SnapshotPlanes& pl, uint64_t seed, size_t q,
    const std::array<uint64_t, 4> (&st)[4], size_t region, uint32_t* bounds,
    graph::NodeId* buf, size_t (&lens)[4], uint64_t* fallbacks) {
  const size_t num_blocks = pl.num_blocks();
  const uint64_t* planes = pl.planes.data();
  // A block appends at most 64 entries past a lane's len, so a lane within
  // `limit` before each block stays inside its region.
  if (region < 64) return false;
  const size_t limit = region - 64;
  __m256i lane_word[4];
  for (int w = 0; w < 4; ++w) {
    lane_word[w] = _mm256_set_epi64x(
        static_cast<int64_t>(st[3][w]), static_cast<int64_t>(st[2][w]),
        static_cast<int64_t>(st[1][w]), static_cast<int64_t>(st[0][w]));
  }
  __m256i s0 = lane_word[0], s1 = lane_word[1], s2 = lane_word[2],
          s3 = lane_word[3];
  graph::NodeId* dst[4] = {buf, buf + region, buf + 2 * region,
                           buf + 3 * region};
  size_t len[4] = {0, 0, 0, 0};
  uint64_t blocks_open = 0;
  alignas(32) uint64_t keep_word[4];
  alignas(32) uint64_t open_word[4];
  for (size_t i = 0; i < q; ++i) {
    for (size_t l = 0; l < 4; ++l) {
      bounds[l * q + i] = static_cast<uint32_t>(len[l]);
    }
    for (size_t b = 0; b < num_blocks; ++b) {
      if (std::max({len[0], len[1], len[2], len[3]}) > limit) return false;
      const uint64_t* t = planes + b * kDigits;
      __m256i open = _mm256_set1_epi64x(
          static_cast<int64_t>(LiveArcs(pl.num_arcs, b)));
      __m256i keep = _mm256_setzero_si256();
      // Unrolled, the digits' xoshiro steps overlap across iterations.
#pragma GCC unroll 12
      for (size_t d = 0; d < kDigits; ++d) {
        const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
        const __m256i rot =
            _mm256_or_si256(_mm256_slli_epi64(x5, 7), _mm256_srli_epi64(x5, 57));
        const __m256i r = _mm256_add_epi64(_mm256_slli_epi64(rot, 3), rot);
        const __m256i sh = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, sh);
        s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45),
                             _mm256_srli_epi64(s3, 19));
        const __m256i td = _mm256_set1_epi64x(static_cast<int64_t>(t[d]));
        keep = _mm256_or_si256(
            keep, _mm256_and_si256(open, _mm256_andnot_si256(r, td)));
        open = _mm256_andnot_si256(_mm256_xor_si256(r, td), open);
      }
      _mm256_store_si256(reinterpret_cast<__m256i*>(keep_word), keep);
      if (!_mm256_testz_si256(open, open)) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(open_word), open);
        for (size_t l = 0; l < 4; ++l) {
          if (open_word[l] == 0) continue;
          ++blocks_open;
          keep_word[l] |=
              SettleOpenTrials(pl, seed, l * q + i, b, open_word[l]);
        }
      }
      for (size_t l = 0; l < 4; ++l) {
        len[l] = AppendKept(keep_word[l], 64 * b, dst[l], len[l]);
      }
    }
  }
  for (size_t l = 0; l < 4; ++l) lens[l] = len[l];
  *fallbacks = blocks_open;
  return true;
}

#endif  // INFLEX_SAMPLER_X86

SnapshotArrays SampleSnapshotsAvx2(const graph::TopicGraph& g,
                                   const ArcSources& sources,
                                   SnapshotPlanes planes, size_t num_snapshots,
                                   uint64_t seed) {
  const size_t region =
      Headroom(planes.expected_kept * static_cast<double>(num_snapshots / 4)) +
      64;
  return SampleSnapshotsLanes(g, sources, std::move(planes), num_snapshots,
                              seed, region);
}

}  // namespace

Status CheckSnapshotShape(size_t num_nodes, size_t num_arcs,
                          size_t num_snapshots) {
  if (num_snapshots == 0) {
    return Status::InvalidArgument("num_snapshots must be positive");
  }
  if (num_nodes > kMaxSnapshotNodes) {
    return Status::InvalidArgument(
        "num_nodes exceeds the snapshot targets' 31-bit node ids");
  }
  if (num_snapshots >
      std::numeric_limits<uint32_t>::max() / std::max<size_t>(num_arcs, 1)) {
    return Status::InvalidArgument(
        "num_snapshots * num_arcs exceeds the 32-bit snapshot offsets");
  }
  return Status::OK();
}

ArcSources IndexArcSources(const graph::TopicGraph& g) {
  const size_t n = g.num_nodes();
  size_t num_sources = 0;
  for (graph::NodeId u = 0; u < n; ++u) num_sources += g.OutDegree(u) > 0;
  ArcSources d;
  d.last_bits.assign((g.num_arcs() + 63) / 64, 0);
  d.last_ranks.resize(d.last_bits.size());
  d.sources.resize(num_sources);
  size_t src = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    const size_t degree = g.OutDegree(u);
    if (degree == 0) continue;
    const size_t last = g.OutArcBegin(u) + degree - 1;
    d.last_bits[last >> 6] |= uint64_t{1} << (last & 63);
    d.sources[src++] = u;
  }
  uint32_t rank = 0;
  for (size_t w = 0; w < d.last_bits.size(); ++w) {
    d.last_ranks[w] = rank;
    rank += PopCount64(d.last_bits[w]);
  }
  return d;
}

SnapshotPlanes PlanesFromProbabilities(std::span<const double> probs) {
  SnapshotPlanes pl;
  pl.num_arcs = probs.size();
  pl.probs = probs.data();
  pl.planes.resize(pl.num_blocks() * kDigits);
  for (size_t b = 0; b < pl.num_blocks(); ++b) {
    const size_t count = std::min<size_t>(64, pl.num_arcs - 64 * b);
    pl.expected_kept += FillBlock(probs.data() + 64 * b, count,
                                  pl.planes.data() + b * kDigits);
  }
  return pl;
}

SnapshotPlanes PlanesFromMixture(const graph::TopicGraph& g,
                                 const simplex::TopicDistribution& item) {
  SnapshotPlanes pl;
  pl.num_arcs = g.num_arcs();
  pl.graph = &g;
  pl.item = &item;
  pl.planes.resize(pl.num_blocks() * kDigits);
  double p[64];
  for (size_t b = 0; b < pl.num_blocks(); ++b) {
    const size_t count = std::min<size_t>(64, pl.num_arcs - 64 * b);
    g.ItemArcProbabilitiesRange(item, static_cast<graph::ArcId>(64 * b),
                                static_cast<graph::ArcId>(64 * b + count), p);
    pl.expected_kept += FillBlock(p, count, pl.planes.data() + b * kDigits);
  }
  return pl;
}

uint64_t FallbackWord(uint64_t seed, uint64_t snapshot, uint64_t block,
                      unsigned digit) {
  // Each step is a bijection of its input, so within one snapshot of one
  // seed, distinct (block, digit) keys never share a word.
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  uint64_t h = Mix(seed + kGolden);
  h = Mix(h + snapshot * kGolden);
  return Mix(h + ((block << 6) | digit) * kGolden);
}

uint64_t SettleOpenTrials(const SnapshotPlanes& planes, uint64_t seed,
                          size_t snapshot, size_t block, uint64_t open) {
  // Each open trial's T, from its probability; p >= 1 keeps outright.
  uint64_t threshold[64] = {};
  uint64_t keep = 0;
  for (uint64_t rest = open; rest != 0; rest &= rest - 1) {
    const int i = std::countr_zero(rest);
    const double p = planes.Probability(64 * block + i);
    if (p >= 1.0) {
      keep |= uint64_t{1} << i;
      open &= ~(uint64_t{1} << i);
    } else if (p > 0.0) {
      // Exact: p · 2⁶⁴ < 2⁶⁴ is a power-of-two scaling.
      threshold[i] = static_cast<uint64_t>(p * 0x1p64);
    }
  }
  // The stream's digit rule on T's later digits. A trial still open after
  // the last digit has u = T, which is not below T.
  for (unsigned d = kDigits; d < 64 && open != 0; ++d) {
    const uint64_t r = FallbackWord(seed, snapshot, block, d);
    uint64_t t = 0;
    for (uint64_t rest = open; rest != 0; rest &= rest - 1) {
      const int i = std::countr_zero(rest);
      t |= ((threshold[i] >> (63 - d)) & 1) << i;
    }
    keep |= open & t & ~r;
    open &= ~(r ^ t);
  }
  return keep;
}

SnapshotArrays SampleSnapshotsScalar(const graph::TopicGraph& g,
                                     const ArcSources& sources,
                                     SnapshotPlanes planes,
                                     size_t num_snapshots, uint64_t seed) {
  std::vector<uint32_t> bounds(num_snapshots + 1);
  std::vector<graph::NodeId> kept(
      Headroom(planes.expected_kept * static_cast<double>(num_snapshots)) + 64);
  uint32_t len = 0;
  Rng rng(seed);
  const uint64_t fallbacks = SampleRange(planes, seed, 0, num_snapshots, &rng,
                                         bounds.data(), &kept, &len);
  const uint64_t draws = num_snapshots * planes.num_blocks() * kDigits;
  SnapshotArrays out = BuildArrays(g, sources, std::move(planes),
                                   std::move(bounds), std::move(kept), len);
  out.draws = draws;
  out.fallback_blocks = fallbacks;
  return out;
}

SnapshotArrays SampleSnapshotsLanes(const graph::TopicGraph& g,
                                    const ArcSources& sources,
                                    SnapshotPlanes planes,
                                    size_t num_snapshots, uint64_t seed,
                                    size_t region) {
#ifdef INFLEX_SAMPLER_X86
  // Four contiguous runs of q snapshots, lane l starting at word
  // l · q · B · kDigits of the one stream; the W − 4q leftovers continue
  // lane 3's stream in the scalar loop.
  const size_t q = num_snapshots / 4;
  const size_t words = planes.num_blocks() * kDigits;
  if (q == 0 || words == 0) {
    return SampleSnapshotsScalar(g, sources, std::move(planes), num_snapshots,
                                 seed);
  }
  std::array<uint64_t, 4> states[4];
  for (size_t l = 0; l < 4; ++l) {
    Rng lane(seed);
    lane.Advance(l * q * words);
    states[l] = lane.state();
  }
  std::vector<uint32_t> bounds(num_snapshots + 1);
  // One buffer of four lane regions, compacted in place below: separate
  // lane buffers concatenated afterwards would double the peak footprint.
  std::vector<graph::NodeId> kept(
      4 * region +
      Headroom(planes.expected_kept *
               static_cast<double>(num_snapshots - 4 * q)) +
      64);
  size_t lens[4];
  uint64_t fallbacks = 0;
  if (!SampleLanesAvx2(planes, seed, q, states, region, bounds.data(),
                       kept.data(), lens, &fallbacks)) {
    const size_t lanes_bytes =
        planes.bytes() + CapacityBytes(bounds) + CapacityBytes(kept);
    std::vector<uint32_t>().swap(bounds);
    std::vector<graph::NodeId>().swap(kept);
    SnapshotArrays out = SampleSnapshotsScalar(g, sources, std::move(planes),
                                               num_snapshots, seed);
    out.peak_bytes = std::max(out.peak_bytes, lanes_bytes);
    return out;
  }
  uint32_t len = 0;
  for (size_t l = 0; l < 4; ++l) {
    std::memmove(kept.data() + len, kept.data() + l * region,
                 lens[l] * sizeof(graph::NodeId));
    for (size_t i = l * q; i < (l + 1) * q; ++i) bounds[i] += len;
    len += static_cast<uint32_t>(lens[l]);
  }
  Rng tail(seed);
  tail.Advance(4 * q * words);
  fallbacks += SampleRange(planes, seed, 4 * q, num_snapshots, &tail,
                           bounds.data(), &kept, &len);
  SnapshotArrays out = BuildArrays(g, sources, std::move(planes),
                                   std::move(bounds), std::move(kept), len);
  out.draws = num_snapshots * words;
  out.fallback_blocks = fallbacks;
  return out;
#else
  (void)region;
  return SampleSnapshotsScalar(g, sources, std::move(planes), num_snapshots,
                               seed);
#endif
}

SnapshotSampler ResolveSnapshotSampler(bool force_scalar) {
  if (force_scalar || !util::CpuHasAvx2()) {
    return SampleSnapshotsScalar;
  }
  return SampleSnapshotsAvx2;
}

SnapshotSampler ActiveSnapshotSampler() {
  static const SnapshotSampler active =
      ResolveSnapshotSampler(util::ForceScalarFromEnv());
  return active;
}

}  // namespace internal
}  // namespace im
}  // namespace inflex

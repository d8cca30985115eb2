// Live-edge snapshot sampling. The scalar loop is the reference; the AVX2
// sampler must reproduce its arrays bit for bit (im_test pins both variants
// against each other, DESIGN.md §10).
#include "im/snapshot_sampler.h"

#include <algorithm>
#include <array>
#include <cmath>
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

// The samplers draw in chunks of this many arcs and make room for all of a
// chunk's arcs to be kept before drawing it.
constexpr size_t kChunk = 256;

// Buffer room for `expected` kept arcs: 1/32 over the expectation plus 64,
// so an overshoot that forces a resize is rare.
size_t Headroom(double expected) {
  return static_cast<size_t>(expected + expected / 32.0) + 64;
}

// Samples snapshots [s_begin, s_end) from *rng_io, appending the draw index
// of each kept arc to `kept` at *len_io (both are advanced) and recording
// where snapshot s starts in bounds[s]. Indices are appended without a
// branch: each draw writes its index at `len` and advances `len` only when
// kept, so the buffer holds room for a whole chunk before it is drawn; it
// grows on the rare overshoot.
void SampleRange(const SnapshotDraws& d, size_t s_begin, size_t s_end,
                 Rng* rng_io, uint32_t* bounds,
                 std::vector<graph::NodeId>* kept, uint32_t* len_io) {
  const size_t m_d = d.num_drawn();
  const uint64_t* thr = d.threshold.data();
  // Local copies stay in registers; stores into `kept` could alias *len_io.
  Rng rng = *rng_io;
  uint32_t len = *len_io;
  for (size_t s = s_begin; s < s_end; ++s) {
    bounds[s] = len;
    for (size_t j0 = 0; j0 < m_d; j0 += kChunk) {
      if (len + kChunk > kept->size()) {
        kept->resize(std::max(2 * kept->size(), len + kChunk));
      }
      graph::NodeId* dst = kept->data();
      const size_t j1 = std::min(m_d, j0 + kChunk);
      for (size_t j = j0; j < j1; ++j) {
        dst[len] = static_cast<graph::NodeId>(j);
        len += (rng.Next() >> 11) < thr[j];
      }
    }
  }
  *rng_io = rng;
  *len_io = len;
}

// Turns the `len` kept draw indices of W snapshots (snapshot s's from
// kept[bounds[s]] on, ascending) into the snapshot arrays, in place, once
// every draw is taken. A snapshot's indices ascend, so its sources ascend
// and each source's kept arcs are adjacent: a pair starts wherever the
// source changes. After releasing the thresholds, the first pass sets each
// pair's bit and counts the pairs and each source's active snapshots; the
// second writes the pair offsets and the active lists, and each index's
// target, with its sink flag, over the index; the word ranks are a prefix
// sum of the bitmap's word counts.
SnapshotArrays BuildArrays(SnapshotDraws d, std::vector<uint32_t> bounds,
                           std::vector<graph::NodeId> kept, uint32_t len) {
  std::vector<uint64_t>().swap(d.threshold);
  const size_t n = d.num_nodes;
  const size_t num_snapshots = bounds.size() - 1;
  bounds[num_snapshots] = len;
  kept.resize(len);
  SnapshotArrays out;
  out.active_bits.assign((num_snapshots * n + 63) / 64, 0);
  out.active_offsets.assign(n + 1, 0);
  uint64_t* bits = out.active_bits.data();
  uint32_t num_pairs = 0;
  for (size_t s = 0; s < num_snapshots; ++s) {
    // Branch-free: setting a pair's bit again is harmless.
    size_t prev = n;
    for (uint32_t k = bounds[s]; k < bounds[s + 1]; ++k) {
      const graph::NodeId u = d.source[kept[k]];
      const uint32_t fresh = u != prev;
      prev = u;
      const size_t bit = s * n + u;
      bits[bit >> 6] |= uint64_t{1} << (bit & 63);
      out.active_offsets[u + 1] += fresh;
      num_pairs += fresh;
    }
  }
  uint32_t sum = 0;
  for (uint32_t& o : out.active_offsets) o = sum += o;

  out.pair_offsets.resize(num_pairs + 1);
  out.active_snapshots.resize(out.active_offsets[n]);
  std::vector<uint32_t> cursor(out.active_offsets.begin(),
                               out.active_offsets.end() - 1);
  uint32_t pair = 0;
  for (size_t s = 0; s < num_snapshots; ++s) {
    const size_t row = s * n;
    size_t prev = n;
    for (uint32_t k = bounds[s]; k < bounds[s + 1]; ++k) {
      const graph::NodeId u = d.source[kept[k]];
      if (u != prev) {
        out.pair_offsets[pair++] = k;
        out.active_snapshots[cursor[u]++] = static_cast<uint32_t>(s);
        prev = u;
      }
      const graph::NodeId t = d.target[kept[k]];
      const size_t bit = row + t;
      const bool sink = ((bits[bit >> 6] >> (bit & 63)) & 1) == 0;
      kept[k] = t | (sink ? kSinkFlag : 0);
    }
  }
  out.pair_offsets[num_pairs] = len;
  out.word_ranks.resize(out.active_bits.size());
  sum = 0;
  for (size_t i = 0; i < out.active_bits.size(); ++i) {
    out.word_ranks[i] = sum;
    sum += PopCount64(bits[i]);
  }
  out.targets = std::move(kept);
  return out;
}

#ifdef INFLEX_SAMPLER_X86

// Four xoshiro256** streams stepped together, lane l at element l; ×5 and
// ×9 are shift-adds (exact mod 2⁶⁴), rotl two shifts. Lane l samples
// snapshots [l·b, (l+1)·b) into buf[l·region ..), with bounds relative to
// its region start. Returns false, leaving lens unset, when a lane would
// overrun its region.
__attribute__((target("avx2"))) bool SampleLanesAvx2(
    const SnapshotDraws& d, size_t b, const std::array<uint64_t, 4> (&st)[4],
    size_t region, uint32_t* bounds, graph::NodeId* buf, size_t (&lens)[4]) {
  const size_t m_d = d.num_drawn();
  const uint64_t* thr = d.threshold.data();
  // A chunk writes at most kChunk entries past a lane's len, so a lane
  // within `limit` before each chunk stays inside its region.
  if (region < kChunk) return false;
  const size_t limit = region - kChunk;
  __m256i lane_word[4];
  for (int w = 0; w < 4; ++w) {
    lane_word[w] = _mm256_set_epi64x(
        static_cast<int64_t>(st[3][w]), static_cast<int64_t>(st[2][w]),
        static_cast<int64_t>(st[1][w]), static_cast<int64_t>(st[0][w]));
  }
  __m256i s0 = lane_word[0], s1 = lane_word[1], s2 = lane_word[2],
          s3 = lane_word[3];
  graph::NodeId* dst0 = buf;
  graph::NodeId* dst1 = buf + region;
  graph::NodeId* dst2 = buf + 2 * region;
  graph::NodeId* dst3 = buf + 3 * region;
  size_t len0 = 0, len1 = 0, len2 = 0, len3 = 0;
  for (size_t i = 0; i < b; ++i) {
    bounds[i] = static_cast<uint32_t>(len0);
    bounds[b + i] = static_cast<uint32_t>(len1);
    bounds[2 * b + i] = static_cast<uint32_t>(len2);
    bounds[3 * b + i] = static_cast<uint32_t>(len3);
    for (size_t j0 = 0; j0 < m_d; j0 += kChunk) {
      if (std::max({len0, len1, len2, len3}) > limit) return false;
      const size_t j1 = std::min(m_d, j0 + kChunk);
      for (size_t j = j0; j < j1; ++j) {
        const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
        const __m256i rot =
            _mm256_or_si256(_mm256_slli_epi64(x5, 7), _mm256_srli_epi64(x5, 57));
        const __m256i draw = _mm256_add_epi64(_mm256_slli_epi64(rot, 3), rot);
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45),
                             _mm256_srli_epi64(s3, 19));
        // Both sides are below 2⁶³, so the signed compare is exact.
        const __m256i keep =
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(thr[j])),
                               _mm256_srli_epi64(draw, 11));
        const unsigned mask = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(keep)));
        // Most draws keep the arc in no lane; skip the appends then.
        if (mask == 0) continue;
        const graph::NodeId index = static_cast<graph::NodeId>(j);
        dst0[len0] = index;
        len0 += mask & 1;
        dst1[len1] = index;
        len1 += (mask >> 1) & 1;
        dst2[len2] = index;
        len2 += (mask >> 2) & 1;
        dst3[len3] = index;
        len3 += mask >> 3;
      }
    }
  }
  lens[0] = len0;
  lens[1] = len1;
  lens[2] = len2;
  lens[3] = len3;
  return true;
}

#endif  // INFLEX_SAMPLER_X86

SnapshotArrays SampleSnapshotsAvx2(SnapshotDraws draws, size_t num_snapshots,
                                   uint64_t seed) {
  const size_t region =
      Headroom(draws.expected_kept * static_cast<double>(num_snapshots / 4)) +
      kChunk;
  return SampleSnapshotsLanes(std::move(draws), num_snapshots, seed, region);
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

SnapshotDraws PrepareDraws(const graph::TopicGraph& g,
                           const graph::ArcProbabilities& arc_probs) {
  constexpr uint64_t kAlwaysKeep = uint64_t{1} << 53;
  SnapshotDraws d;
  d.num_nodes = g.num_nodes();
  d.threshold.resize(g.num_arcs());
  d.source.resize(g.num_arcs());
  d.target.resize(g.num_arcs());
  uint64_t* thr = d.threshold.data();
  graph::NodeId* source = d.source.data();
  graph::NodeId* target = d.target.data();
  size_t i = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::span<const graph::NodeId> out = g.OutNeighbors(u);
    const double* p = arc_probs.data() + g.OutArcBegin(u);
    for (size_t j = 0; j < out.size(); ++j) {
      if (!(p[j] > 0.0)) continue;
      if (p[j] >= 1.0) {
        thr[i] = kAlwaysKeep;
        d.expected_kept += 1.0;
      } else {
        // Any p in (0, 1) has a threshold of at least 1.
        thr[i] = static_cast<uint64_t>(std::ceil(p[j] * 0x1p53));
        d.expected_kept += p[j];
      }
      source[i] = u;
      target[i] = out[j];
      ++i;
    }
  }
  d.threshold.resize(i);
  d.source.resize(i);
  d.target.resize(i);
  return d;
}

SnapshotArrays SampleSnapshotsScalar(SnapshotDraws draws,
                                     size_t num_snapshots, uint64_t seed) {
  std::vector<uint32_t> bounds(num_snapshots + 1);
  std::vector<graph::NodeId> kept(
      Headroom(draws.expected_kept * static_cast<double>(num_snapshots)) +
      kChunk);
  uint32_t len = 0;
  Rng rng(seed);
  SampleRange(draws, 0, num_snapshots, &rng, bounds.data(), &kept, &len);
  return BuildArrays(std::move(draws), std::move(bounds), std::move(kept),
                     len);
}

SnapshotArrays SampleSnapshotsLanes(SnapshotDraws draws,
                                    size_t num_snapshots, uint64_t seed,
                                    size_t region) {
#ifdef INFLEX_SAMPLER_X86
  // Four contiguous blocks of b snapshots, lane l starting at draw
  // l · b · m_d of the one stream; the W − 4b leftovers continue lane 3's
  // stream in the scalar loop.
  const size_t b = num_snapshots / 4;
  const size_t m_d = draws.num_drawn();
  if (b == 0 || m_d == 0) {
    return SampleSnapshotsScalar(std::move(draws), num_snapshots, seed);
  }
  std::array<uint64_t, 4> states[4];
  for (size_t l = 0; l < 4; ++l) {
    Rng lane(seed);
    lane.Advance(l * b * m_d);
    states[l] = lane.state();
  }
  std::vector<uint32_t> bounds(num_snapshots + 1);
  // One buffer of four lane regions, compacted in place below: separate
  // lane buffers concatenated afterwards would double the peak footprint.
  std::vector<graph::NodeId> kept(
      4 * region +
      Headroom(draws.expected_kept *
               static_cast<double>(num_snapshots - 4 * b)) +
      kChunk);
  size_t lens[4];
  if (!SampleLanesAvx2(draws, b, states, region, bounds.data(), kept.data(),
                       lens)) {
    std::vector<graph::NodeId>().swap(kept);
    return SampleSnapshotsScalar(std::move(draws), num_snapshots, seed);
  }
  uint32_t len = 0;
  for (size_t l = 0; l < 4; ++l) {
    std::memmove(kept.data() + len, kept.data() + l * region,
                 lens[l] * sizeof(graph::NodeId));
    for (size_t i = l * b; i < (l + 1) * b; ++i) bounds[i] += len;
    len += static_cast<uint32_t>(lens[l]);
  }
  Rng tail(seed);
  tail.Advance(4 * b * m_d);
  SampleRange(draws, 4 * b, num_snapshots, &tail, bounds.data(), &kept, &len);
  return BuildArrays(std::move(draws), std::move(bounds), std::move(kept),
                     len);
#else
  (void)region;
  return SampleSnapshotsScalar(std::move(draws), num_snapshots, seed);
#endif
}

SnapshotSampler ResolveSnapshotSampler(bool force_scalar) {
  if (force_scalar || !util::DetectCpuSimd().avx2) {
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

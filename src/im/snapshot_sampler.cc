// Live-edge snapshot sampling. The scalar loop is the reference; the AVX2
// sampler must reproduce its arrays bit for bit (im_test pins both variants
// against each other, DESIGN.md §10).
#include "im/snapshot_sampler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
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

// Buffer room for `expected` kept arcs: 1/32 over the expectation plus 64,
// so an overshoot that forces a resize is rare.
size_t Headroom(double expected) {
  return static_cast<size_t>(expected + expected / 32.0) + 64;
}

// Samples snapshots [s_begin, s_end) from *rng_io, appending kept targets
// to `kept` at *len_io; both are advanced. Kept targets are appended
// without a branch: each drawn arc writes its target at `len` and advances
// `len` only when kept, so the buffer holds room for the node's whole
// out-list before its arcs are drawn; it grows on the rare overshoot.
void SampleRange(const SnapshotDraws& d, size_t s_begin, size_t s_end,
                 Rng* rng_io, uint32_t* offsets,
                 std::vector<graph::NodeId>* kept, uint32_t* len_io) {
  const graph::TopicGraph& g = *d.graph;
  const size_t n = g.num_nodes();
  // Local copies stay in registers; stores into `kept` could alias *len_io.
  Rng rng = *rng_io;
  uint32_t len = *len_io;
  for (size_t s = s_begin; s < s_end; ++s) {
    uint32_t* off = offsets + s * (n + 1);
    off[0] = len;
    for (graph::NodeId u = 0; u < n; ++u) {
      const std::span<const graph::NodeId> out = g.OutNeighbors(u);
      if (len + out.size() > kept->size()) {
        kept->resize(std::max(2 * kept->size(), len + out.size()));
      }
      const uint64_t* thr = d.threshold.data() + g.OutArcBegin(u);
      graph::NodeId* dst = kept->data();
      for (size_t j = 0; j < out.size(); ++j) {
        if (thr[j] == 0) continue;
        dst[len] = out[j];
        len += (rng.Next() >> 11) < thr[j];
      }
      off[u + 1] = len;
    }
  }
  *rng_io = rng;
  *len_io = len;
}

#ifdef INFLEX_SAMPLER_X86

// Four xoshiro256** streams stepped together, lane l at element l; ×5 and
// ×9 are shift-adds (exact mod 2⁶⁴), rotl two shifts. Lane l samples
// snapshots [l·b, (l+1)·b) into buf[l·region ..), with offsets relative to
// its region start. Returns false, leaving lens unset, when a lane would
// overrun its region.
__attribute__((target("avx2"))) bool SampleLanesAvx2(
    const SnapshotDraws& d, size_t b, const std::array<uint64_t, 4> (&st)[4],
    size_t region, uint32_t* offsets, graph::NodeId* buf, size_t (&lens)[4]) {
  const graph::TopicGraph& g = *d.graph;
  const size_t n = g.num_nodes();
  // A node writes at most its out-degree past a lane's len, so a lane
  // within `limit` before each node stays inside its region.
  if (region < d.max_out_degree) return false;
  const size_t limit = region - d.max_out_degree;
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
    uint32_t* off0 = offsets + i * (n + 1);
    uint32_t* off1 = offsets + (b + i) * (n + 1);
    uint32_t* off2 = offsets + (2 * b + i) * (n + 1);
    uint32_t* off3 = offsets + (3 * b + i) * (n + 1);
    off0[0] = static_cast<uint32_t>(len0);
    off1[0] = static_cast<uint32_t>(len1);
    off2[0] = static_cast<uint32_t>(len2);
    off3[0] = static_cast<uint32_t>(len3);
    for (graph::NodeId u = 0; u < n; ++u) {
      if (std::max({len0, len1, len2, len3}) > limit) return false;
      const std::span<const graph::NodeId> out = g.OutNeighbors(u);
      const uint64_t* thr = d.threshold.data() + g.OutArcBegin(u);
      for (size_t j = 0; j < out.size(); ++j) {
        if (thr[j] == 0) continue;
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
        const graph::NodeId target = out[j];
        dst0[len0] = target;
        len0 += mask & 1;
        dst1[len1] = target;
        len1 += (mask >> 1) & 1;
        dst2[len2] = target;
        len2 += (mask >> 2) & 1;
        dst3[len3] = target;
        len3 += mask >> 3;
      }
      off0[u + 1] = static_cast<uint32_t>(len0);
      off1[u + 1] = static_cast<uint32_t>(len1);
      off2[u + 1] = static_cast<uint32_t>(len2);
      off3[u + 1] = static_cast<uint32_t>(len3);
    }
  }
  lens[0] = len0;
  lens[1] = len1;
  lens[2] = len2;
  lens[3] = len3;
  return true;
}

#endif  // INFLEX_SAMPLER_X86

SnapshotArrays SampleSnapshotsAvx2(const SnapshotDraws& draws,
                                   size_t num_snapshots, uint64_t seed) {
  const size_t b = num_snapshots / 4;
  return SampleSnapshotsLanes(
      draws, num_snapshots, seed,
      Headroom(draws.expected_kept * static_cast<double>(b)) +
          draws.max_out_degree);
}

}  // namespace

SnapshotDraws PrepareDraws(const graph::TopicGraph& g,
                           const graph::ArcProbabilities& arc_probs) {
  constexpr uint64_t kAlwaysKeep = uint64_t{1} << 53;
  SnapshotDraws d;
  d.graph = &g;
  d.threshold.resize(g.num_arcs());
  for (size_t a = 0; a < d.threshold.size(); ++a) {
    const double p = arc_probs[a];
    if (!(p > 0.0)) {
      d.threshold[a] = 0;
      continue;
    }
    ++d.num_drawn;
    if (p >= 1.0) {
      d.threshold[a] = kAlwaysKeep;
      d.expected_kept += 1.0;
    } else {
      // Any p in (0, 1) has a threshold of at least 1.
      d.threshold[a] = static_cast<uint64_t>(std::ceil(p * 0x1p53));
      d.expected_kept += p;
    }
  }
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    d.max_out_degree = std::max(d.max_out_degree, g.OutDegree(u));
  }
  return d;
}

SnapshotArrays SampleSnapshotsScalar(const SnapshotDraws& draws,
                                     size_t num_snapshots, uint64_t seed) {
  const size_t n = draws.graph->num_nodes();
  SnapshotArrays out;
  out.offsets.assign(num_snapshots * (n + 1), 0);
  std::vector<graph::NodeId> kept(
      Headroom(draws.expected_kept * static_cast<double>(num_snapshots)));
  uint32_t len = 0;
  Rng rng(seed);
  SampleRange(draws, 0, num_snapshots, &rng, out.offsets.data(), &kept, &len);
  kept.resize(len);
  out.targets = std::move(kept);
  return out;
}

SnapshotArrays SampleSnapshotsLanes(const SnapshotDraws& draws,
                                    size_t num_snapshots, uint64_t seed,
                                    size_t region) {
#ifdef INFLEX_SAMPLER_X86
  // Four contiguous blocks of b snapshots, lane l starting at draw
  // l · b · m_d of the one stream; the W − 4b leftovers continue lane 3's
  // stream in the scalar loop.
  const size_t b = num_snapshots / 4;
  const size_t m_d = draws.num_drawn;
  if (b == 0 || m_d == 0) {
    return SampleSnapshotsScalar(draws, num_snapshots, seed);
  }
  const size_t n = draws.graph->num_nodes();
  std::array<uint64_t, 4> states[4];
  for (size_t l = 0; l < 4; ++l) {
    Rng lane(seed);
    lane.Advance(l * b * m_d);
    states[l] = lane.state();
  }
  SnapshotArrays out;
  out.offsets.assign(num_snapshots * (n + 1), 0);
  // One buffer of four lane regions, compacted in place below: separate
  // lane buffers concatenated afterwards would double the peak footprint.
  std::vector<graph::NodeId> kept(
      4 * region + Headroom(draws.expected_kept *
                            static_cast<double>(num_snapshots - 4 * b)));
  size_t lens[4];
  if (!SampleLanesAvx2(draws, b, states, region, out.offsets.data(),
                       kept.data(), lens)) {
    out = {};
    kept = {};
    return SampleSnapshotsScalar(draws, num_snapshots, seed);
  }
  uint32_t len = 0;
  for (size_t l = 0; l < 4; ++l) {
    std::memmove(kept.data() + len, kept.data() + l * region,
                 lens[l] * sizeof(graph::NodeId));
    uint32_t* off = out.offsets.data() + l * b * (n + 1);
    for (size_t i = 0; i < b * (n + 1); ++i) off[i] += len;
    len += static_cast<uint32_t>(lens[l]);
  }
  Rng tail(seed);
  tail.Advance(4 * b * m_d);
  SampleRange(draws, 4 * b, num_snapshots, &tail, out.offsets.data(), &kept,
              &len);
  kept.resize(len);
  out.targets = std::move(kept);
  return out;
#else
  (void)region;
  return SampleSnapshotsScalar(draws, num_snapshots, seed);
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

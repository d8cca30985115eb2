#ifndef INFLEX_IM_SNAPSHOT_SAMPLER_H_
#define INFLEX_IM_SNAPSHOT_SAMPLER_H_

// Internal to SnapshotSpreadOracle::Create: the live-edge samplers that fill
// its snapshot adjacency, exposed so tests can pin each variant.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/topic_graph.h"

namespace inflex {
namespace im {
namespace internal {

/// What a sampler draws against: the arcs that take a draw, compacted in arc
/// order (so grouped by ascending source). Rng::Bernoulli(p) is Uniform() <
/// p with Uniform() = (Next() >> 11) · 2⁻⁵³; scaling by 2⁵³ is exact, so for
/// u = Next() >> 11 the test is u < ceil(p · 2⁵³). p >= 1 (+inf included)
/// keeps at threshold 2⁵³; p <= 0 and NaN take no draw and are left out.
/// Snapshot s starts at draw s · num_drawn() of the stream.
struct SnapshotDraws {
  size_t num_nodes = 0;
  std::vector<uint64_t> threshold;
  std::vector<graph::NodeId> source;
  std::vector<graph::NodeId> target;
  /// Expected kept arcs in one snapshot.
  double expected_kept = 0.0;

  size_t num_drawn() const { return threshold.size(); }
};

SnapshotDraws PrepareDraws(const graph::TopicGraph& g,
                           const graph::ArcProbabilities& arc_probs);

/// W snapshots, concatenated: snapshot s's kept arcs of node u are
/// targets[offsets[s * (n+1) + u] .. offsets[s * (n+1) + u + 1]). Node-major
/// beside them, the snapshots where node u keeps an out-arc, ascending:
/// active_snapshots[active_offsets[u] .. active_offsets[u + 1]).
struct SnapshotArrays {
  std::vector<uint32_t> offsets;
  std::vector<graph::NodeId> targets;
  std::vector<uint32_t> active_offsets;
  std::vector<uint32_t> active_snapshots;
};

/// Every sampler returns the same arrays: those of one Rng(seed) stream
/// consumed in snapshot and draw order. A sampler consumes its draws: it
/// releases the thresholds once every draw is taken, before it allocates
/// the offsets and the active lists.
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

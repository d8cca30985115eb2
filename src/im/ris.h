#ifndef INFLEX_IM_RIS_H_
#define INFLEX_IM_RIS_H_

#include "graph/topic_graph.h"
#include "im/spread_estimator.h"

namespace inflex {
namespace im {

/// \brief Options for Reverse Influence Sampling.
struct RisOptions {
  /// Number of reverse-reachable (RR) sets to sample. More sets tighten the
  /// (1 − 1/e − ε) guarantee; 64·n is a pragmatic default at library scale.
  /// At most UINT32_MAX (RR-set ids are 32-bit), 64 · n included.
  size_t num_rr_sets = 0;  // 0: use 64 · num_nodes
  uint64_t seed = 97;
};

/// Reverse Influence Sampling / TIM-style influence maximization (Borgs et
/// al. 2014; Tang et al. 2014) — the modern alternative to the CELF family,
/// included as a cross-check baseline and for building indexes faster:
/// sample RR sets (reverse live-edge BFS from random roots), then greedy
/// maximum coverage over the sets. σ(S) is estimated as
/// n · (covered sets) / (total sets).
///
/// On the same instance, RIS and CELF++ must agree on spread within Monte-
/// Carlo noise (asserted by tests), though the seed sets may differ among
/// near-ties.
///
/// Exact coverage ties in the greedy phase break toward the smaller node id,
/// making the selection fully deterministic in (graph, arc_probs, options) —
/// the property the maintenance plane's bit-identical replay tests rely on
/// when the RIS backend does admission-time precompute.
Result<SeedSelectionResult> SelectSeedsRis(
    const graph::TopicGraph& g, const graph::ArcProbabilities& arc_probs,
    size_t k, const RisOptions& options = {});

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_RIS_H_

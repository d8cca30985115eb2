#ifndef INFLEX_IM_CELF_H_
#define INFLEX_IM_CELF_H_

#include "im/greedy.h"

namespace inflex {
namespace im {

/// CELF (Leskovec et al., KDD 2007): lazy-forward greedy, and the seed
/// selection behind every offline influence-maximization computation here
/// (oracle::OfflineTicSeeds). Keeps stale marginal gains in a max-heap; a
/// node is only re-evaluated when it surfaces at the top, exploiting
/// submodularity (gains never grow as S grows — exact under the snapshot
/// oracle).
///
/// The heap orders by gain, then by lower node id, and a node is selected
/// only when it surfaces with a gain fresh for the current seed set. Every
/// other entry then holds an upper bound of its own gain that orders below
/// it, so each round selects the largest exact gain with ties going to the
/// lowest node id — exactly what plain greedy selects. Any lazy-greedy
/// variant on this oracle (CELF++ included) returns the same seeds and the
/// same gain doubles; they differ only in num_evaluations.
///
/// The first round computes all n singleton gains
/// (SnapshotSpreadOracle::SingletonGains), in blocks of 256 nodes across
/// the pool when `parallel_first_iteration` is set and n >= 256. Selection
/// runs on the calling thread's oracle workspace (ThreadWorkspace).
Result<SeedSelectionResult> SelectSeedsCelf(
    SnapshotSpreadOracle* oracle, size_t k,
    const SeedSelectionOptions& options = {});

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_CELF_H_

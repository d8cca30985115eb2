#ifndef INFLEX_IM_HEURISTICS_H_
#define INFLEX_IM_HEURISTICS_H_

#include <vector>

#include "graph/topic_graph.h"
#include "util/random.h"
#include "util/status.h"

namespace inflex {
namespace im {

/// k distinct nodes chosen uniformly at random — the paper's `random`
/// baseline (Table 2 / Figure 8).
Result<std::vector<graph::NodeId>> SelectSeedsRandom(size_t num_nodes,
                                                     size_t k, Rng* rng);

}  // namespace im
}  // namespace inflex

#endif  // INFLEX_IM_HEURISTICS_H_

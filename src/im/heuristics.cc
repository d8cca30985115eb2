#include "im/heuristics.h"

#include <numeric>
#include <utility>

namespace inflex {
namespace im {

Result<std::vector<graph::NodeId>> SelectSeedsRandom(size_t num_nodes,
                                                     size_t k, Rng* rng) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > num_nodes) {
    return Status::InvalidArgument("k exceeds the number of nodes");
  }
  // Partial Fisher–Yates over a node-id vector.
  std::vector<graph::NodeId> ids(num_nodes);
  std::iota(ids.begin(), ids.end(), 0u);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + rng->UniformInt(num_nodes - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(k);
  return ids;
}

}  // namespace im
}  // namespace inflex

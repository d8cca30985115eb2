#include "rank/local_kemenization.h"

#include <utility>

namespace inflex {
namespace rank {

void LocalKemenization(const PreferenceMatrix& pm,
                       std::vector<size_t>* slots) {
  std::vector<size_t>& tau = *slots;
  // Insertion sort under the (non-transitive) majority relation: the item at
  // position i bubbles up while it strictly beats its predecessor.
  for (size_t i = 1; i < tau.size(); ++i) {
    for (size_t j = i; j > 0 && pm.Beats(tau[j], tau[j - 1]); --j) {
      std::swap(tau[j - 1], tau[j]);
    }
  }
}

}  // namespace rank
}  // namespace inflex

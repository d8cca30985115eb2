#include "rank/local_kemenization.h"

#include <optional>
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

Status LocalKemenization(const std::vector<RankedList>& lists,
                         const std::vector<double>& weights,
                         RankedList* aggregated) {
  INFLEX_RETURN_NOT_OK(ValidateRankedList(*aggregated));
  INFLEX_ASSIGN_OR_RETURN(const PreferenceMatrix pm,
                          PreferenceMatrix::Build(lists, weights));

  // Items outside U split τ into runs; each run is Kemenized on its own.
  RankedList& tau = *aggregated;
  std::vector<size_t> run;
  for (size_t begin = 0, end = 0; begin < tau.size(); begin = end + 1) {
    run.clear();
    for (end = begin; end < tau.size(); ++end) {
      const std::optional<size_t> slot = pm.SlotOf(tau[end]);
      if (!slot) break;
      run.push_back(*slot);
    }
    LocalKemenization(pm, &run);
    for (size_t i = 0; i < run.size(); ++i) tau[begin + i] = pm.items()[run[i]];
  }
  return Status::OK();
}

}  // namespace rank
}  // namespace inflex

#include "oracle/spread_oracle.h"

#include <utility>

#include "oracle/celfpp_oracle.h"
#include "oracle/ris_oracle.h"

namespace inflex {
namespace oracle {

const char* OracleBackendName(OracleBackend backend) {
  switch (backend) {
    case OracleBackend::kCelfPp:
      return "celfpp";
    case OracleBackend::kRis:
      return "ris";
  }
  return "unknown";
}

Result<OracleBackend> ParseOracleBackend(const std::string& name) {
  if (name == "celfpp") return OracleBackend::kCelfPp;
  if (name == "ris") return OracleBackend::kRis;
  return Status::InvalidArgument("unknown oracle backend '" + name +
                                 "' (expected celfpp|ris)");
}

Status SpreadOracle::ValidateRequest(const simplex::TopicDistribution& weights,
                                     size_t k) const {
  if (weights.num_topics() != graph_->num_topics()) {
    return Status::InvalidArgument(
        "topic weights dimension does not match the graph");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > graph_->num_nodes()) {
    return Status::InvalidArgument("k exceeds the number of nodes");
  }
  return Status::OK();
}

Result<double> SpreadOracle::EstimateSpread(
    const simplex::TopicDistribution& weights,
    std::span<const graph::NodeId> seeds) const {
  if (weights.num_topics() != graph_->num_topics()) {
    return Status::InvalidArgument(
        "topic weights dimension does not match the graph");
  }
  const graph::ArcProbabilities probs = graph_->ItemArcProbabilities(weights);
  im::MonteCarloOptions mc;
  mc.num_simulations = options_.eval_simulations;
  mc.seed = options_.seed;
  mc.parallel = false;  // Callers sit on pool workers already.
  INFLEX_ASSIGN_OR_RETURN(im::SpreadEstimate est,
                          im::EstimateSpread(*graph_, probs, seeds, mc));
  return est.mean;
}

Result<std::unique_ptr<SpreadOracle>> MakeSpreadOracle(
    const graph::TopicGraph* graph, SpreadOracleOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must not be null");
  }
  if (options.seed == 0) options.seed = 97;
  if (options.num_snapshots == 0) options.num_snapshots = 150;
  if (options.eval_simulations == 0) {
    return Status::InvalidArgument("eval_simulations must be positive");
  }
  switch (options.backend) {
    case OracleBackend::kCelfPp:
      return std::unique_ptr<SpreadOracle>(
          new CelfPpOracle(graph, options));
    case OracleBackend::kRis:
      return std::unique_ptr<SpreadOracle>(new RisOracle(graph, options));
  }
  return Status::InvalidArgument("unknown oracle backend");
}

}  // namespace oracle
}  // namespace inflex

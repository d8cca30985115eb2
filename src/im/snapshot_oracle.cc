#include "im/snapshot_oracle.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "im/snapshot_sampler.h"
#include "util/check.h"

namespace inflex {
namespace im {

Result<SnapshotSpreadOracle> SnapshotSpreadOracle::Create(
    const graph::TopicGraph& g, const graph::ArcProbabilities& arc_probs,
    const Options& options) {
  if (arc_probs.size() != g.num_arcs()) {
    return Status::InvalidArgument("arc probability vector size mismatch");
  }
  if (options.num_snapshots == 0) {
    return Status::InvalidArgument("num_snapshots must be positive");
  }
  const size_t n = g.num_nodes();
  const size_t m = g.num_arcs();
  const size_t w = options.num_snapshots;
  if (w > std::numeric_limits<uint32_t>::max() / std::max<size_t>(m, 1)) {
    return Status::InvalidArgument(
        "num_snapshots * num_arcs exceeds the 32-bit snapshot offsets");
  }

  internal::SnapshotArrays arrays = internal::ActiveSnapshotSampler()(
      internal::PrepareDraws(g, arc_probs), w, options.seed);
  SnapshotSpreadOracle oracle;
  oracle.num_nodes_ = n;
  oracle.num_snapshots_ = w;
  oracle.offsets_ = std::move(arrays.offsets);
  oracle.targets_ = std::move(arrays.targets);
  oracle.covered_.assign(w * n, 0);
  oracle.total_covered_ = 0;
  return oracle;
}

SnapshotSpreadOracle::Workspace* SnapshotSpreadOracle::ThreadWorkspace()
    const {
  thread_local std::unique_ptr<Workspace> ws;
  if (ws == nullptr || ws->stamps_.size() != num_nodes_) {
    ws = std::make_unique<Workspace>(num_nodes_);
  }
  return ws.get();
}

uint64_t SnapshotSpreadOracle::CountReach(graph::NodeId v, size_t s,
                                          Workspace* ws) const {
  const uint8_t* cov = covered_.data() + s * num_nodes_;
  const uint32_t* off = offsets_.data() + s * (num_nodes_ + 1);
  if (++ws->epoch_ == 0) {
    std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
    ws->epoch_ = 1;
  }
  const uint32_t epoch = ws->epoch_;
  auto& frontier = ws->frontier_;
  frontier.clear();
  frontier.push_back(v);
  ws->stamps_[v] = epoch;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeId u = frontier[head];
    for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
      const graph::NodeId t = targets_[e];
      if (ws->stamps_[t] != epoch && !cov[t]) {
        ws->stamps_[t] = epoch;
        frontier.push_back(t);
      }
    }
  }
  return frontier.size();
}

double SnapshotSpreadOracle::MarginalGain(graph::NodeId v,
                                          Workspace* ws) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  uint64_t gain = 0;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    if (!covered_[s * num_nodes_ + v]) gain += CountReach(v, s, ws);
  }
  return static_cast<double>(gain) / static_cast<double>(num_snapshots_);
}

void SnapshotSpreadOracle::SingletonGains(graph::NodeId begin,
                                          graph::NodeId end, Workspace* ws,
                                          std::span<double> gains) const {
  INFLEX_CHECK_LE(begin, end);
  INFLEX_CHECK_LE(end, num_nodes_);
  INFLEX_CHECK_EQ(gains.size(), num_nodes_);
  std::vector<uint64_t> count(end - begin, 0);
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const uint8_t* cov = covered_.data() + s * num_nodes_;
    const uint32_t* off = offsets_.data() + s * (num_nodes_ + 1);
    for (graph::NodeId v = begin; v < end; ++v) {
      if (cov[v]) continue;
      // A node with no kept out-arc reaches only itself.
      count[v - begin] += off[v] == off[v + 1] ? 1 : CountReach(v, s, ws);
    }
  }
  for (graph::NodeId v = begin; v < end; ++v) {
    gains[v] = static_cast<double>(count[v - begin]) /
               static_cast<double>(num_snapshots_);
  }
}

double SnapshotSpreadOracle::CommitSeed(graph::NodeId v, Workspace* ws) {
  INFLEX_CHECK_LT(v, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    uint8_t* cov = covered_.data() + s * n;
    if (cov[v]) continue;
    const uint32_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    frontier.push_back(v);
    cov[v] = 1;
    ++gain;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (!cov[t]) {
          cov[t] = 1;
          frontier.push_back(t);
          ++gain;
        }
      }
    }
  }
  total_covered_ += gain;
  return static_cast<double>(gain) / static_cast<double>(num_snapshots_);
}

void SnapshotSpreadOracle::ResetSeeds() {
  std::fill(covered_.begin(), covered_.end(), 0u);
  total_covered_ = 0;
}

double SnapshotSpreadOracle::SpreadOf(std::span<const graph::NodeId> seeds,
                                      Workspace* ws) const {
  const size_t n = num_nodes_;
  uint64_t total = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    if (++ws->epoch_ == 0) {
      std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
      ws->epoch_ = 1;
    }
    const uint32_t epoch = ws->epoch_;
    const uint32_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    for (graph::NodeId seed : seeds) {
      INFLEX_CHECK_LT(seed, num_nodes_);
      if (ws->stamps_[seed] != epoch) {
        ws->stamps_[seed] = epoch;
        frontier.push_back(seed);
        ++total;
      }
    }
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (ws->stamps_[t] != epoch) {
          ws->stamps_[t] = epoch;
          frontier.push_back(t);
          ++total;
        }
      }
    }
  }
  return static_cast<double>(total) / static_cast<double>(num_snapshots_);
}

}  // namespace im
}  // namespace inflex

#include "im/snapshot_oracle.h"

#include <algorithm>
#include <memory>

#include "util/check.h"
#include "util/random.h"

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

  SnapshotSpreadOracle oracle;
  const size_t n = g.num_nodes();
  const size_t w = options.num_snapshots;
  oracle.num_nodes_ = n;
  oracle.num_snapshots_ = w;
  oracle.offsets_.assign(w * (n + 1), 0);
  oracle.covered_.assign(w * n, 0);
  oracle.total_covered_ = 0;

  Rng rng(options.seed);
  std::vector<graph::NodeId> kept_targets;
  kept_targets.reserve(g.num_arcs() / 4 + 16);
  for (size_t s = 0; s < w; ++s) {
    uint64_t* off = oracle.offsets_.data() + s * (n + 1);
    const uint64_t base = kept_targets.size();
    off[0] = base;
    for (graph::NodeId u = 0; u < n; ++u) {
      graph::ArcId a = g.OutArcBegin(u);
      for (graph::NodeId v : g.OutNeighbors(u)) {
        if (arc_probs[a] > 0.0 && rng.Bernoulli(arc_probs[a])) {
          kept_targets.push_back(v);
        }
        ++a;
      }
      off[u + 1] = kept_targets.size();
    }
  }
  oracle.targets_ = std::move(kept_targets);
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

double SnapshotSpreadOracle::MarginalGain(graph::NodeId v,
                                          Workspace* ws) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const uint8_t* cov = covered_.data() + s * n;
    if (cov[v]) continue;
    if (++ws->epoch_ == 0) {
      std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
      ws->epoch_ = 1;
    }
    const uint32_t epoch = ws->epoch_;
    const uint64_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    frontier.push_back(v);
    ws->stamps_[v] = epoch;
    ++gain;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (ws->stamps_[t] != epoch && !cov[t]) {
          ws->stamps_[t] = epoch;
          frontier.push_back(t);
          ++gain;
        }
      }
    }
  }
  return static_cast<double>(gain) / static_cast<double>(num_snapshots_);
}

void SnapshotSpreadOracle::MarginalGainPair(graph::NodeId v,
                                            graph::NodeId other, Workspace* ws,
                                            double* mg1, double* mg2) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  INFLEX_CHECK_LT(other, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain1 = 0, gain2 = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const uint8_t* cov = covered_.data() + s * n;
    const uint64_t* off = offsets_.data() + s * (n + 1);

    // Pass 1: mark `other`'s incremental reach in this snapshot.
    if (++ws->extra_epoch_ == 0) {
      std::fill(ws->extra_stamps_.begin(), ws->extra_stamps_.end(), 0u);
      ws->extra_epoch_ = 1;
    }
    const uint32_t xepoch = ws->extra_epoch_;
    if (!cov[other]) {
      frontier.clear();
      frontier.push_back(other);
      ws->extra_stamps_[other] = xepoch;
      for (size_t head = 0; head < frontier.size(); ++head) {
        const graph::NodeId u = frontier[head];
        for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
          const graph::NodeId t = targets_[e];
          if (ws->extra_stamps_[t] != xepoch && !cov[t]) {
            ws->extra_stamps_[t] = xepoch;
            frontier.push_back(t);
          }
        }
      }
    }

    // Pass 2: BFS from v over uncovered nodes, counting both totals.
    if (cov[v]) continue;
    if (++ws->epoch_ == 0) {
      std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
      ws->epoch_ = 1;
    }
    const uint32_t epoch = ws->epoch_;
    frontier.clear();
    frontier.push_back(v);
    ws->stamps_[v] = epoch;
    ++gain1;
    if (ws->extra_stamps_[v] != xepoch) ++gain2;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (ws->stamps_[t] != epoch && !cov[t]) {
          ws->stamps_[t] = epoch;
          frontier.push_back(t);
          ++gain1;
          if (ws->extra_stamps_[t] != xepoch) ++gain2;
        }
      }
    }
  }
  *mg1 = static_cast<double>(gain1) / static_cast<double>(num_snapshots_);
  *mg2 = static_cast<double>(gain2) / static_cast<double>(num_snapshots_);
}

double SnapshotSpreadOracle::CommitSeed(graph::NodeId v, Workspace* ws) {
  INFLEX_CHECK_LT(v, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain = 0;
  auto& frontier = ws->frontier_;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    uint8_t* cov = covered_.data() + s * n;
    if (cov[v]) continue;
    const uint64_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    frontier.push_back(v);
    cov[v] = 1;
    ++gain;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
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
    const uint64_t* off = offsets_.data() + s * (n + 1);
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
      for (uint64_t e = off[u]; e < off[u + 1]; ++e) {
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

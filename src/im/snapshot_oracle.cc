#include "im/snapshot_oracle.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "im/snapshot_sampler.h"
#include "util/check.h"

namespace inflex {
namespace im {

Result<SnapshotSpreadOracle> SnapshotSpreadOracle::Create(
    const graph::TopicGraph& g, graph::ArcProbabilities arc_probs,
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

  internal::SnapshotDraws draws = internal::PrepareDraws(g, arc_probs);
  graph::ArcProbabilities().swap(arc_probs);
  internal::SnapshotArrays arrays =
      internal::ActiveSnapshotSampler()(std::move(draws), w, options.seed);
  SnapshotSpreadOracle oracle;
  oracle.num_nodes_ = n;
  oracle.num_snapshots_ = w;
  oracle.offsets_ = std::move(arrays.offsets);
  oracle.targets_ = std::move(arrays.targets);
  oracle.active_offsets_ = std::move(arrays.active_offsets);
  oracle.active_snapshots_ = std::move(arrays.active_snapshots);
  oracle.covered_.assign((w * n + 63) / 64, 0);
  oracle.covered_count_.assign(n, 0);
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
  const size_t cov = s * num_nodes_;
  const uint32_t* off = offsets_.data() + s * (num_nodes_ + 1);
  if (++ws->epoch_ == 0) {
    std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
    ws->epoch_ = 1;
  }
  ++ws->bfs_runs_;
  const uint32_t epoch = ws->epoch_;
  uint32_t* stamps = ws->stamps_.data();
  // Each node enters at most once, so n slots hold any frontier.
  graph::NodeId* frontier = ws->frontier_.data();
  size_t size = 0;
  frontier[size++] = v;
  stamps[v] = epoch;
  for (size_t head = 0; head < size; ++head) {
    const graph::NodeId u = frontier[head];
    for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
      const graph::NodeId t = targets_[e];
      if (stamps[t] != epoch && !Covered(cov + t)) {
        stamps[t] = epoch;
        frontier[size++] = t;
      }
    }
  }
  return size;
}

uint64_t SnapshotSpreadOracle::ReachSum(graph::NodeId v, Workspace* ws) const {
  uint64_t sum = num_snapshots_ - covered_count_[v];
  for (const uint32_t s : ActiveSnapshots(v)) {
    if (!Covered(s * num_nodes_ + v)) sum += CountReach(v, s, ws) - 1;
  }
  return sum;
}

double SnapshotSpreadOracle::MarginalGain(graph::NodeId v,
                                          Workspace* ws) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  return static_cast<double>(ReachSum(v, ws)) /
         static_cast<double>(num_snapshots_);
}

void SnapshotSpreadOracle::SingletonGains(graph::NodeId begin,
                                          graph::NodeId end, Workspace* ws,
                                          std::span<double> gains) const {
  INFLEX_CHECK_LE(begin, end);
  INFLEX_CHECK_LE(end, num_nodes_);
  INFLEX_CHECK_EQ(gains.size(), num_nodes_);
  for (graph::NodeId v = begin; v < end; ++v) {
    gains[v] = static_cast<double>(ReachSum(v, ws)) /
               static_cast<double>(num_snapshots_);
  }
}

double SnapshotSpreadOracle::CommitSeed(graph::NodeId v, Workspace* ws) {
  INFLEX_CHECK_LT(v, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain = 0;
  graph::NodeId* frontier = ws->frontier_.data();
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const size_t cov = s * n;
    if (Covered(cov + v)) continue;
    const uint32_t* off = offsets_.data() + s * (n + 1);
    size_t size = 0;
    frontier[size++] = v;
    Cover(cov + v);
    for (size_t head = 0; head < size; ++head) {
      const graph::NodeId u = frontier[head];
      for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (!Covered(cov + t)) {
          Cover(cov + t);
          frontier[size++] = t;
        }
      }
    }
    for (size_t i = 0; i < size; ++i) ++covered_count_[frontier[i]];
    gain += size;
  }
  total_covered_ += gain;
  return static_cast<double>(gain) / static_cast<double>(num_snapshots_);
}

void SnapshotSpreadOracle::ResetSeeds() {
  std::fill(covered_.begin(), covered_.end(), uint64_t{0});
  std::fill(covered_count_.begin(), covered_count_.end(), 0u);
  total_covered_ = 0;
}

double SnapshotSpreadOracle::SpreadOf(std::span<const graph::NodeId> seeds,
                                      Workspace* ws) const {
  const size_t n = num_nodes_;
  uint64_t total = 0;
  graph::NodeId* frontier = ws->frontier_.data();
  for (size_t s = 0; s < num_snapshots_; ++s) {
    if (++ws->epoch_ == 0) {
      std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
      ws->epoch_ = 1;
    }
    const uint32_t epoch = ws->epoch_;
    const uint32_t* off = offsets_.data() + s * (n + 1);
    size_t size = 0;
    for (graph::NodeId seed : seeds) {
      INFLEX_CHECK_LT(seed, num_nodes_);
      if (ws->stamps_[seed] != epoch) {
        ws->stamps_[seed] = epoch;
        frontier[size++] = seed;
      }
    }
    for (size_t head = 0; head < size; ++head) {
      const graph::NodeId u = frontier[head];
      for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
        const graph::NodeId t = targets_[e];
        if (ws->stamps_[t] != epoch) {
          ws->stamps_[t] = epoch;
          frontier[size++] = t;
        }
      }
    }
    total += size;
  }
  return static_cast<double>(total) / static_cast<double>(num_snapshots_);
}

}  // namespace im
}  // namespace inflex

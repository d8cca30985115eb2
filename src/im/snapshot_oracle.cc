#include "im/snapshot_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
  const size_t n = g.num_nodes();
  const size_t m = g.num_arcs();
  const size_t w = options.num_snapshots;
  if (w > std::numeric_limits<uint32_t>::max() / std::max<size_t>(m, 1)) {
    return Status::InvalidArgument(
        "num_snapshots * num_arcs exceeds the 32-bit snapshot offsets");
  }

  // Rng::Bernoulli(p) is Uniform() < p with Uniform() = (Next() >> 11) · 2⁻⁵³.
  // Scaling by 2⁵³ is exact, so for the integer u = Next() >> 11 the test is
  // u < ceil(p · 2⁵³): the same draws and decisions, compared as integers.
  // p >= 1 (+inf included) always keeps, at threshold 2⁵³ without casting
  // p; p <= 0 and NaN take no draw, marked by threshold 0 (any p in (0, 1)
  // has a threshold of at least 1).
  constexpr uint64_t kAlwaysKeep = uint64_t{1} << 53;
  std::vector<uint64_t> threshold(m);
  double expected_kept = 0.0;
  for (size_t a = 0; a < m; ++a) {
    const double p = arc_probs[a];
    if (!(p > 0.0)) {
      threshold[a] = 0;
    } else if (p >= 1.0) {
      threshold[a] = kAlwaysKeep;
      expected_kept += 1.0;
    } else {
      threshold[a] = static_cast<uint64_t>(std::ceil(p * 0x1p53));
      expected_kept += p;
    }
  }

  SnapshotSpreadOracle oracle;
  oracle.num_nodes_ = n;
  oracle.num_snapshots_ = w;
  oracle.offsets_.assign(w * (n + 1), 0);
  oracle.covered_.assign(w * n, 0);
  oracle.total_covered_ = 0;

  // Kept targets are appended without a branch: each drawn arc writes its
  // target at `len` and advances `len` only when kept, so the buffer holds
  // room for the node's whole out-list before its arcs are drawn. Sized for
  // the expected count; grows on the rare overshoot.
  expected_kept *= static_cast<double>(w);
  std::vector<graph::NodeId> kept(
      static_cast<size_t>(expected_kept + expected_kept / 32.0) + 64);
  uint32_t len = 0;
  Rng rng(options.seed);
  for (size_t s = 0; s < w; ++s) {
    uint32_t* off = oracle.offsets_.data() + s * (n + 1);
    off[0] = len;
    for (graph::NodeId u = 0; u < n; ++u) {
      const std::span<const graph::NodeId> out = g.OutNeighbors(u);
      if (len + out.size() > kept.size()) {
        kept.resize(std::max(2 * kept.size(), len + out.size()));
      }
      const uint64_t* thr = threshold.data() + g.OutArcBegin(u);
      graph::NodeId* dst = kept.data();
      for (size_t j = 0; j < out.size(); ++j) {
        if (thr[j] == 0) continue;
        dst[len] = out[j];
        len += (rng.Next() >> 11) < thr[j];
      }
      off[u + 1] = len;
    }
  }
  kept.resize(len);
  oracle.targets_ = std::move(kept);
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
    const uint32_t* off = offsets_.data() + s * (n + 1);
    frontier.clear();
    frontier.push_back(v);
    ws->stamps_[v] = epoch;
    ++gain;
    for (size_t head = 0; head < frontier.size(); ++head) {
      const graph::NodeId u = frontier[head];
      for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
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

template <typename Mark>
void SnapshotSpreadOracle::MarkSnapshotReach(graph::NodeId other, size_t s,
                                             Mark* mark, Mark value,
                                             Workspace* ws) const {
  const uint8_t* cov = covered_.data() + s * num_nodes_;
  if (cov[other]) return;
  const uint32_t* off = offsets_.data() + s * (num_nodes_ + 1);
  auto& frontier = ws->frontier_;
  frontier.clear();
  frontier.push_back(other);
  mark[other] = value;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeId u = frontier[head];
    for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
      const graph::NodeId t = targets_[e];
      if (mark[t] != value && !cov[t]) {
        mark[t] = value;
        frontier.push_back(t);
      }
    }
  }
}

template <typename InOther>
void SnapshotSpreadOracle::CountPair(graph::NodeId v, size_t s,
                                     const InOther& in_other, Workspace* ws,
                                     uint64_t* gain1, uint64_t* gain2) const {
  const uint8_t* cov = covered_.data() + s * num_nodes_;
  if (cov[v]) return;
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
  ++*gain1;
  if (!in_other(v)) ++*gain2;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const graph::NodeId u = frontier[head];
    for (uint32_t e = off[u]; e < off[u + 1]; ++e) {
      const graph::NodeId t = targets_[e];
      if (ws->stamps_[t] != epoch && !cov[t]) {
        ws->stamps_[t] = epoch;
        frontier.push_back(t);
        ++*gain1;
        if (!in_other(t)) ++*gain2;
      }
    }
  }
}

void SnapshotSpreadOracle::MarginalGainPair(graph::NodeId v,
                                            graph::NodeId other, Workspace* ws,
                                            double* mg1, double* mg2) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  INFLEX_CHECK_LT(other, num_nodes_);
  uint64_t gain1 = 0, gain2 = 0;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    // Pass 1: stamp `other`'s incremental reach in this snapshot.
    if (++ws->extra_epoch_ == 0) {
      std::fill(ws->extra_stamps_.begin(), ws->extra_stamps_.end(), 0u);
      ws->extra_epoch_ = 1;
    }
    const uint32_t xepoch = ws->extra_epoch_;
    MarkSnapshotReach(other, s, ws->extra_stamps_.data(), xepoch, ws);
    // Pass 2: BFS from v over uncovered nodes, counting both totals.
    const uint32_t* xstamps = ws->extra_stamps_.data();
    CountPair(
        v, s, [xstamps, xepoch](graph::NodeId t) { return xstamps[t] == xepoch; },
        ws, &gain1, &gain2);
  }
  *mg1 = static_cast<double>(gain1) / static_cast<double>(num_snapshots_);
  *mg2 = static_cast<double>(gain2) / static_cast<double>(num_snapshots_);
}

std::vector<uint8_t> SnapshotSpreadOracle::MarkReach(graph::NodeId other,
                                                     Workspace* ws) const {
  INFLEX_CHECK_LT(other, num_nodes_);
  std::vector<uint8_t> reach(num_snapshots_ * num_nodes_, 0);
  for (size_t s = 0; s < num_snapshots_; ++s) {
    MarkSnapshotReach(other, s, reach.data() + s * num_nodes_, uint8_t{1}, ws);
  }
  return reach;
}

void SnapshotSpreadOracle::MarginalGainPair(
    graph::NodeId v, std::span<const uint8_t> other_reach, Workspace* ws,
    double* mg1, double* mg2) const {
  INFLEX_CHECK_LT(v, num_nodes_);
  INFLEX_CHECK_EQ(other_reach.size(), num_snapshots_ * num_nodes_);
  uint64_t gain1 = 0, gain2 = 0;
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const uint8_t* reach = other_reach.data() + s * num_nodes_;
    CountPair(
        v, s, [reach](graph::NodeId t) { return reach[t] != 0; }, ws, &gain1,
        &gain2);
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

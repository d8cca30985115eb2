#include "im/snapshot_oracle.h"

#include <algorithm>
#include <bit>
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
  const size_t n = g.num_nodes();
  const size_t w = options.num_snapshots;
  INFLEX_RETURN_NOT_OK(internal::CheckSnapshotShape(n, g.num_arcs(), w));

  internal::SnapshotDraws draws = internal::PrepareDraws(g, arc_probs);
  const size_t prepare_bytes =
      internal::CapacityBytes(arc_probs) + draws.bytes();
  graph::ArcProbabilities().swap(arc_probs);
  internal::SnapshotArrays arrays =
      internal::ActiveSnapshotSampler()(std::move(draws), w, options.seed);
  SnapshotSpreadOracle oracle;
  oracle.num_nodes_ = n;
  oracle.num_snapshots_ = w;
  oracle.active_bits_ = std::move(arrays.active_bits);
  oracle.word_ranks_ = std::move(arrays.word_ranks);
  oracle.pair_offsets_ = std::move(arrays.pair_offsets);
  oracle.targets_ = std::move(arrays.targets);
  oracle.create_peak_bytes_ = std::max(prepare_bytes, arrays.peak_bytes);
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

uint32_t SnapshotSpreadOracle::PairOf(size_t bit) const {
  return internal::PairIndex(active_bits_.data(), word_ranks_.data(), bit);
}

uint64_t SnapshotSpreadOracle::CountReach(graph::NodeId v, size_t s,
                                          uint32_t pair,
                                          Workspace* ws) const {
  const size_t cov = s * num_nodes_;
  if (++ws->epoch_ == 0) {
    std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
    ws->epoch_ = 1;
  }
  ++ws->bfs_runs_;
  const uint32_t epoch = ws->epoch_;
  uint32_t* stamps = ws->stamps_.data();
  // Read through locals: through the members, the compiler reloads the
  // arrays' data pointers after every store of the loop.
  const uint32_t* pair_offsets = pair_offsets_.data();
  const graph::NodeId* targets = targets_.data();
  const uint64_t* covered = covered_.data();
  // Each node enters at most once, so n slots hold any frontier.
  uint32_t* frontier = ws->frontier_.data();
  size_t size = 0;
  uint64_t reached = 1;
  frontier[size++] = pair;
  stamps[v] = epoch;
  for (size_t head = 0; head < size; ++head) {
    const uint32_t p = frontier[head];
    const uint32_t end = pair_offsets[p + 1];
    for (uint32_t e = pair_offsets[p]; e < end; ++e) {
      const graph::NodeId entry = targets[e];
      const graph::NodeId t = entry & ~internal::kSinkFlag;
      const size_t bit = cov + t;
      if (stamps[t] == epoch || ((covered[bit >> 6] >> (bit & 63)) & 1)) {
        continue;
      }
      stamps[t] = epoch;
      ++reached;
      if ((entry & internal::kSinkFlag) == 0) frontier[size++] = PairOf(bit);
    }
  }
  return reached;
}

uint64_t SnapshotSpreadOracle::ReachSum(graph::NodeId v, Workspace* ws) const {
  uint64_t sum = num_snapshots_ - covered_count_[v];
  const uint64_t* active = active_bits_.data();
  const uint64_t* covered = covered_.data();
  for (size_t s0 = 0; s0 < num_snapshots_; s0 += 64) {
    // v's active, uncovered snapshots in [s0, s0 + 64), gathered into one
    // mask without a branch (v's bits lie n apart, so most would
    // mispredict), then visited in ascending order.
    const size_t s1 = std::min(num_snapshots_, s0 + 64);
    uint64_t open = 0;
    for (size_t s = s0, bit = s0 * num_nodes_ + v; s < s1;
         ++s, bit += num_nodes_) {
      const uint64_t word = active[bit >> 6] & ~covered[bit >> 6];
      open |= ((word >> (bit & 63)) & 1) << (s - s0);
    }
    for (; open != 0; open &= open - 1) {
      const size_t s = s0 + std::countr_zero(open);
      const size_t bit = s * num_nodes_ + v;
      sum += CountReach(v, s, PairOf(bit), ws) - 1;
    }
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
  if (begin == end) return;
  // ReachSum's integer sums, gathered snapshot by snapshot: the active
  // pairs of a row segment are its set bits, numbered on from one rank.
  std::vector<uint64_t> sums(end - begin);
  for (graph::NodeId v = begin; v < end; ++v) {
    sums[v - begin] = num_snapshots_ - covered_count_[v];
  }
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const size_t row = s * num_nodes_;
    const size_t lo = row + begin;
    const size_t hi = row + end;
    uint32_t pair = PairOf(lo);
    for (size_t i = lo >> 6; i <= (hi - 1) >> 6; ++i) {
      uint64_t word = active_bits_[i];
      if (i == lo >> 6) word &= ~uint64_t{0} << (lo & 63);
      if (i == (hi - 1) >> 6) word &= ~uint64_t{0} >> (63 - ((hi - 1) & 63));
      for (; word != 0; word &= word - 1, ++pair) {
        const size_t bit = 64 * i + std::countr_zero(word);
        const graph::NodeId v = static_cast<graph::NodeId>(bit - row);
        if (!Covered(bit)) sums[v - begin] += CountReach(v, s, pair, ws) - 1;
      }
    }
  }
  for (graph::NodeId v = begin; v < end; ++v) {
    gains[v] = static_cast<double>(sums[v - begin]) /
               static_cast<double>(num_snapshots_);
  }
}

double SnapshotSpreadOracle::CommitSeed(graph::NodeId v, Workspace* ws) {
  INFLEX_CHECK_LT(v, num_nodes_);
  const size_t n = num_nodes_;
  uint64_t gain = 0;
  uint32_t* frontier = ws->frontier_.data();
  for (size_t s = 0; s < num_snapshots_; ++s) {
    const size_t cov = s * n;
    if (Covered(cov + v)) continue;
    Cover(cov + v);
    ++covered_count_[v];
    ++gain;
    if (!Active(cov + v)) continue;
    size_t size = 0;
    frontier[size++] = PairOf(cov + v);
    for (size_t head = 0; head < size; ++head) {
      const uint32_t p = frontier[head];
      const uint32_t end = pair_offsets_[p + 1];
      for (uint32_t e = pair_offsets_[p]; e < end; ++e) {
        const graph::NodeId entry = targets_[e];
        const graph::NodeId t = entry & ~internal::kSinkFlag;
        if (Covered(cov + t)) continue;
        Cover(cov + t);
        ++covered_count_[t];
        ++gain;
        if ((entry & internal::kSinkFlag) == 0) {
          frontier[size++] = PairOf(cov + t);
        }
      }
    }
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
  uint32_t* frontier = ws->frontier_.data();
  for (size_t s = 0; s < num_snapshots_; ++s) {
    if (++ws->epoch_ == 0) {
      std::fill(ws->stamps_.begin(), ws->stamps_.end(), 0u);
      ws->epoch_ = 1;
    }
    const uint32_t epoch = ws->epoch_;
    const size_t cov = s * n;
    size_t size = 0;
    for (graph::NodeId seed : seeds) {
      INFLEX_CHECK_LT(seed, num_nodes_);
      if (ws->stamps_[seed] != epoch) {
        ws->stamps_[seed] = epoch;
        ++total;
        if (Active(cov + seed)) frontier[size++] = PairOf(cov + seed);
      }
    }
    for (size_t head = 0; head < size; ++head) {
      const uint32_t p = frontier[head];
      const uint32_t end = pair_offsets_[p + 1];
      for (uint32_t e = pair_offsets_[p]; e < end; ++e) {
        const graph::NodeId entry = targets_[e];
        const graph::NodeId t = entry & ~internal::kSinkFlag;
        if (ws->stamps_[t] == epoch) continue;
        ws->stamps_[t] = epoch;
        ++total;
        if ((entry & internal::kSinkFlag) == 0) {
          frontier[size++] = PairOf(cov + t);
        }
      }
    }
  }
  return static_cast<double>(total) / static_cast<double>(num_snapshots_);
}

}  // namespace im
}  // namespace inflex

#include "inflex/index_maintainer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

#include "simplex/divergence.h"
#include "util/check.h"
#include "util/logging.h"

namespace inflex {
namespace core {

const char* DeltaOutcomeName(DeltaOutcome outcome) {
  switch (outcome) {
    case DeltaOutcome::kAdmitted:
      return "admitted";
    case DeltaOutcome::kCovered:
      return "covered";
    case DeltaOutcome::kSuperseded:
      return "superseded";
    case DeltaOutcome::kRetryLater:
      return "retry-later";
  }
  return "unknown";
}

std::string MaintenanceStats::ToString() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "%llu deltas: %llu admitted %llu covered %llu superseded "
                "%llu failed %llu deferred | %llu generations (epoch %llu, "
                "%zu points, %llu rebuilds, %llu coalesced) | %llu sweeps, "
                "%llu evicted | %zu pending",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(covered),
                static_cast<unsigned long long>(superseded),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(deferred),
                static_cast<unsigned long long>(generations_published),
                static_cast<unsigned long long>(epoch), index_points,
                static_cast<unsigned long long>(tree_rebuilds),
                static_cast<unsigned long long>(batched_deltas),
                static_cast<unsigned long long>(decay_sweeps),
                static_cast<unsigned long long>(points_evicted), pending);
  return buf;
}

IndexMaintainer::IndexMaintainer(std::shared_ptr<const InflexIndex> initial,
                                 const graph::TopicGraph* graph,
                                 QueryEngine* engine,
                                 const IndexMaintainerOptions& options)
    : graph_(graph), engine_(engine), options_(options) {
  INFLEX_CHECK(initial != nullptr);
  INFLEX_CHECK(graph_ != nullptr);
  INFLEX_CHECK_GT(options_.admission_threshold, 0.0);
  options_.max_batch = std::max<size_t>(options_.max_batch, 1);
  // A zero-valued oracle seed inherits the maintainer's own, so the default
  // configuration reproduces the historical CELF++ path exactly (same
  // snapshot seed per ticket).
  if (options_.oracle.seed == 0) options_.oracle.seed = options_.seed;
  auto oracle_result = oracle::MakeSpreadOracle(graph_, options_.oracle);
  INFLEX_CHECK(oracle_result.ok());  // misconfiguration is a programming error
  oracle_ = std::move(oracle_result).ValueOrDie();
  options_.min_index_points = std::max<size_t>(options_.min_index_points, 1);
  if (options_.pool == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(1);
    pool_ = owned_pool_.get();
  } else {
    pool_ = options_.pool;
  }
  current_ = std::move(initial);
  epoch_ = engine_ != nullptr ? engine_->index_epoch() : 0;
  stats_.epoch = epoch_;
  stats_.index_points = current_->num_index_points();
  born_epoch_.assign(current_->num_index_points(), epoch_);
  publisher_ = std::thread(&IndexMaintainer::PublisherLoop, this);
}

IndexMaintainer::~IndexMaintainer() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stop_ = true;
  }
  publisher_cv_.notify_all();
  if (publisher_.joinable()) publisher_.join();
}

double IndexMaintainer::MinDivergence(const InflexIndex& index,
                                      const simplex::TopicDistribution& item) {
  // Neighbor.divergence is D_KL(index point ‖ query) — exactly the §3.1
  // coverage objective evaluated at the incoming item.
  const auto nearest = index.tree().ExactKnn(item.probs(), 1);
  INFLEX_CHECK(!nearest.empty());
  return nearest.front().divergence;
}

Result<DeltaReceipt> IndexMaintainer::SubmitDelta(const CatalogDelta& delta) {
  std::shared_ptr<const InflexIndex> snapshot;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.submitted;
    snapshot = current_;
  }
  if (delta.item.num_topics() != snapshot->num_topics()) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.failed;
    return Status::InvalidArgument("delta topic dimension mismatch");
  }

  DeltaReceipt receipt;
  receipt.min_divergence = MinDivergence(*snapshot, delta.item);
  if (receipt.min_divergence <= options_.admission_threshold) {
    receipt.outcome = DeltaOutcome::kCovered;
    std::lock_guard<std::mutex> lock(state_mu_);
    ++stats_.covered;
    return receipt;
  }

  receipt.outcome = DeltaOutcome::kAdmitted;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Back-pressure: checked under the same lock as the admission
    // bookkeeping so concurrent submitters cannot both slip past the mark.
    if (options_.pending_high_watermark > 0 &&
        pending_ >= options_.pending_high_watermark) {
      receipt.outcome = DeltaOutcome::kRetryLater;
      ++stats_.deferred;
      return receipt;
    }
    ++stats_.admitted;
    ++pending_;
    ++precompute_inflight_;
    receipt.ticket = ++next_ticket_;
  }
  // Capture by value: the delta outlives the caller's buffer, the `this`
  // lifetime is covered by ~IndexMaintainer draining the pipeline. The timer
  // starts here so the reported admission→publish latency includes the
  // queueing delay on the maintenance pool, not just the precompute.
  CatalogDelta copy = delta;
  const uint64_t ticket = receipt.ticket;
  Timer admitted_at;
  pool_->Submit([this, copy = std::move(copy), ticket, admitted_at]() mutable {
    PrecomputeAdmitted(std::move(copy), ticket, admitted_at);
  });
  return receipt;
}

void IndexMaintainer::PrecomputeAdmitted(CatalogDelta delta, uint64_t ticket,
                                         Timer admitted_at) {
  // Stage 2: the expensive seed precompute, against the graph only — no
  // lock held, no generation pinned; serving proceeds untouched.
  size_t ell = options_.seed_list_length;
  if (ell == 0) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ell = current_->seed_list_length();
  }

  // The ticket is the oracle's salt: deterministic given the admission
  // order, decorrelated across deltas.
  Timer precompute_timer;
  auto seeds = oracle_->SelectSeeds(delta.item, ell, ticket);
  if (engine_ != nullptr) {
    engine_->RecordPrecompute(oracle_->name(),
                              precompute_timer.ElapsedMillis() * 1e6);
  }

  // Hand off to the publisher: the delta stays `pending` until its batch is
  // published (Drain covers the whole pipeline, not just the precompute).
  ReadyDelta ready;
  ready.delta = std::move(delta);
  ready.ticket = ticket;
  ready.admitted_at = admitted_at;
  if (seeds.ok()) {
    ready.seeds.assign(seeds.ValueOrDie().seeds.begin(),
                       seeds.ValueOrDie().seeds.end());
  } else {
    ready.precompute_status = seeds.status();
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ready_.push_back(std::move(ready));
    INFLEX_CHECK_GT(precompute_inflight_, 0u);
    --precompute_inflight_;
    // Notify while still holding state_mu_: this thread may belong to a
    // caller-owned pool that outlives the maintainer, and the publisher
    // cannot consume this delta (and so Drain cannot return and the
    // destructor cannot reach the cv) until we release the lock — which
    // orders this broadcast strictly before the cv's destruction. A
    // notify after unlock can still be inside pthread_cond_broadcast when
    // ~IndexMaintainer tears the cv down.
    publisher_cv_.notify_all();
  }
}

void IndexMaintainer::PublisherLoop() {
  std::unique_lock<std::mutex> lock(state_mu_);
  for (;;) {
    publisher_cv_.wait(lock, [this] {
      return stop_ || !ready_.empty() || sweep_pending_;
    });
    if (ready_.empty() && !sweep_pending_) {
      if (stop_) return;
      continue;
    }
    // Coalescing window: while precomputes are still in flight more ready
    // deltas may arrive any moment — wait for them (bounded by the batch
    // cap and max_batch_delay_ms) so a burst folds into one publication. A
    // lone delta (nothing else in flight) publishes immediately.
    if (!ready_.empty() && options_.max_batch_delay_ms > 0.0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options_.max_batch_delay_ms));
      while (!stop_ && ready_.size() < options_.max_batch &&
             precompute_inflight_ > 0) {
        if (publisher_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    std::vector<ReadyDelta> batch;
    batch.reserve(std::min(ready_.size(), options_.max_batch));
    while (!ready_.empty() && batch.size() < options_.max_batch) {
      batch.push_back(std::move(ready_.front()));
      ready_.pop_front();
    }
    const bool do_sweep = sweep_pending_;
    lock.unlock();
    PublishBatch(std::move(batch), do_sweep);
    lock.lock();
  }
}

std::vector<uint32_t> IndexMaintainer::PickSweepVictims(
    const InflexIndex& next, uint64_t next_epoch) {
  // Hit scores live in the serving layer; without an engine (or with hit
  // accounting off) there is no cold/hot signal and the sweep is a no-op.
  if (engine_ == nullptr || engine_->hit_accounting() == nullptr) return {};
  const std::vector<double> scores = engine_->HitScores();
  const size_t n = next.num_index_points();
  const size_t floor = options_.min_index_points;
  if (n <= floor) return {};

  // Scores cover the generation the engine currently serves; points this
  // batch just appended carry no score yet and are age-protected anyway.
  const size_t scored = std::min({scores.size(), born_epoch_.size(), n});
  std::vector<std::pair<double, uint32_t>> cands;
  for (uint32_t id = 0; id < scored; ++id) {
    const uint64_t age =
        next_epoch > born_epoch_[id] ? next_epoch - born_epoch_[id] : 0;
    if (scores[id] < options_.eviction_score_threshold &&
        age >= options_.min_point_age_generations) {
      cands.emplace_back(scores[id], id);
    }
  }
  if (cands.empty()) return {};
  // Coldest first (id breaks ties deterministically); the size floor trims
  // the warmest candidates, not the coldest.
  std::sort(cands.begin(), cands.end());
  const size_t max_evict = n - floor;
  if (cands.size() > max_evict) cands.resize(max_evict);

  std::vector<uint8_t> victim(n, 0);
  for (const auto& [score, id] : cands) victim[id] = 1;

  if (!options_.retire_admitted_items) {
    // Never evict the last point covering a registered admitted item: when
    // an item's own cover is a victim, make sure some survivor still covers
    // it within the admission threshold, else un-evict the item's best
    // cover (usually its own point, at divergence ≈ 0). Sequential
    // processing means an un-evicted point immediately protects later items
    // too.
    for (const AdmittedItem& entry : admitted_items_) {
      if (entry.point_id >= n || victim[entry.point_id] == 0) continue;
      double best_survivor = std::numeric_limits<double>::infinity();
      double best_victim_div = std::numeric_limits<double>::infinity();
      uint32_t best_victim = 0;
      for (uint32_t id = 0; id < n; ++id) {
        const double d = simplex::KlDivergence(next.index_point(id),
                                               entry.item.probs());
        if (victim[id] != 0) {
          if (d < best_victim_div) {
            best_victim_div = d;
            best_victim = id;
          }
        } else if (d < best_survivor) {
          best_survivor = d;
        }
      }
      if (best_survivor > options_.admission_threshold) {
        victim[best_victim] = 0;
      }
    }
  }

  std::vector<uint32_t> out;
  for (uint32_t id = 0; id < n; ++id) {
    if (victim[id] != 0) out.push_back(id);
  }
  return out;
}

void IndexMaintainer::PublishBatch(std::vector<ReadyDelta> batch,
                                   bool do_sweep) {
  // Admission-ticket order makes batched publication deterministic given
  // the admission sequence, regardless of precompute completion order.
  std::sort(batch.begin(), batch.end(),
            [](const ReadyDelta& a, const ReadyDelta& b) {
              return a.ticket < b.ticket;
            });

  std::shared_ptr<const InflexIndex> base;
  uint64_t next_epoch_guess = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    base = current_;
    next_epoch_guess = epoch_ + 1;
  }

  enum class Fate { kApplied, kSuperseded, kFailed };
  std::vector<Fate> fates(batch.size(), Fate::kFailed);
  std::shared_ptr<InflexIndex> next;  // ONE clone for the whole batch
  size_t applied = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    ReadyDelta& rd = batch[i];
    if (!rd.precompute_status.ok()) continue;  // stays kFailed
    // Supersede re-check against the EVOLVING clone: an earlier delta in
    // this very batch (or a previous publication) may have covered the item
    // since admission.
    const InflexIndex& probe = next != nullptr ? *next : *base;
    if (MinDivergence(probe, rd.delta.item) <= options_.admission_threshold) {
      fates[i] = Fate::kSuperseded;
      continue;
    }
    if (next == nullptr) next = std::make_shared<InflexIndex>(*base);
    const Status st = next->AddIndexPoint(rd.delta.item, std::move(rd.seeds));
    if (!st.ok()) {
      INFLEX_LOG(Warning) << "delta " << rd.delta.id
                          << " failed to apply: " << st.ToString();
      continue;
    }
    fates[i] = Fate::kApplied;
    ++applied;
    born_epoch_.push_back(next_epoch_guess);
    admitted_items_.push_back(AdmittedItem{
        rd.delta.item, static_cast<uint32_t>(next->num_index_points() - 1)});
  }

  // Fold any pending decay sweep into the same publication.
  std::vector<uint32_t> victims;
  std::vector<uint32_t> old_to_new;
  if (do_sweep) {
    victims = PickSweepVictims(next != nullptr ? *next : *base,
                               next_epoch_guess);
    if (!victims.empty()) {
      if (next == nullptr) next = std::make_shared<InflexIndex>(*base);
      const Status st = next->RemoveIndexPoints(victims, &old_to_new);
      if (!st.ok()) {
        INFLEX_LOG(Warning) << "decay sweep failed to remove points: "
                            << st.ToString();
        victims.clear();
        old_to_new.clear();
      } else {
        // Follow the dense renumbering in the publisher-thread registries.
        std::vector<uint64_t> born;
        born.reserve(born_epoch_.size() - victims.size());
        for (uint32_t id = 0; id < born_epoch_.size(); ++id) {
          if (old_to_new[id] != kDroppedIndexPoint) {
            born.push_back(born_epoch_[id]);
          }
        }
        born_epoch_ = std::move(born);
        std::vector<AdmittedItem> kept;
        kept.reserve(admitted_items_.size());
        for (AdmittedItem& entry : admitted_items_) {
          const uint32_t new_id = old_to_new[entry.point_id];
          if (new_id != kDroppedIndexPoint) {
            entry.point_id = new_id;
            kept.push_back(std::move(entry));
          } else if (!options_.retire_admitted_items) {
            // PickSweepVictims guaranteed a surviving cover exists;
            // re-point the registry entry at the nearest one.
            const auto nn = next->tree().ExactKnn(entry.item.probs(), 1);
            entry.point_id = nn.front().point_id;
            kept.push_back(std::move(entry));
          }
          // retire_admitted_items: the entry dies with its point — the item
          // is retired and would be re-admitted on resubmission.
        }
        admitted_items_ = std::move(kept);
      }
    }
  }

  bool rebuilt = false;
  bool published = false;
  uint64_t epoch = 0;
  if (next != nullptr) {
    // One Compact per batch, not per delta: the gate sees the combined
    // degradation of every insert and removal above.
    if (next->tree().degradation() >= options_.rebuild_degradation) {
      const Status st = next->Compact(options_.tree);
      if (st.ok()) {
        rebuilt = true;
      } else {
        // The incrementally maintained tree is still sound — publish it.
        INFLEX_LOG(Warning) << "compact failed: " << st.ToString();
      }
    }
    std::shared_ptr<const InflexIndex> frozen = next;
    if (engine_ != nullptr) {
      epoch = engine_->PublishIndex(frozen, old_to_new);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (fates[i] == Fate::kApplied) {
          engine_->RecordPublishLatency(batch[i].admitted_at.ElapsedMillis());
        }
      }
    }
    published = true;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (engine_ == nullptr) epoch = epoch_ + 1;
      current_ = frozen;
      epoch_ = epoch;
      ++stats_.generations_published;
      if (rebuilt) ++stats_.tree_rebuilds;
      stats_.epoch = epoch_;
      stats_.index_points = frozen->num_index_points();
      stats_.points_evicted += victims.size();
      if (applied >= 2) stats_.batched_deltas += applied;
    }
    if (options_.on_publish) options_.on_publish(epoch, frozen);
  }

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const Fate f : fates) {
      if (f == Fate::kSuperseded) {
        ++stats_.superseded;
      } else if (f == Fate::kFailed) {
        ++stats_.failed;
      }
    }
    if (do_sweep) {
      ++stats_.decay_sweeps;
      sweep_pending_ = false;
    }
    INFLEX_CHECK_GE(pending_, batch.size());
    pending_ -= batch.size();
    if (published && options_.auto_sweep_every > 0 &&
        stats_.generations_published % options_.auto_sweep_every == 0) {
      sweep_pending_ = true;  // the publisher loop picks it up next round
    }
  }
  drained_.notify_all();
}

void IndexMaintainer::RequestDecaySweep() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    sweep_pending_ = true;
  }
  publisher_cv_.notify_all();
}

void IndexMaintainer::Drain() {
  INFLEX_CHECK(!pool_->OnWorkerThread());
  std::unique_lock<std::mutex> lock(state_mu_);
  drained_.wait(lock, [this] { return pending_ == 0 && !sweep_pending_; });
}

std::shared_ptr<const InflexIndex> IndexMaintainer::current() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_;
}

uint64_t IndexMaintainer::epoch() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return epoch_;
}

MaintenanceStats IndexMaintainer::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  MaintenanceStats out = stats_;
  out.pending = pending_;
  return out;
}

}  // namespace core
}  // namespace inflex

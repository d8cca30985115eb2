#ifndef INFLEX_INFLEX_QUERY_ENGINE_H_
#define INFLEX_INFLEX_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "inflex/hit_accounting.h"
#include "inflex/inflex_index.h"
#include "inflex/query_cache.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace inflex {
namespace core {

/// \brief One TIM request as it arrives at the serving layer: the item's
/// topic mixture, the answer size k, and the evaluation options.
struct QueryRequest {
  simplex::TopicDistribution item;
  size_t k = 10;
  QueryOptions options;
};

/// \brief Per-batch (or cumulative) serving statistics: what an operator
/// watches on a dashboard — throughput, cache effectiveness, and the latency
/// distribution tail.
struct ServingStats {
  size_t num_requests = 0;
  size_t num_ok = 0;
  size_t num_failed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Wall-clock of the whole batch (not the sum of per-request latencies).
  double wall_ms = 0.0;
  /// num_requests / wall seconds.
  double qps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Latency samples behind the percentile fields: the batch size for
  /// per-batch stats; for cumulative_stats() the number of reservoir samples
  /// the percentiles were estimated from (see QueryEngine).
  size_t latency_samples = 0;
  /// Maintenance visibility (filled by cumulative_stats(); zero for
  /// per-batch stats): how many index generations have been published, the
  /// cache traffic since the LAST publish (each publish bumps the cache
  /// epoch, so this is the warm-up curve of the current generation), and the
  /// admission→publish latency of the maintenance pipeline (delta submitted
  /// to IndexMaintainer until its generation went live).
  uint64_t generation_swaps = 0;
  uint64_t epoch_cache_hits = 0;
  uint64_t epoch_cache_misses = 0;
  uint64_t publishes_timed = 0;
  double admit_to_publish_mean_ms = 0.0;
  double admit_to_publish_max_ms = 0.0;
  /// \brief Seed-precompute cost attributed to one oracle backend (filled by
  /// cumulative_stats(); empty for per-batch stats). One row per backend that
  /// ran at least one admitted-delta precompute on this engine — normally a
  /// single row, but an A/B bench driving two maintainers at one engine gets
  /// one row each.
  struct OraclePrecompute {
    std::string backend;
    uint64_t count = 0;
    double total_ns = 0.0;
    double max_ns = 0.0;
    double mean_ns() const {
      return count > 0 ? total_ns / static_cast<double>(count) : 0.0;
    }
  };
  std::vector<OraclePrecompute> precompute;
  /// Network-front-end overload visibility (filled by cumulative_stats();
  /// zero for per-batch stats and when no InflexServer feeds the engine):
  /// the admission queue's current depth and high-water mark, and how many
  /// requests were shed (kOverloaded) or expired waiting (kDeadlineExceeded)
  /// instead of reaching QueryBatch. Overload must be observable, not
  /// silent — shed requests never enter num_requests, so without these the
  /// dashboard would show a healthy engine inside a melting server.
  size_t admission_queue_depth = 0;
  size_t admission_queue_peak = 0;
  uint64_t shed_count = 0;
  uint64_t deadline_expired_count = 0;
  /// Hits / (hits + misses); 0 when the batch had no cache traffic.
  double hit_rate() const;
  /// Hit rate within the current cache epoch (since the last publish).
  double epoch_hit_rate() const;
  /// One-line dashboard rendering ("1000 req in 12.3 ms | 81300 QPS | ...").
  std::string ToString() const;
};

/// \brief Options for a QueryEngine.
struct QueryEngineOptions {
  /// Answer cache configuration (sharded; see QueryCache).
  QueryCache::Options cache;
  /// When false every request runs the index directly (useful to measure
  /// raw index throughput, or when answers must reflect a mutating index).
  bool enable_cache = true;
  /// Per-index-point hit accounting: every answered query credits the index
  /// points that backed it (QueryResult::neighbors_used), and the scores
  /// decay by `hit_decay` at each generation publish. The decay sweep in
  /// IndexMaintainer uses the scores to pick cold points for eviction;
  /// leave off when the index is static.
  bool enable_hit_accounting = false;
  /// Multiplier applied to accumulated hit scores at each publish (see
  /// PointHitAccounting::Options::decay).
  double hit_decay = 0.5;
  /// Striping width of the hit counters across serving threads.
  size_t hit_stripes = 8;
  /// Pool the batch API fans requests across; nullptr = the process-global
  /// pool. The engine does not own the pool.
  ThreadPool* pool = nullptr;
};

/// \brief The concurrent TIM serving layer: owns the sharded QueryCache in
/// front of an immutable InflexIndex *generation* and fans request batches
/// across a ThreadPool.
///
/// This is the paper's "online" half (§4) industrialized: the index answers
/// one query in ~1 ms, so serving millions of users is a scheduling-and-
/// caching problem, not an algorithmic one. All public methods are safe to
/// call concurrently from any number of threads.
///
/// Generations (RCU-style): the engine holds the current index generation
/// behind an atomic std::shared_ptr. Every query pins the generation for its
/// duration (a shared_ptr copy), so PublishIndex() can swap in a new
/// immutable index at any moment — in-flight queries keep reading the
/// generation they started on, and the old index is destroyed only when the
/// last reader drops its pin. Published generations must never be mutated
/// afterwards; an IndexMaintainer prepares each new generation on a private
/// copy before publishing. Each publication bumps the cache epoch, which is
/// part of every cache key: stale entries become unreachable instantly and
/// age out via LRU, with no Clear() stall on the serving path.
///
/// Determinism: answers are pure functions of (generation, item, k,
/// options), so batched parallel serving returns bit-identical results to a
/// serial replay against the same generation — the serving and maintenance
/// stress suites assert exactly that.
class QueryEngine {
 public:
  /// Serves from `index` as generation epoch 0. The engine shares ownership;
  /// the index must not be mutated after construction.
  explicit QueryEngine(std::shared_ptr<const InflexIndex> index,
                       const QueryEngineOptions& options = {});

  /// Non-owning convenience overload: the caller guarantees the index
  /// outlives the engine and every in-flight query.
  explicit QueryEngine(const InflexIndex* index,
                       const QueryEngineOptions& options = {});

  /// Serves one request through the cache (thread-safe). The result's
  /// `generation` field records the epoch of the generation that served it.
  Result<QueryResult> Query(const QueryRequest& request);

  /// Serves a batch by fanning the requests across the pool; results are
  /// positionally aligned with the requests. Per-batch stats (latency
  /// percentiles, hit rate, QPS) are written to `stats` when non-null and
  /// folded into cumulative_stats() either way.
  std::vector<Result<QueryResult>> QueryBatch(
      std::span<const QueryRequest> requests, ServingStats* stats = nullptr);

  /// Atomically swaps in the next immutable index generation and bumps the
  /// cache epoch (lazy invalidation). Returns the new epoch. In-flight
  /// queries finish against the generation they pinned; new queries see
  /// `next`. Thread-safe against queries and against other publishers.
  ///
  /// `old_to_new` is the point-id remap when `next` renumbered index points
  /// (an eviction publish): old_to_new[old_id] is the survivor's id in
  /// `next`, kDroppedIndexPoint for evicted points. It is threaded into the
  /// hit-accounting fold so decayed scores follow surviving points. Empty =
  /// pure growth (ids preserved, appended points start cold).
  uint64_t PublishIndex(std::shared_ptr<const InflexIndex> next,
                        std::span<const uint32_t> old_to_new = {});

  /// Folds one admission→publish latency observation into the cumulative
  /// maintenance stats (called by IndexMaintainer when a generation it
  /// prepared goes live; the clock starts at delta admission). Thread-safe.
  void RecordPublishLatency(double ms);

  /// Folds one seed-precompute duration into the per-backend attribution
  /// rows of cumulative_stats() (called by IndexMaintainer's precompute
  /// stage; `backend` is the oracle's name, "celfpp" or "ris").
  /// Thread-safe.
  void RecordPrecompute(const std::string& backend, double ns);

  /// Admission-control visibility hooks (called by the network front end;
  /// all thread-safe, lock-free). The engine never sheds by itself — these
  /// only mirror the server's bounded-queue decisions into ServingStats.
  void ReportAdmissionQueue(size_t depth);
  void RecordLoadShed(uint64_t count);
  void RecordDeadlineExpired(uint64_t count);

  /// Pins and returns the current generation (never null).
  std::shared_ptr<const InflexIndex> index_snapshot() const;

  /// Epoch of the current generation (0 until the first PublishIndex).
  uint64_t index_epoch() const;

  /// Drops every cached answer eagerly. Generation swaps do NOT need this —
  /// PublishIndex invalidates lazily via the epoch — but it remains useful
  /// when memory pressure matters more than hit rate.
  void InvalidateCache() { cache_.Clear(); }

  /// Totals over every request served so far. Counts and mean/max are exact
  /// (merged from the stats stripes). Latency percentiles are estimated from
  /// bounded per-stripe reservoirs (Vitter's Algorithm R) merged at read
  /// with each sample weighted by its stripe's observed count
  /// (seen_i / |R_i|), so the merge estimates one uniform reservoir over
  /// ALL batch-served requests even when the round-robin dealing left the
  /// stripes unevenly loaded (bursty arrivals, few large batches);
  /// `latency_samples` reports the merged occupancy (≤
  /// kLatencyReservoirCapacity). `wall_ms` is the engine-level serving span:
  /// total wall time during which ≥1 batch was in flight (first-batch-start
  /// to last-batch-end per busy period, summed over busy periods), so
  /// `qps` = requests / busy-time stays honest when N server workers batch
  /// concurrently — summing per-caller walls would count overlap N times and
  /// understate throughput by ~N.
  ServingStats cumulative_stats() const;

  /// Per-index-point hit scores of the current generation (decayed history +
  /// live counts; see PointHitAccounting). Empty when hit accounting is
  /// disabled.
  std::vector<double> HitScores() const;

  /// The hit-accounting layer, or nullptr when disabled.
  const PointHitAccounting* hit_accounting() const {
    return hit_accounting_.get();
  }

  QueryCache& cache() { return cache_; }
  const QueryEngineOptions& options() const { return options_; }

  /// Upper bound on latency reservoir size backing cumulative percentile
  /// estimates. 4096 uniform samples put the standard error of a p99
  /// estimate near 0.16% rank (sqrt(0.99*0.01/4096)) — plenty for a
  /// dashboard tail readout.
  static constexpr size_t kLatencyReservoirCapacity = 4096;

 private:
  /// One published index generation: the immutable index plus its epoch,
  /// swapped as a unit so a query can never pair an index with the wrong
  /// cache epoch.
  struct Generation {
    std::shared_ptr<const InflexIndex> index;
    uint64_t epoch = 0;
  };

  std::shared_ptr<const Generation> PinGeneration() const {
    return generation_.load(std::memory_order_acquire);
  }

  QueryEngineOptions options_;
  QueryCache cache_;

  std::atomic<std::shared_ptr<const Generation>> generation_;
  std::mutex publish_mu_;  // serializes PublishIndex epoch assignment

  std::atomic<uint64_t> generation_swaps_{0};

  /// Admission-control mirrors (see ReportAdmissionQueue and friends).
  std::atomic<size_t> admission_queue_depth_{0};
  std::atomic<size_t> admission_queue_peak_{0};
  std::atomic<uint64_t> shed_count_{0};
  std::atomic<uint64_t> deadline_expired_count_{0};

  /// nullptr unless options_.enable_hit_accounting.
  std::unique_ptr<PointHitAccounting> hit_accounting_;

  /// One stats stripe: each QueryBatch folds its whole batch into exactly
  /// one stripe (dealt round-robin), so N concurrent batchers contend on a
  /// stripe mutex only 1/kStatsStripes of the time instead of serializing on
  /// one engine-wide lock per batch. Cache-line separated; the reservoir is
  /// a per-stripe Algorithm-R sample of the stripe's share of the stream.
  struct alignas(64) StatsStripe {
    mutable std::mutex mu;
    uint64_t num_requests = 0;
    uint64_t num_ok = 0;
    uint64_t num_failed = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    double latency_total_ms = 0.0;
    double latency_max_ms = 0.0;
    std::vector<double> reservoir;
    uint64_t seen = 0;
    Rng rng;
  };
  static constexpr size_t kStatsStripes = 16;
  static constexpr size_t kStripeReservoirCapacity =
      kLatencyReservoirCapacity / kStatsStripes;

  /// Engine-level serving span bookkeeping (see cumulative_stats): a batch
  /// entering when none was active starts the span clock; the last one out
  /// banks the busy period.
  void BeginBatchSpan();
  void EndBatchSpan();
  double ServingWallMs() const;

  std::vector<std::unique_ptr<StatsStripe>> stats_stripes_;
  std::atomic<uint64_t> stripe_rr_{0};

  mutable std::mutex span_mu_;
  size_t active_batches_ = 0;        // guarded by span_mu_
  Timer span_timer_;                 // guarded by span_mu_
  double accumulated_span_ms_ = 0.0;  // guarded by span_mu_

  mutable std::mutex stats_mu_;
  // Cache-counter baselines captured at the last publish: epoch-scoped hit
  // rate is (cache totals − baseline). Guarded as a PAIR by stats_mu_ so a
  // reader can never combine a hits baseline from one publish with a misses
  // baseline from another (lock order: publish_mu_ → stats_mu_).
  uint64_t epoch_hits_base_ = 0;    // guarded by stats_mu_
  uint64_t epoch_misses_base_ = 0;  // guarded by stats_mu_
  // Admission→publish latency aggregates (guarded by stats_mu_).
  uint64_t publishes_timed_ = 0;
  double publish_latency_total_ms_ = 0.0;
  double publish_latency_max_ms_ = 0.0;
  // Per-backend precompute attribution (guarded by stats_mu_). A handful of
  // entries at most, so linear lookup beats a map.
  std::vector<ServingStats::OraclePrecompute> precompute_;
};

}  // namespace core
}  // namespace inflex

#endif  // INFLEX_INFLEX_QUERY_ENGINE_H_

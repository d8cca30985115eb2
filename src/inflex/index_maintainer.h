#ifndef INFLEX_INFLEX_INDEX_MAINTAINER_H_
#define INFLEX_INFLEX_INDEX_MAINTAINER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "oracle/spread_oracle.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace inflex {
namespace core {

/// \brief One catalog change as it reaches the maintenance plane: a new (or
/// re-described) item's topic mixture, plus an operator-facing identifier.
struct CatalogDelta {
  /// Free-form item identifier, used only for logs and receipts.
  std::string id;
  simplex::TopicDistribution item;
};

/// \brief What happened to a submitted delta.
enum class DeltaOutcome {
  /// The delta passed the KL-coverage test: a background seed precompute
  /// (through the configured spread oracle) was scheduled and a new index
  /// generation will be published.
  kAdmitted,
  /// An existing index point already covers the item (its divergence is
  /// within the admission threshold, so by the Fig. 4 KL↔Kendall coupling
  /// the stored seed list answers it accurately). No work scheduled.
  kCovered,
  /// Admitted at submission, but by the time its seeds were ready another
  /// publication had already covered the item; the point was not added.
  /// (Only ever reported through MaintenanceStats — SubmitDelta itself has
  /// returned kAdmitted long before.)
  kSuperseded,
  /// Back-pressure: the delta would have been admitted, but the maintenance
  /// pipeline already holds pending_high_watermark unpublished deltas.
  /// Nothing was scheduled — resubmit once the publisher catches up. The
  /// serving front end maps this to kOverloaded on the wire.
  kRetryLater,
};

const char* DeltaOutcomeName(DeltaOutcome outcome);

/// \brief Receipt returned synchronously by SubmitDelta.
struct DeltaReceipt {
  DeltaOutcome outcome = DeltaOutcome::kCovered;
  /// min_i D_KL(γ_i ‖ γ_new) against the generation current at submission —
  /// the §3.1 coverage objective evaluated for the incoming item.
  double min_divergence = 0.0;
  /// Monotone ticket of an admitted delta (0 when not admitted). Tickets
  /// order admissions, not publications.
  uint64_t ticket = 0;
};

/// \brief Counters describing the maintenance plane (all cumulative).
struct MaintenanceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t covered = 0;
  uint64_t superseded = 0;
  uint64_t failed = 0;
  /// Deltas bounced with kRetryLater by the pending high-water mark.
  uint64_t deferred = 0;
  uint64_t generations_published = 0;
  uint64_t tree_rebuilds = 0;
  /// Decay sweeps executed (including sweeps that evicted nothing).
  uint64_t decay_sweeps = 0;
  /// Index points dropped by decay sweeps.
  uint64_t points_evicted = 0;
  /// Admitted deltas whose publication was coalesced with at least one
  /// other delta (i.e. published in a batch of ≥ 2). A 100-delta burst that
  /// lands in 4 generations reports ~100 here but only 4 publications.
  uint64_t batched_deltas = 0;
  /// Epoch of the newest published generation.
  uint64_t epoch = 0;
  /// Index points in the newest generation.
  size_t index_points = 0;
  /// Admitted deltas not yet published/superseded/failed (in precompute or
  /// waiting in the publisher's ready queue).
  size_t pending = 0;
  /// One-line operator rendering.
  std::string ToString() const;
};

/// \brief Options for an IndexMaintainer.
struct IndexMaintainerOptions {
  /// KL-coverage admission threshold: a delta is admitted as a new index
  /// point when min_i D_KL(γ_i ‖ γ_new) exceeds this. Mirrors the §3.1
  /// objective (cover the catalog's density with index points); Figure 4's
  /// KL↔Kendall correlation makes small divergences safe to serve from the
  /// nearest existing point.
  double admission_threshold = 0.05;
  /// ℓ of the precomputed seed list for admitted points (0 = the current
  /// index's seed_list_length()).
  size_t seed_list_length = 0;
  uint64_t seed = 101;
  /// Which spread oracle runs the stage-2 seed precompute, and its tuning.
  /// A zero-valued `oracle.seed` inherits `seed` above; `oracle.num_snapshots`
  /// sets the live-edge snapshots behind each CELF++ precompute. The
  /// maintainer defaults to the RIS backend: orders-of-magnitude cheaper
  /// admission-time precompute at gate-verified relevance (the golden-corpus
  /// quality gate, DESIGN.md §15, scores every backend against exact-CELF++
  /// goldens on every change; RIS cleared it before becoming the default).
  /// Set `oracle.backend` to kCelfPp to reproduce the historical hard-coded
  /// snapshot-CELF++ path bit-for-bit (DESIGN.md §14).
  oracle::SpreadOracleOptions oracle{.backend = oracle::OracleBackend::kRis};
  /// Publish-time tree-quality gate: when the batch's inserts/removals push
  /// the clone's tree degradation() to this, the new generation is produced
  /// by a full §3.2 rebuild instead (Compact()) — once per batch, not per
  /// delta.
  double rebuild_degradation = 0.10;
  /// Options for those full rebuilds.
  bbtree::BbTreeOptions tree;

  /// --- Delta coalescing (the publisher thread's batching window) ---
  /// Upper bound on admitted deltas folded into one clone+insert+publish.
  size_t max_batch = 16;
  /// How long the publisher waits for further precomputes to finish before
  /// publishing what it has. The window only opens while precomputes are
  /// actually in flight: a lone delta (nothing else pending) publishes
  /// immediately, a burst coalesces. 0 disables coalescing entirely.
  double max_batch_delay_ms = 50.0;

  /// --- Eviction / decay sweeps ---
  /// A sweep (RequestDecaySweep or auto_sweep_every) evicts points whose
  /// decayed hit score (QueryEngine::HitScores) is below this. Requires the
  /// engine to run with enable_hit_accounting; sweeps are no-ops otherwise.
  double eviction_score_threshold = 0.5;
  /// Grace period: a point is never evicted until at least this many
  /// generations have been published since it was added (fresh points have
  /// had no time to earn hits).
  size_t min_point_age_generations = 2;
  /// Hard floor on index size; sweeps never shrink the index below this.
  size_t min_index_points = 16;
  /// true (default): a cold admitted point is evicted and its item retired
  /// from the admitted-item registry — resubmitting the item later re-admits
  /// it. false: a point that is the last one covering a registered admitted
  /// item (no survivor within admission_threshold) is protected from
  /// eviction no matter how cold.
  bool retire_admitted_items = true;
  /// When > 0, a decay sweep is requested automatically after every N
  /// published generations. 0 = sweeps only via RequestDecaySweep().
  size_t auto_sweep_every = 0;

  /// --- Back-pressure ---
  /// When > 0, SubmitDelta answers kRetryLater (admitting nothing) while
  /// `pending` — admitted deltas not yet published/superseded/failed — is at
  /// or above this mark. Bounds the precompute backlog under delta storms:
  /// the CELF++ stage is minutes-per-delta while admission is microseconds,
  /// so without a ceiling the queue grows unboundedly. 0 = unbounded
  /// (the pre-back-pressure behavior).
  size_t pending_high_watermark = 0;

  /// Dedicated background pool for the seed precompute; the serving path
  /// never blocks on it. nullptr = the maintainer creates a private
  /// single-thread pool.
  ThreadPool* pool = nullptr;
  /// Invoked after every generation publication, from the publisher thread
  /// (so invocations are ordered by epoch). Must not call SubmitDelta or
  /// Drain of this maintainer synchronously from the callback; reading
  /// stats()/current() is fine.
  std::function<void(uint64_t epoch, std::shared_ptr<const InflexIndex>)>
      on_publish;
};

/// \brief The live index maintenance plane: turns a stream of catalog deltas
/// into a sequence of immutable InflexIndex *generations* published under
/// serving load, without ever blocking the query path.
///
/// Pipeline per delta (the paper's offline §3 stages made incremental):
///  1. **Admission** (synchronous, microseconds): a 1-NN probe of the
///     current generation's ball tree evaluates the §3.1 coverage objective
///     min_i D_KL(γ_i ‖ γ_new). Deltas inside the threshold are already
///     covered — the nearest point's precomputed list serves them — and are
///     dropped.
///  2. **Seed precompute** (background, the expensive part): the configured
///     SpreadOracle on the item-specific IC instance (Eq. 1), run on the
///     dedicated maintenance pool. The default CELF++ backend is exactly
///     the per-point offline computation of InflexIndex::Build; the RIS
///     backend trades that golden path for orders-of-magnitude lower
///     admit→publish latency (DESIGN.md §14). Finished precomputes are
///     handed to the publisher as *ready deltas*.
///  3. **Coalesced publication** (dedicated publisher thread): ready deltas
///     are drained in admission-ticket order into ONE clone of the latest
///     generation — re-checking coverage against the *evolving* clone, so a
///     near-duplicate admitted twice still publishes once (kSuperseded) —
///     bounded by max_batch / max_batch_delay_ms. Pending decay-sweep
///     evictions fold into the same clone (RemoveIndexPoints), the tree is
///     compacted at most once per batch when degradation crosses the gate,
///     and the clone is published as the next immutable generation via
///     QueryEngine::PublishIndex (atomic shared_ptr swap + cache-epoch bump,
///     with the eviction id-remap threaded into the hit-score fold). A burst
///     of N admitted deltas costs O(1) generations instead of N; in-flight
///     queries keep the generation they pinned; nobody waits.
///
/// Eviction safety: a sweep only considers points whose decayed hit score is
/// below eviction_score_threshold AND that are at least
/// min_point_age_generations old; the index never shrinks below
/// min_index_points; and with retire_admitted_items=false the last point
/// covering a registered admitted item is protected (see options).
///
/// Thread-safety: SubmitDelta/RequestDecaySweep/Drain/current/epoch/stats
/// may be called concurrently from any threads, concurrently with serving.
class IndexMaintainer {
 public:
  /// `initial` is generation 0 (must be the same index the engine serves).
  /// `graph` backs the CELF++ precompute and must outlive the maintainer.
  /// `engine` receives the publications; may be nullptr (the maintainer
  /// then only tracks generations itself — useful for tests and tools —
  /// but decay sweeps become no-ops: hit scores live in the engine).
  IndexMaintainer(std::shared_ptr<const InflexIndex> initial,
                  const graph::TopicGraph* graph, QueryEngine* engine,
                  const IndexMaintainerOptions& options = {});

  /// Drains pending work before destruction.
  ~IndexMaintainer();

  IndexMaintainer(const IndexMaintainer&) = delete;
  IndexMaintainer& operator=(const IndexMaintainer&) = delete;

  /// Runs the admission test and, for admitted deltas, schedules the
  /// background precompute+publication. Returns immediately in either case.
  /// Fails on a dimension mismatch with the index.
  Result<DeltaReceipt> SubmitDelta(const CatalogDelta& delta);

  /// Asks the publisher to fold a decay sweep into its next publication
  /// (standalone if no deltas are pending). Returns immediately; Drain()
  /// waits for the sweep too. Requests collapse: several requests before
  /// the sweep runs execute once.
  void RequestDecaySweep();

  /// Blocks until every admitted delta has been published, superseded, or
  /// failed, and any requested decay sweep has run. Must not be called from
  /// the maintenance pool or the on_publish callback.
  void Drain();

  /// Pins and returns the newest published generation.
  std::shared_ptr<const InflexIndex> current() const;

  /// Epoch of the newest published generation.
  uint64_t epoch() const;

  MaintenanceStats stats() const;

 private:
  /// A delta whose precompute finished, waiting for the publisher.
  struct ReadyDelta {
    CatalogDelta delta;
    uint64_t ticket = 0;
    rank::RankedList seeds;
    Status precompute_status;
    /// Started at admission; elapsed at publication = admit→publish latency.
    Timer admitted_at;
  };

  /// An admitted item the maintainer still vouches coverage for (used by
  /// the retire_admitted_items=false protection rule). Publisher-thread
  /// state: only the publisher reads or mutates the registry after
  /// construction.
  struct AdmittedItem {
    simplex::TopicDistribution item;
    uint32_t point_id = 0;
  };

  /// Background stage 2: seed precompute through the configured spread
  /// oracle, then hand off to the publisher.
  void PrecomputeAdmitted(CatalogDelta delta, uint64_t ticket,
                          Timer admitted_at);

  /// The publisher thread: batches ready deltas + pending sweeps into
  /// coalesced publications until shutdown.
  void PublisherLoop();

  /// Stage 3 for one batch (runs on the publisher thread, no lock held).
  void PublishBatch(std::vector<ReadyDelta> batch, bool do_sweep);

  /// Picks sweep victims for the clone `next` (already carrying this
  /// batch's inserts). Returns ids to remove, respecting score threshold,
  /// min age, min size, and admitted-item coverage.
  std::vector<uint32_t> PickSweepVictims(const InflexIndex& next,
                                         uint64_t next_epoch);

  /// min_i D_KL(γ_i ‖ γ_item) via a 1-NN tree probe of `index`.
  static double MinDivergence(const InflexIndex& index,
                              const simplex::TopicDistribution& item);

  const graph::TopicGraph* graph_;
  QueryEngine* engine_;  // may be null
  IndexMaintainerOptions options_;
  /// The stage-2 seed-precompute backend. Thread-safe: pool workers call
  /// SelectSeeds concurrently.
  std::unique_ptr<oracle::SpreadOracle> oracle_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // options_.pool or owned_pool_.get()

  mutable std::mutex state_mu_;
  std::condition_variable publisher_cv_;     // wakes the publisher
  std::condition_variable drained_;          // pending_==0 && !sweep_pending_
  std::shared_ptr<const InflexIndex> current_;  // guarded by state_mu_
  uint64_t epoch_ = 0;                       // guarded by state_mu_
  uint64_t next_ticket_ = 0;                 // guarded by state_mu_
  size_t pending_ = 0;                       // guarded by state_mu_
  size_t precompute_inflight_ = 0;           // guarded by state_mu_
  std::deque<ReadyDelta> ready_;             // guarded by state_mu_
  bool sweep_pending_ = false;               // guarded by state_mu_
  bool stop_ = false;                        // guarded by state_mu_
  MaintenanceStats stats_;                   // guarded by state_mu_

  /// Publisher-thread-only state (no lock): birth epoch per current point
  /// id (age gate) and the admitted-item registry (coverage protection).
  /// Both follow the eviction id-remap at each sweep publish.
  std::vector<uint64_t> born_epoch_;
  std::vector<AdmittedItem> admitted_items_;

  /// Started last in the constructor, joined first in the destructor.
  std::thread publisher_;
};

}  // namespace core
}  // namespace inflex

#endif  // INFLEX_INFLEX_INDEX_MAINTAINER_H_

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "data/workload.h"
#include "net/client.h"
#include "simplex/sampling.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace inflexbench {

namespace core = inflex::core;
namespace net = inflex::net;
using inflex::Rng;
using inflex::simplex::TopicDistribution;

namespace {

/// QueryCache's default grid: mixtures rounding to one cell share an answer.
constexpr double kCacheGrid = 0.01;
/// Client threads (and connections) of hot_repeat and live_catalog, at most
/// nproc here. cold_inflex uses two: four saturate the four cores with
/// aggregation work, and a saturated run measures mostly how much CPU the
/// host withheld.
constexpr size_t kClients = 4;
constexpr size_t kColdClients = 2;
/// hot_repeat / live_catalog: popular mixtures, well under the 4096-entry
/// cache, drawn Zipf(1.0) by rank.
constexpr size_t kPopularSet = 1000;
constexpr double kZipfExponent = 1.0;
/// live_catalog: delta send rate. Every other delta is a far item the
/// maintainer admits (~25 ms of RIS precompute on its one thread), so the
/// precompute thread stays about half busy and builds no backlog.
constexpr double kLiveDeltasPerS = 30.0;
/// Idle-server freshness probe of cold_inflex and hot_repeat: the same
/// delta mix, at a pace that leaves the precompute thread idle half the time.
constexpr size_t kProbeDeltas = 120;
constexpr double kProbeIntervalUs = 25000.0;
/// The window is cut into this many equal slices; cpu_us_per_query is the
/// median of the per-slice values, so a few seconds of interference from
/// other tenants of the host move it less.
constexpr size_t kSlices = 10;
/// Span names (static strings; spans keep the pointer).
constexpr const char* kCallSpan = "net.call";
constexpr const char* kQueueSpan = "server.queue";
constexpr const char* kEngineSpan = "server.engine";

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Identifies the QueryCache cell of a mixture (same rounding as the cache).
uint64_t CellKey(const TopicDistribution& item) {
  uint64_t h = item.num_topics();
  for (double p : item.probs()) {
    h = Mix(h, static_cast<uint32_t>(std::lround(p / kCacheGrid)));
  }
  return h;
}

/// A fixed-size Bloom filter over cell keys: constant memory however many
/// mixtures a run sends. A false positive only rejects a fresh mixture, and
/// does so deterministically.
class CellFilter {
 public:
  CellFilter() : words_(kBits / 64, 0) {}

  /// Inserts `key`; false when it was (probably) present already.
  bool InsertIfNew(uint64_t key) {
    const uint64_t step = Mix(key, 0x51ed) | 1;
    bool fresh = false;
    for (uint64_t i = 0; i < kHashes; ++i) {
      const uint64_t bit = (key + i * step) & (kBits - 1);
      uint64_t& word = words_[bit >> 6];
      const uint64_t mask = 1ULL << (bit & 63);
      if ((word & mask) == 0) {
        fresh = true;
        word |= mask;
      }
    }
    return fresh;
  }

 private:
  static constexpr uint64_t kBits = 1ULL << 24;  // 2 MiB
  static constexpr uint64_t kHashes = 4;
  std::vector<uint64_t> words_;
};

/// \brief cold_inflex's input: an endless, seed-determined sequence of
/// mixtures in distinct cache cells, alternating data-driven and uniform
/// draws (§5 via data::GenerateQueryWorkload). Generated in chunks on
/// demand, so the sequence is the same however fast it is consumed.
class ColdStream {
 public:
  ColdStream(const std::vector<TopicDistribution>* catalog, uint64_t seed)
      : catalog_(catalog), seed_(seed) {}

  /// The next mixture and its sequence number (thread-safe).
  TopicDistribution Next(uint32_t* seq) {
    std::lock_guard<std::mutex> lock(mu_);
    while (pos_ == chunk_.size()) Refill();
    *seq = next_seq_++;
    return chunk_[pos_++];
  }

  uint64_t rejected() const { return rejected_; }
  uint64_t data_driven() const { return data_driven_; }
  uint64_t accepted() const { return accepted_; }

 private:
  static constexpr size_t kChunkHalf = 1024;

  void Refill() {
    inflex::data::QueryWorkloadOptions wopts;
    wopts.num_data_driven = kChunkHalf;
    wopts.num_uniform = kChunkHalf;
    wopts.seed = Mix(seed_, chunk_index_++);
    auto workload = inflex::data::GenerateQueryWorkload(*catalog_, wopts);
    INFLEX_CHECK(workload.ok());
    const auto& queries = workload.ValueOrDie().queries;
    chunk_.clear();
    pos_ = 0;
    for (size_t i = 0; i < 2 * kChunkHalf; ++i) {
      // Interleave: even positions data-driven, odd uniform.
      const size_t src = (i % 2 == 0) ? i / 2 : kChunkHalf + i / 2;
      if (!filter_.InsertIfNew(CellKey(queries[src]))) {
        ++rejected_;
        continue;
      }
      if (src < kChunkHalf) ++data_driven_;
      ++accepted_;
      chunk_.push_back(queries[src]);
    }
  }

  const std::vector<TopicDistribution>* catalog_;
  uint64_t seed_;
  std::mutex mu_;
  CellFilter filter_;                    // guarded by mu_
  std::vector<TopicDistribution> chunk_;  // guarded by mu_
  size_t pos_ = 0;                       // guarded by mu_
  uint64_t chunk_index_ = 0;             // guarded by mu_
  uint32_t next_seq_ = 0;                // guarded by mu_
  uint64_t rejected_ = 0;                // guarded by mu_
  uint64_t data_driven_ = 0;             // guarded by mu_
  uint64_t accepted_ = 0;                // guarded by mu_
};

/// The popular set of hot_repeat / live_catalog: kPopularSet mixtures in
/// distinct cells, half data-driven and half uniform.
std::vector<TopicDistribution> PopularSet(
    const std::vector<TopicDistribution>& catalog, uint64_t seed) {
  inflex::data::QueryWorkloadOptions wopts;
  wopts.num_data_driven = kPopularSet;
  wopts.num_uniform = kPopularSet;
  wopts.seed = Mix(seed, 0x707);
  auto workload = inflex::data::GenerateQueryWorkload(catalog, wopts);
  INFLEX_CHECK(workload.ok());
  const auto& queries = workload.ValueOrDie().queries;
  std::unordered_set<uint64_t> cells;
  std::vector<TopicDistribution> out;
  for (size_t i = 0; i < kPopularSet && out.size() < kPopularSet; ++i) {
    for (size_t src : {i, kPopularSet + i}) {
      if (out.size() < kPopularSet && cells.insert(CellKey(queries[src])).second) {
        out.push_back(queries[src]);
      }
    }
  }
  return out;
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One wire answer kept for the after-window check.
struct Answer {
  uint32_t key = 0;  // cold: sequence number; live: popular-set position
  uint32_t epoch = 0;
  uint64_t seeds_hash = 0;
  bool from_cache = false;
};

/// What one client thread saw. Latencies are kept per phase (0 = the
/// untraced window, or its first half in a traced run; 1 = the traced
/// half); successful calls are counted per window slice by completion time.
struct ClientLog {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t hits = 0;
  uint64_t ok_in[kSlices] = {};
  LatencyHistogram rtt[2];
  std::vector<Answer> answers;
  SpanLog spans;
  std::vector<std::pair<double, TracedQuery>> traced;  // (completion, query)
  std::vector<float> queue_us;
  uint64_t negative_transport = 0;
};

/// The query source and per-answer check of a workload's readers.
struct QuerySource {
  /// Fills `item` with a client's next query; returns its key.
  std::function<uint32_t(Rng* rng, TopicDistribution* item)> next;
  /// Checks an OK answer on the spot (nullptr = keep it in `answers`).
  std::function<bool(uint32_t key, const net::WireResponse& resp)> check;
};

/// Drives `clients` closed-loop readers over the wire from `start_us` to
/// `end_us`; requests after `split_us` are traced when `trace`.
std::vector<ClientLog> RunReaders(uint16_t port, size_t clients,
                                  const QuerySource& source, uint64_t seed,
                                  double start_us, double split_us,
                                  double end_us, bool trace,
                                  std::vector<std::string>* problems) {
  std::vector<ClientLog> logs(clients);
  std::vector<std::thread> threads;
  std::mutex problems_mu;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      auto connected = net::InflexClient::Connect("127.0.0.1", port, 30000);
      if (!connected.ok()) {
        std::lock_guard<std::mutex> lock(problems_mu);
        problems->push_back("client connect: " +
                            connected.status().ToString());
        return;
      }
      net::InflexClient client = std::move(connected).ValueOrDie();
      Rng rng(Mix(seed, 0xc11e27 + c));
      core::QueryRequest request;
      request.k = kQueryK;
      for (double now = NowMicros(); now < start_us; now = NowMicros()) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(std::min(1000.0, start_us - now)) + 1));
      }
      const double slice_us = (end_us - start_us) / kSlices;
      uint64_t seq = 0;
      while (true) {
        const uint32_t key = source.next(&rng, &request.item);
        const double t0 = NowMicros();
        if (t0 >= end_us) break;
        const int phase = (trace && t0 >= split_us) ? 1 : 0;
        auto record = [&](double rtt) { log.rtt[phase].Add(rtt); };
        auto result = client.Query(request);
        const double t1 = NowMicros();
        ++log.sent;
        const uint64_t request_id = (static_cast<uint64_t>(c) << 40) | seq++;
        if (!result.ok()) {
          ++log.failed;
          record(std::numeric_limits<double>::infinity());
          // A poisoned connection fails every later call; reconnect.
          auto again = net::InflexClient::Connect("127.0.0.1", port, 30000);
          if (again.ok()) client = std::move(again).ValueOrDie();
          continue;
        }
        const net::WireResponse& resp = result.ValueOrDie();
        if (resp.status == net::WireStatus::kOverloaded) {
          ++log.shed;
          record(std::numeric_limits<double>::infinity());
          continue;
        }
        if (!resp.ok()) {
          ++log.failed;
          record(std::numeric_limits<double>::infinity());
          continue;
        }
        ++log.ok;
        if (t1 < end_us) {
          ++log.ok_in[static_cast<size_t>((t1 - start_us) / slice_us)];
        }
        record(t1 - t0);
        if (resp.from_cache) ++log.hits;
        const uint64_t hash = HashSeeds(resp.seeds);
        if (source.check) {
          if (!source.check(key, resp)) ++log.mismatched;
        } else {
          log.answers.push_back({key, static_cast<uint32_t>(resp.epoch), hash,
                                 resp.from_cache});
        }
        if (phase == 1) {
          // The wire carries durations only, so the server's queue and
          // engine intervals are placed with half the transport on either
          // side of them inside the call.
          const double queue = resp.queue_ms * 1e3;
          const double engine = resp.engine_ms * 1e3;
          const double transport = (t1 - t0) - queue - engine;
          if (transport < 0.0) ++log.negative_transport;
          const double q0 = t0 + std::max(0.0, transport) / 2.0;
          const uint32_t call =
              log.spans.Add(request_id, 0, kCallSpan, t0, t1);
          log.spans.Add(request_id, call, kQueueSpan, q0, q0 + queue);
          log.spans.Add(request_id, call, kEngineSpan, q0 + queue,
                        q0 + queue + engine);
          log.queue_us.push_back(static_cast<float>(queue));
          // The replay takes the first kReplayQueries completions overall,
          // which are among each client's first kReplayQueries.
          if (log.traced.size() >= kReplayQueries) continue;
          TracedQuery tq;
          tq.request = request_id;
          tq.item = request.item;
          tq.epoch = resp.epoch;
          tq.seeds_hash = hash;
          tq.from_cache = resp.from_cache;
          log.traced.emplace_back(t1, std::move(tq));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// One catalog delta sent by the open-loop generator.
struct SentDelta {
  TopicDistribution item;
  double due_us = 0.0;
  uint64_t receipt_epoch = 0;
  uint16_t outcome = 0;  // DeltaOutcome + 1, 0 when no receipt
};

struct DeltaLog {
  std::vector<SentDelta> sent;
  double max_late_us = 0.0;
  std::vector<double> rtt_us;
  uint64_t failed = 0;
  uint64_t deferred = 0;
};

/// Sends deltas over one connection on a fixed-rate schedule from
/// `start_us`: item i is `items(i)`, stopping before `count` sends or once a
/// send falls due at or after `end_us`.
DeltaLog RunDeltaStream(uint16_t port,
                        const std::function<TopicDistribution(size_t)>& items,
                        double start_us, double interval_us, size_t count,
                        double end_us, std::vector<std::string>* problems) {
  DeltaLog log;
  auto connected = net::InflexClient::Connect("127.0.0.1", port, 30000);
  if (!connected.ok()) {
    problems->push_back("delta connect: " + connected.status().ToString());
    return log;
  }
  net::InflexClient client = std::move(connected).ValueOrDie();
  OpenLoopSchedule schedule(start_us, interval_us);
  for (size_t i = 0; i < count && schedule.Due(i) < end_us; ++i) {
    SentDelta d;
    d.item = items(i);
    d.due_us = schedule.Due(i);
    for (double now = NowMicros(); now < d.due_us; now = NowMicros()) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(std::min(2000.0, d.due_us - now)) + 1));
    }
    const double t0 = NowMicros();
    schedule.RecordSend(i, t0);
    auto result = client.SubmitDelta("d" + std::to_string(i), d.item.probs());
    log.rtt_us.push_back(NowMicros() - t0);
    if (!result.ok()) {
      ++log.failed;
      auto again = net::InflexClient::Connect("127.0.0.1", port, 30000);
      if (again.ok()) client = std::move(again).ValueOrDie();
    } else if (result.ValueOrDie().status == net::WireStatus::kOverloaded) {
      ++log.deferred;
    } else if (!result.ValueOrDie().ok()) {
      ++log.failed;
    } else {
      d.receipt_epoch = result.ValueOrDie().epoch;
      d.outcome = result.ValueOrDie().delta_outcome;
    }
    log.sent.push_back(std::move(d));
  }
  log.max_late_us = schedule.max_late_us();
  return log;
}

bool Admitted(const SentDelta& d) {
  return d.outcome == static_cast<uint16_t>(core::DeltaOutcome::kAdmitted) + 1;
}

/// Freshness of every admitted delta: from its due time to the publish of
/// the first generation holding it as an index point. Deltas found in no
/// generation (superseded) are counted in `missing`.
std::vector<double> Freshness(const DeltaLog& log,
                              const std::vector<Generation>& generations,
                              size_t* missing) {
  std::vector<double> out;
  *missing = 0;
  for (const SentDelta& d : log.sent) {
    if (!Admitted(d)) continue;
    bool found = false;
    for (const Generation& g : generations) {
      if (g.epoch <= d.receipt_epoch) continue;
      for (uint32_t p = g.index->num_index_points(); p-- > 0 && !found;) {
        if (g.index->index_point(p) == d.item.probs()) found = true;
      }
      if (found) {
        out.push_back(g.published_us - d.due_us);
        break;
      }
    }
    if (!found) ++*missing;
  }
  return out;
}

/// The delta mix: even deltas are points of the built index (covered:
/// divergence 0), odd ones uniform simplex draws far from the index, which
/// the KL-coverage test admits unless an earlier admission covers them.
std::function<TopicDistribution(size_t)> DeltaItems(const World& world,
                                                    uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  std::shared_ptr<const core::InflexIndex> base = world.index;
  const size_t num_topics = world.config.num_topics;
  return [num_topics, rng, base](size_t i) {
    auto td = TopicDistribution::Create(
        i % 2 == 1
            ? inflex::simplex::SampleUniformSimplex(num_topics, rng.get())
            : base->index_point((i / 2) % base->num_index_points()));
    INFLEX_CHECK(td.ok());
    return std::move(td).ValueOrDie();
  };
}

/// In-process answer of generation `index` (the reference of every check).
uint64_t ReferenceHash(const core::InflexIndex& index,
                       const TopicDistribution& item) {
  auto result = index.Query(item, kQueryK);
  return result.ok() ? HashSeeds(result.ValueOrDie().seeds) : 0;
}

/// Warms the engine's cache with the popular set over the wire and returns
/// each mixture's first (uncached) answer, checked against the index.
std::vector<uint64_t> WarmPopular(World& world,
                                  const std::vector<TopicDistribution>& popular,
                                  Outcome* out) {
  std::vector<uint64_t> first(popular.size(), 0);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> bad{0};
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::InflexClient::Connect("127.0.0.1", world.port(), 30000);
      if (!client.ok()) {
        bad += popular.size();
        return;
      }
      core::QueryRequest request;
      request.k = kQueryK;
      for (size_t i = c; i < popular.size(); i += kClients) {
        request.item = popular[i];
        auto r = client.ValueOrDie().Query(request);
        if (!r.ok() || !r.ValueOrDie().ok() || r.ValueOrDie().from_cache ||
            r.ValueOrDie().epoch != 0) {
          ++bad;
          continue;
        }
        first[i] = HashSeeds(r.ValueOrDie().seeds);
      }
    });
  }
  for (auto& t : threads) t.join();
  std::atomic<uint64_t> mismatched{0};
  inflex::ParallelFor(0, popular.size(), [&](size_t i) {
    if (first[i] != ReferenceHash(*world.index, popular[i])) ++mismatched;
  });
  if (bad > 0) out->Fail("warm-up: " + std::to_string(bad.load()) +
                         " popular mixtures failed or were already cached");
  if (mismatched > 0) {
    out->mismatched += mismatched;
    out->failed += mismatched;
    out->Fail("warm-up: " + std::to_string(mismatched.load()) +
              " uncached answers differ from InflexIndex::Query");
  }
  return first;
}

void Put(std::map<std::string, Metric>* m, const std::string& name,
         double value, const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

/// Folds the reader logs into the outcome: counts, the end-to-end query
/// metrics, and (traced half) spans, queue waits and the replay list.
void FoldReaders(std::vector<ClientLog>& logs, double seconds, bool trace,
                 Outcome* out) {
  uint64_t ok = 0;
  uint64_t hits = 0;
  uint64_t negative = 0;
  uint64_t mismatched = 0;
  LatencyHistogram rtt[2];
  std::vector<double> queue;
  std::vector<std::pair<double, TracedQuery>> traced;
  for (ClientLog& log : logs) {
    out->attempted += log.sent;
    out->failed += log.shed + log.failed + log.mismatched;
    mismatched += log.mismatched;
    ok += log.ok;
    hits += log.hits;
    negative += log.negative_transport;
    rtt[0].Merge(log.rtt[0]);
    rtt[1].Merge(log.rtt[1]);
    queue.insert(queue.end(), log.queue_us.begin(), log.queue_us.end());
    out->spans.Append(log.spans);
    for (auto& t : log.traced) traced.push_back(std::move(t));
  }
  out->mismatched += mismatched;
  if (mismatched > 0) {
    out->Fail(std::to_string(mismatched) +
              " cached answers differ from the first answer served");
  }
  // Wall-clock figures of the untraced window (its first half when traced).
  const size_t n = rtt[0].count();
  const double untraced_s = trace ? seconds / 2 : seconds;
  out->inputs["queries_ok"] = static_cast<double>(ok);
  out->inputs["latency_samples"] = static_cast<double>(n);
  out->inputs["window_hit_share"] = ok > 0 ? double(hits) / ok : 0.0;
  if (!SupportsPercentile(n, 0.99)) {
    out->Fail("only " + std::to_string(n) +
              " latency samples: p99 has fewer than 10 beyond it");
  }
  auto& pl = out->per_layer;
  uint64_t ok_untraced = 0;
  for (size_t i = 0; i < (trace ? kSlices / 2 : kSlices); ++i) {
    for (const ClientLog& log : logs) ok_untraced += log.ok_in[i];
  }
  Put(&pl, "wire.qps", ok_untraced / untraced_s, "1/s");
  Put(&pl, "wire.p50_ms", rtt[0].Percentile(0.5) / 1e3, "ms");
  Put(&pl, "wire.p99_ms", rtt[0].Percentile(0.99) / 1e3, "ms");
  if (!trace) return;
  const double base = rtt[0].Percentile(0.5);
  Put(&pl, "trace.overhead_share",
      base > 0 ? rtt[1].Percentile(0.5) / base - 1.0 : 0.0, "ratio");
  Put(&pl, "net.queue_wait_us_p50", Percentile(queue, 0.5), "us");
  Put(&pl, "net.queue_wait_us_p99", Percentile(queue, 0.99), "us");
  // The call span's self time is its transport: RTT − queue − engine.
  const std::vector<Span>& spans = out->spans.spans();
  const std::vector<double> self = SelfTimes(spans);
  std::vector<double> transport;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == kCallSpan) transport.push_back(self[i]);
  }
  Put(&pl, "net.transport_us", Median(transport), "us");
  const double negative_share =
      transport.empty() ? 0.0 : double(negative) / transport.size();
  Put(&pl, "reconcile.wire_negative_share", negative_share, "ratio");
  // Reconciliation: transport + queue + engine = RTT needs the server's
  // intervals to fit inside the client's call.
  if (negative_share > 0.001) {
    out->Fail("wire reconciliation: queue + engine exceeded the client RTT "
              "on " + std::to_string(negative) + " calls");
  }
  std::sort(traced.begin(), traced.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& t : traced) out->traced.push_back(std::move(t.second));
}

/// Maintainer-side metrics of a run's delta traffic (the live stream, or
/// the idle probe).
void FoldDeltas(const DeltaLog& log, World& world,
                const core::MaintenanceStats& before,
                const std::vector<Generation>& generations, Outcome* out,
                bool require_steady) {
  core::MaintenanceStats after = world.maintainer->stats();
  out->attempted += log.sent.size();
  out->failed += log.failed + log.deferred;
  size_t admitted = 0;
  for (const SentDelta& d : log.sent) admitted += Admitted(d) ? 1 : 0;
  size_t missing = 0;
  const std::vector<double> fresh = Freshness(log, generations, &missing);
  const uint64_t superseded = after.superseded - before.superseded;
  if (missing > superseded) {
    out->Fail(std::to_string(missing - superseded) +
              " admitted deltas never appeared in a published generation");
  }
  const uint64_t published = after.generations_published -
                             before.generations_published;
  out->inputs["deltas_sent"] = static_cast<double>(log.sent.size());
  out->inputs["deltas_admitted"] = static_cast<double>(admitted);
  out->inputs["freshness_samples"] = static_cast<double>(fresh.size());
  out->inputs["generations_published"] = static_cast<double>(published);
  if (fresh.size() < 40) {
    out->Fail("only " + std::to_string(fresh.size()) + " freshness samples");
  }
  if (require_steady &&
      (published < 5 || admitted * 4 < log.sent.size())) {
    out->Fail("live_catalog published " + std::to_string(published) +
              " generations and admitted " + std::to_string(admitted) + "/" +
              std::to_string(log.sent.size()) +
              " deltas (needs >= 5 and >= 25%)");
  }
  auto& pl = out->per_layer;
  Put(&pl, "maintainer.freshness_p50_ms", Percentile(fresh, 0.5) / 1e3, "ms");
  Put(&pl, "maintainer.freshness_p95_ms", Percentile(fresh, 0.95) / 1e3,
      "ms");
  const double sent = std::max<double>(1.0, log.sent.size());
  Put(&pl, "maintainer.submit_us", Median(log.rtt_us), "us");
  Put(&pl, "maintainer.admitted_share", admitted / sent, "ratio");
  Put(&pl, "maintainer.deferred_share", log.deferred / sent, "ratio");
  Put(&pl, "maintainer.superseded", static_cast<double>(superseded), "count");
  Put(&pl, "maintainer.deltas_per_generation",
      published > 0 ? double(admitted - std::min<size_t>(admitted, superseded)) /
                          published
                    : 0.0,
      "count");
  Put(&pl, "maintainer.tree_rebuilds",
      static_cast<double>(after.tree_rebuilds - before.tree_rebuilds),
      "count");
  Put(&pl, "gen.delta_late_ms", log.max_late_us / 1e3, "ms");
  const core::ServingStats serving = world.engine->cumulative_stats();
  double precompute_mean_ms = 0.0;
  double precompute_max_ms = 0.0;
  for (const auto& row : serving.precompute) {
    precompute_mean_ms = row.mean_ns() / 1e6;
    precompute_max_ms = row.max_ns / 1e6;
  }
  Put(&pl, "oracle.precompute_ms_mean", precompute_mean_ms, "ms");
  Put(&pl, "oracle.precompute_ms_max", precompute_max_ms, "ms");
  double fresh_mean_ms = 0.0;
  for (double f : fresh) fresh_mean_ms += f / 1e3;
  if (!fresh.empty()) fresh_mean_ms /= fresh.size();
  Put(&pl, "maintainer.publish_ms", fresh_mean_ms - precompute_mean_ms, "ms");
}

/// Server- and cache-side counters of a window.
struct ServerSnapshot {
  net::ServerStats server;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

ServerSnapshot TakeSnapshot(World& world) {
  ServerSnapshot s;
  s.server = world.server->stats();
  const auto counters = world.engine->cache().counters();
  s.hits = counters.hits;
  s.misses = counters.misses;
  return s;
}

void FoldServer(const ServerSnapshot& a, const ServerSnapshot& b, World& world,
                Outcome* out) {
  auto& pl = out->per_layer;
  const double received =
      std::max<double>(1.0, b.server.requests_received -
                                a.server.requests_received);
  Put(&pl, "net.shed_share", (b.server.shed - a.server.shed) / received,
      "ratio");
  const double lookups = double(b.hits - a.hits) + double(b.misses - a.misses);
  Put(&pl, "cache.hit_rate", lookups > 0 ? (b.hits - a.hits) / lookups : 0.0,
      "ratio");
  Put(&pl, "cache.epoch_hit_rate",
      world.engine->cumulative_stats().epoch_hit_rate(), "ratio");
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// What a timed window left behind for the answer checks.
struct WindowResult {
  std::vector<ClientLog> logs;
  DeltaLog deltas;
};

/// Runs the timed window: `clients` readers drawing from `source`, plus,
/// when `delta_items` is set, the open-loop delta stream on one more
/// connection. Folds the readers' numbers and the server/cache counters.
WindowResult RunWindow(World& world, const RunOptions& options, size_t clients,
                       const QuerySource& source,
                       const std::function<TopicDistribution(size_t)>* delta_items,
                       Outcome* out) {
  const double start_us = NowMicros() + 20000.0;  // time to connect
  const double end_us = start_us + options.seconds * 1e6;
  const double split_us =
      options.trace ? start_us + options.seconds * 0.5e6 : end_us;
  WindowResult w;
  const ServerSnapshot s0 = TakeSnapshot(world);
  // Process CPU time at every slice boundary.
  std::vector<double> cpu_at;
  std::thread sampler([&] {
    for (size_t i = 0; i <= kSlices; ++i) {
      const double due = start_us + (end_us - start_us) * i / kSlices;
      for (double now = NowMicros(); now < due; now = NowMicros()) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(std::min(5000.0, due - now)) + 1));
      }
      cpu_at.push_back(ProcessCpuSeconds());
    }
  });
  std::vector<std::string> sender_problems;
  std::thread sender;
  if (delta_items != nullptr) {
    sender = std::thread([&] {
      w.deltas = RunDeltaStream(world.port(), *delta_items, start_us,
                                1e6 / kLiveDeltasPerS,
                                std::numeric_limits<size_t>::max(), end_us,
                                &sender_problems);
    });
  }
  w.logs = RunReaders(world.port(), clients, source, options.seed, start_us,
                      split_us, end_us, options.trace, &out->problems);
  if (sender.joinable()) sender.join();
  sampler.join();
  const ServerSnapshot s1 = TakeSnapshot(world);
  for (auto& p : sender_problems) out->Fail(p);
  out->inputs["clients"] = static_cast<double>(clients);
  FoldReaders(w.logs, options.seconds, options.trace, out);
  // Process CPU (server, clients and maintainer alike) per query completed
  // in a slice, median over the slices: the serving cost. Unlike wall time
  // it does not count time the host withheld from this virtual machine.
  std::vector<double> cpu_per_query;
  for (size_t i = 0; i < kSlices; ++i) {
    uint64_t ok = 0;
    for (const ClientLog& log : w.logs) ok += log.ok_in[i];
    if (ok > 0) cpu_per_query.push_back((cpu_at[i + 1] - cpu_at[i]) * 1e6 / ok);
  }
  Put(&out->per_layer, "cpu_us_per_query", Median(cpu_per_query), "us");
  Put(&out->end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  FoldServer(s0, s1, world, out);
  return w;
}

/// Idle-server freshness probe (cold_inflex, hot_repeat), after the query
/// window and its answer check.
void RunProbe(World& world, const RunOptions& options, Outcome* out) {
  const core::MaintenanceStats before = world.maintainer->stats();
  const double start = NowMicros() + 1000.0;
  DeltaLog log = RunDeltaStream(
      world.port(), DeltaItems(world, Mix(options.seed, 0xfa7)), start,
      kProbeIntervalUs, kProbeDeltas,
      std::numeric_limits<double>::infinity(), &out->problems);
  world.maintainer->Drain();
  FoldDeltas(log, world, before, world.generations.Snapshot(), out, false);
  out->inputs["delta_rate_per_s"] = 1e6 / kProbeIntervalUs;
}

/// The popular set, its Zipf order, and the reader source over it.
struct PopularTraffic {
  std::vector<TopicDistribution> popular;
  std::vector<uint32_t> by_rank;  // Zipf rank -> popular-set position
  ZipfSampler zipf;

  PopularTraffic(const World& world, uint64_t seed)
      : popular(PopularSet(world.dataset->catalog, seed)),
        by_rank(popular.size()),
        zipf(popular.size(), kZipfExponent) {
    for (uint32_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
    Rng shuffle(Mix(seed, 0x5eed));
    std::shuffle(by_rank.begin(), by_rank.end(), shuffle);
  }

  QuerySource Source() const {
    QuerySource source;
    source.next = [this](Rng* rng, TopicDistribution* item) {
      const uint32_t key = by_rank[zipf.Draw(rng)];
      *item = popular[key];
      return key;
    };
    return source;
  }

  void RecordInputs(Outcome* out) const {
    out->inputs["popular_set"] = static_cast<double>(popular.size());
    out->inputs["cache_capacity"] =
        static_cast<double>(core::QueryCache::Options{}.capacity);
    out->inputs["zipf_exponent"] = kZipfExponent;
  }
};

void RunCold(World& world, const RunOptions& options, Outcome* out) {
  const uint64_t stream_seed = Mix(options.seed, 0xc01d);
  ColdStream stream(&world.dataset->catalog, stream_seed);
  QuerySource source;
  source.next = [&stream](Rng*, TopicDistribution* item) {
    uint32_t seq = 0;
    *item = stream.Next(&seq);
    return seq;
  };
  WindowResult w =
      RunWindow(world, options, kColdClients, source, nullptr, out);
  out->inputs["unique_mixtures"] = static_cast<double>(stream.accepted());
  out->inputs["data_driven_share"] =
      stream.accepted() > 0 ? double(stream.data_driven()) / stream.accepted()
                            : 0.0;
  out->inputs["cell_collisions_rejected"] =
      static_cast<double>(stream.rejected());

  // Every answer was uncached; each must equal InflexIndex::Query on
  // generation 0 for the mixture with its sequence number, regenerated
  // from the same seed.
  std::vector<Answer> answers;
  for (const ClientLog& log : w.logs) {
    answers.insert(answers.end(), log.answers.begin(), log.answers.end());
  }
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) { return a.key < b.key; });
  ColdStream regenerated(&world.dataset->catalog, stream_seed);
  std::vector<TopicDistribution> items;
  for (size_t i = 0; !answers.empty() && i <= answers.back().key; ++i) {
    uint32_t seq = 0;
    items.push_back(regenerated.Next(&seq));
  }
  std::atomic<uint64_t> mismatched{0};
  std::atomic<uint64_t> cached{0};
  inflex::ParallelFor(0, answers.size(), [&](size_t i) {
    const Answer& a = answers[i];
    if (a.from_cache) ++cached;
    if (a.epoch != 0 ||
        a.seeds_hash != ReferenceHash(*world.index, items[a.key])) {
      ++mismatched;
    }
  });
  out->mismatched += mismatched;
  out->failed += mismatched;
  if (mismatched > 0) {
    out->Fail(std::to_string(mismatched.load()) +
              " wire answers differ from InflexIndex::Query");
  }
  // Self-check: the cache must never answer a cold query.
  if (cached > answers.size() / 1000) {
    out->Fail("cold_inflex: " + std::to_string(cached.load()) +
              " answers came from the cache");
  }
  RunProbe(world, options, out);
}

void RunHot(World& world, const RunOptions& options, Outcome* out) {
  const PopularTraffic traffic(world, options.seed);
  const std::vector<uint64_t> first = WarmPopular(world, traffic.popular, out);
  QuerySource source = traffic.Source();
  // Every answer must equal the first answer served for the mixture in
  // generation 0 (no delta traffic: the epoch never moves).
  source.check = [&first](uint32_t key, const net::WireResponse& resp) {
    return resp.epoch == 0 && HashSeeds(resp.seeds) == first[key];
  };
  RunWindow(world, options, kClients, source, nullptr, out);
  traffic.RecordInputs(out);
  if (out->inputs["window_hit_share"] < 0.99) {
    out->Fail("hot_repeat: window hit share " +
              std::to_string(out->inputs["window_hit_share"]) + " < 0.99");
  }
  RunProbe(world, options, out);
}

void RunLive(World& world, const RunOptions& options, Outcome* out) {
  const PopularTraffic traffic(world, options.seed);
  WarmPopular(world, traffic.popular, out);
  const auto items = DeltaItems(world, Mix(options.seed, 0xde1));
  const core::MaintenanceStats before = world.maintainer->stats();
  WindowResult w = RunWindow(world, options, kClients - 1, traffic.Source(),
                             &items, out);
  world.maintainer->Drain();
  traffic.RecordInputs(out);
  out->inputs["delta_rate_per_s"] = kLiveDeltasPerS;
  const std::vector<Generation> generations = world.generations.Snapshot();
  FoldDeltas(w.deltas, world, before, generations, out, true);

  // Answers are matched per (mixture, generation): every answer in a group
  // must equal InflexIndex::Query on the generation its epoch names — the
  // uncached first answer directly, the cached ones through it.
  std::unordered_map<uint64_t, std::shared_ptr<const core::InflexIndex>>
      by_epoch;
  for (const Generation& g : generations) by_epoch[g.epoch] = g.index;
  std::vector<Answer> answers;
  for (const ClientLog& log : w.logs) {
    answers.insert(answers.end(), log.answers.begin(), log.answers.end());
  }
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) {
              return std::tie(a.epoch, a.key) < std::tie(b.epoch, b.key);
            });
  std::vector<size_t> group_starts;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i == 0 || answers[i].epoch != answers[i - 1].epoch ||
        answers[i].key != answers[i - 1].key) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(answers.size());
  std::atomic<uint64_t> mismatched{0};
  inflex::ParallelFor(0, group_starts.size() - 1, [&](size_t g) {
    const Answer& head = answers[group_starts[g]];
    auto it = by_epoch.find(head.epoch);
    const uint64_t want =
        it == by_epoch.end()
            ? 0
            : ReferenceHash(*it->second, traffic.popular[head.key]);
    for (size_t i = group_starts[g]; i < group_starts[g + 1]; ++i) {
      if (answers[i].seeds_hash != want) ++mismatched;
    }
  });
  out->inputs["answer_groups_checked"] =
      static_cast<double>(group_starts.size() - 1);
  out->mismatched += mismatched;
  out->failed += mismatched;
  if (mismatched > 0) {
    out->Fail(std::to_string(mismatched.load()) +
              " wire answers differ from their generation's "
              "InflexIndex::Query");
  }
}

}  // namespace

uint64_t HashSeeds(const std::vector<uint32_t>& seeds) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto eat = [&h](uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  eat(static_cast<uint32_t>(seeds.size()));
  for (uint32_t s : seeds) eat(s);
  return h;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold_inflex", "hot_repeat",
                                                 "live_catalog"};
  return names;
}

Outcome RunWorkload(World& world, const RunOptions& options) {
  Outcome out;
  if (options.workload == "cold_inflex") {
    RunCold(world, options, &out);
  } else if (options.workload == "hot_repeat") {
    RunHot(world, options, &out);
  } else if (options.workload == "live_catalog") {
    RunLive(world, options, &out);
  } else {
    out.Fail("unknown workload " + options.workload);
  }
  const double attempted = std::max<double>(1.0, out.attempted);
  Put(&out.end_to_end, "ok_share", 1.0 - out.failed / attempted, "ratio");
  Put(&out.per_layer, "error_share", out.failed / attempted, "ratio");
  return out;
}

}  // namespace inflexbench

// Tests for the network serving front end (src/net/): wire-protocol frame
// round-trips and rejection of malformed frames, loopback answers
// bit-identical to in-process QueryEngine::Query, deterministic load
// shedding and deadline expiry at the bounded admission queue (workers
// parked on the worker_hook test seam so queue buildup is not a race),
// graceful shutdown with in-flight requests, maintenance back-pressure over
// the wire, and a multi-client loopback storm with live generation
// publishing whose every answer is replayed bit-for-bit against the
// generation that served it (run under TSan by run_sanitized_stress.sh).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "inflex/index_maintainer.h"
#include "inflex/inflex_index.h"
#include "inflex/query_engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "simplex/sampling.h"
#include "tenant/tenant_registry.h"
#include "tenant/tenant_router.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace inflex {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol round-trips (no server needed)
// ---------------------------------------------------------------------------

net::WireRequest SampleRequest() {
  net::WireRequest req;
  req.type = net::MessageType::kQuery;
  req.gamma = {0.125, 0.5, 0.25, 0.125};
  req.k = 7;
  req.strategy = core::QueryStrategy::kApproxKnnSel;
  req.knn_k = 12;
  req.max_leaves = 3;
  req.segment_mask = {1, 0, 1, 1, 0};
  req.deadline_ms = 250;
  return req;
}

TEST(WireTest, QueryRequestRoundTrip) {
  const net::WireRequest req = SampleRequest();
  const std::vector<uint8_t> frame = net::EncodeRequestFrame(req);

  size_t total = 0;
  ASSERT_TRUE(net::PeekFrame(frame, &total).ok());
  ASSERT_EQ(total, frame.size());

  auto decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const net::WireRequest& got = decoded.ValueOrDie();
  EXPECT_EQ(got.type, req.type);
  EXPECT_EQ(got.gamma, req.gamma);  // bit-exact doubles
  EXPECT_EQ(got.k, req.k);
  EXPECT_EQ(got.strategy, req.strategy);
  EXPECT_EQ(got.knn_k, req.knn_k);
  EXPECT_EQ(got.max_leaves, req.max_leaves);
  EXPECT_EQ(got.segment_mask, req.segment_mask);
  EXPECT_EQ(got.deadline_ms, req.deadline_ms);

  const core::QueryOptions opts = got.ToQueryOptions();
  EXPECT_EQ(opts.strategy, req.strategy);
  EXPECT_EQ(opts.knn_k, 12u);
  EXPECT_EQ(opts.max_leaves, 3u);
  EXPECT_EQ(opts.segment_mask, req.segment_mask);
}

TEST(WireTest, DeltaRequestRoundTrip) {
  net::WireRequest req;
  req.type = net::MessageType::kDelta;
  req.gamma = {0.9, 0.05, 0.05};
  req.delta_id = "item-4711";
  const std::vector<uint8_t> frame = net::EncodeRequestFrame(req);
  auto decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().type, net::MessageType::kDelta);
  EXPECT_EQ(decoded.ValueOrDie().gamma, req.gamma);
  EXPECT_EQ(decoded.ValueOrDie().delta_id, "item-4711");
}

TEST(WireTest, ResponseRoundTrip) {
  net::WireResponse resp;
  resp.status = net::WireStatus::kOk;
  resp.from_cache = true;
  resp.epsilon_exact = true;
  resp.retry_after_ms = 17;
  resp.epoch = 41;
  resp.delta_outcome = 2;
  resp.seeds = {5, 1, 99, 3};
  resp.similarity_search_ms = 0.25;
  resp.aggregation_ms = 0.125;
  resp.engine_ms = 0.5;
  resp.queue_ms = 1.75;
  resp.message = "all good";
  const std::vector<uint8_t> frame = net::EncodeResponseFrame(resp);
  auto decoded = net::DecodeResponsePayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const net::WireResponse& got = decoded.ValueOrDie();
  EXPECT_EQ(got.status, resp.status);
  EXPECT_EQ(got.from_cache, resp.from_cache);
  EXPECT_EQ(got.epsilon_exact, resp.epsilon_exact);
  EXPECT_EQ(got.retry_after_ms, resp.retry_after_ms);
  EXPECT_EQ(got.epoch, resp.epoch);
  EXPECT_EQ(got.delta_outcome, resp.delta_outcome);
  EXPECT_EQ(got.seeds, resp.seeds);
  EXPECT_EQ(got.similarity_search_ms, resp.similarity_search_ms);
  EXPECT_EQ(got.aggregation_ms, resp.aggregation_ms);
  EXPECT_EQ(got.engine_ms, resp.engine_ms);
  EXPECT_EQ(got.queue_ms, resp.queue_ms);
  EXPECT_EQ(got.message, resp.message);
}

TEST(WireTest, DecodeRejectsBadMagic) {
  std::vector<uint8_t> frame = net::EncodeRequestFrame(SampleRequest());
  frame[net::kFrameHeaderBytes] ^= 0xFF;  // first payload byte = magic
  auto decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTest, DecodeRejectsBadVersion) {
  std::vector<uint8_t> frame = net::EncodeRequestFrame(SampleRequest());
  frame[net::kFrameHeaderBytes + 4] += 1;  // version lives after the magic
  auto decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTest, DecodeRejectsEveryTruncation) {
  // Every field is mandatory, so every strict prefix of a valid payload
  // must be rejected — no truncation may silently parse.
  const std::vector<uint8_t> frame = net::EncodeRequestFrame(SampleRequest());
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = net::DecodeRequestPayload(payload.subspan(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes parsed";
  }
  const std::vector<uint8_t> rframe = net::EncodeResponseFrame({});
  const std::span<const uint8_t> rpayload =
      std::span<const uint8_t>(rframe).subspan(net::kFrameHeaderBytes);
  for (size_t len = 0; len < rpayload.size(); ++len) {
    EXPECT_FALSE(net::DecodeResponsePayload(rpayload.subspan(0, len)).ok());
  }
}

// ---------------------------------------------------------------------------
// Tenant field back-compat matrix (flag-gated protocol evolution)
// ---------------------------------------------------------------------------

/// Offset of the request flags byte inside a frame: header, then
/// magic(4) + version(2) + type(1).
constexpr size_t kFlagsByteOffset = net::kFrameHeaderBytes + 7;

TEST(WireTest, TenantRequestRoundTrip) {
  net::WireRequest req = SampleRequest();
  req.delta_id = "item-9";
  req.tenant = "acme-corp";
  const std::vector<uint8_t> frame = net::EncodeRequestFrame(req);
  auto decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const net::WireRequest& got = decoded.ValueOrDie();
  EXPECT_EQ(got.tenant, "acme-corp");
  EXPECT_EQ(got.delta_id, "item-9");
  EXPECT_EQ(got.gamma, req.gamma);
  EXPECT_EQ(got.segment_mask, req.segment_mask);
}

TEST(WireTest, TenantFreeFrameStaysBitIdenticalToV1) {
  // The tenant field is flag-gated and appended at the END of the payload:
  // a tenant-free frame must be byte-for-byte what a pre-tenant encoder
  // emitted, and a tenant frame must differ ONLY in the length prefix, one
  // flag bit, and the appended suffix. This is the structural proof that v1
  // peers interoperate: nothing they parse has moved.
  net::WireRequest req = SampleRequest();
  req.delta_id = "item-1";
  const std::vector<uint8_t> v1 = net::EncodeRequestFrame(req);
  req.tenant = "acme";
  const std::vector<uint8_t> flagged = net::EncodeRequestFrame(req);

  // Suffix = u32 string length + bytes; everything before it is untouched
  // except the flags byte.
  ASSERT_EQ(flagged.size(), v1.size() + sizeof(uint32_t) + req.tenant.size());
  for (size_t i = net::kFrameHeaderBytes; i < v1.size(); ++i) {
    if (i == kFlagsByteOffset) continue;
    ASSERT_EQ(v1[i], flagged[i]) << "payload byte " << i << " moved";
  }
  EXPECT_EQ(flagged[kFlagsByteOffset],
            static_cast<uint8_t>(v1[kFlagsByteOffset] | (1u << 1)));

  // v1 frames decode on the tenant-aware codec with an empty tenant and
  // re-encode bit-identically (the v1-client ↔ tenant-aware-server leg).
  auto v1_decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(v1).subspan(net::kFrameHeaderBytes));
  ASSERT_TRUE(v1_decoded.ok()) << v1_decoded.status().ToString();
  EXPECT_TRUE(v1_decoded.ValueOrDie().tenant.empty());
  EXPECT_EQ(net::EncodeRequestFrame(v1_decoded.ValueOrDie()), v1);

  // Tenant frames round-trip bit-identically too.
  auto t_decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(flagged).subspan(net::kFrameHeaderBytes));
  ASSERT_TRUE(t_decoded.ok()) << t_decoded.status().ToString();
  EXPECT_EQ(net::EncodeRequestFrame(t_decoded.ValueOrDie()), flagged);
}

TEST(WireTest, TenantFrameRejectsEveryTruncationAndTrailingGarbage) {
  // With segment mask AND tenant present, every strict prefix must still be
  // rejected — the new field's length prefix and bytes are as mandatory as
  // the rest once its flag bit is set.
  net::WireRequest req = SampleRequest();
  req.delta_id = "item-2";
  req.tenant = "acme-corp";
  std::vector<uint8_t> frame = net::EncodeRequestFrame(req);
  const std::span<const uint8_t> payload =
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = net::DecodeRequestPayload(payload.subspan(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes parsed";
  }
  frame.push_back(0x5A);
  EXPECT_FALSE(net::DecodeRequestPayload(
                   std::span<const uint8_t>(frame).subspan(
                       net::kFrameHeaderBytes))
                   .ok());
}

TEST(WireTest, DecodeRejectsTrailingGarbage) {
  std::vector<uint8_t> frame = net::EncodeRequestFrame(SampleRequest());
  frame.push_back(0xAB);
  auto decoded = net::DecodeRequestPayload(
      std::span<const uint8_t>(frame).subspan(net::kFrameHeaderBytes));
  EXPECT_FALSE(decoded.ok());
}

TEST(WireTest, DecodeRejectsOutOfRangeEnums) {
  {
    std::vector<uint8_t> frame = net::EncodeRequestFrame(SampleRequest());
    frame[net::kFrameHeaderBytes + 6] = 99;  // message type byte
    EXPECT_FALSE(net::DecodeRequestPayload(
                     std::span<const uint8_t>(frame).subspan(
                         net::kFrameHeaderBytes))
                     .ok());
  }
  {
    std::vector<uint8_t> frame = net::EncodeResponseFrame({});
    frame[net::kFrameHeaderBytes + 6] = 0xEE;  // status low byte
    EXPECT_FALSE(net::DecodeResponsePayload(
                     std::span<const uint8_t>(frame).subspan(
                         net::kFrameHeaderBytes))
                     .ok());
  }
}

TEST(WireTest, PeekFrameHandlesPartialAndHostileHeaders) {
  size_t total = 123;
  // Too short for the length prefix: need more bytes, not an error.
  ASSERT_TRUE(net::PeekFrame({}, &total).ok());
  EXPECT_EQ(total, 0u);
  const std::vector<uint8_t> partial = {0x01, 0x02};
  ASSERT_TRUE(net::PeekFrame(partial, &total).ok());
  EXPECT_EQ(total, 0u);

  // Empty payload: a desynchronized peer.
  const std::vector<uint8_t> empty = {0, 0, 0, 0};
  EXPECT_FALSE(net::PeekFrame(empty, &total).ok());

  // Oversized payload announcement.
  std::vector<uint8_t> oversized(net::kFrameHeaderBytes);
  const uint32_t huge = net::kMaxFramePayloadBytes + 1;
  std::memcpy(oversized.data(), &huge, sizeof(huge));
  EXPECT_FALSE(net::PeekFrame(oversized, &total).ok());
}

// ---------------------------------------------------------------------------
// Loopback fixture
// ---------------------------------------------------------------------------

/// A worker parking brake: the server's worker_hook blocks here until the
/// test opens the gate, making overload deterministic instead of a race.
struct WorkerGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entries{0};

  void Hook() {
    entries.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

bool WaitFor(const std::function<bool()>& pred, double timeout_ms = 5000.0) {
  Timer t;
  while (t.ElapsedMillis() < timeout_ms) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// A raw TCP connection speaking frames directly — for pipelining several
/// requests without waiting for responses, and for sending hostile bytes.
struct RawConn {
  int fd = -1;

  ~RawConn() { Close(); }
  void Close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool Connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadExactly(uint8_t* data, size_t size) {
    size_t off = 0;
    while (off < size) {
      ssize_t n = ::recv(fd, data + off, size - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads and decodes one response frame.
  Result<net::WireResponse> ReadResponse() {
    uint8_t header[net::kFrameHeaderBytes];
    if (!ReadExactly(header, sizeof(header))) {
      return Status::IOError("eof or timeout reading frame header");
    }
    uint32_t len = 0;
    std::memcpy(&len, header, sizeof(len));
    if (len == 0 || len > net::kMaxFramePayloadBytes) {
      return Status::IOError("bad frame length");
    }
    std::vector<uint8_t> payload(len);
    if (!ReadExactly(payload.data(), payload.size())) {
      return Status::IOError("eof or timeout reading frame payload");
    }
    return net::DecodeResponsePayload(payload);
  }

  /// True when the server has closed the connection (clean EOF).
  bool AtEof() {
    uint8_t b;
    return ::recv(fd, &b, 1, 0) == 0;
  }
};

class NetServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 250;
    dopts.num_topics = 4;
    dopts.num_items = 80;
    dopts.seed = 515;
    auto ds = data::GenerateSyntheticDataset(dopts);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());
    core::InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 20;
    bopts.index_points.num_dirichlet_samples = 2000;
    bopts.seed_list_length = 12;
    bopts.oracle_snapshots = 30;
    auto index =
        core::InflexIndex::Build(dataset_->graph, dataset_->catalog, bopts);
    ASSERT_TRUE(index.ok());
    index_ = std::make_shared<core::InflexIndex>(
        std::move(index).ValueOrDie());
  }
  static void TearDownTestSuite() {
    index_.reset();
    delete dataset_;
    dataset_ = nullptr;
  }

  /// A deterministic mixed workload: varied mixtures, k, strategies and
  /// segment masks (the same shape serving_test uses).
  static std::vector<core::QueryRequest> MakeWorkload(size_t n,
                                                      uint64_t seed) {
    std::vector<uint8_t> even_mask(dataset_->graph.num_nodes(), 0);
    for (size_t v = 0; v < even_mask.size(); v += 2) even_mask[v] = 1;
    Rng rng(seed);
    std::vector<core::QueryRequest> reqs;
    reqs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      core::QueryRequest r;
      if (i % 3 == 2 && i >= 3) {
        r.item = reqs[i / 3].item;  // repeat an earlier mixture
      } else {
        r.item = simplex::TopicDistribution::Create(
                     simplex::SampleUniformSimplex(4, &rng))
                     .ValueOrDie();
      }
      r.k = 3 + (i % 3) * 4;  // 3, 7, 11
      switch (i % 4) {
        case 0:
          r.options.strategy = core::QueryStrategy::kInflex;
          break;
        case 1:
          r.options.strategy = core::QueryStrategy::kExactKnn;
          break;
        case 2:
          r.options.strategy = core::QueryStrategy::kApproxKnnSel;
          break;
        case 3:
          r.options.strategy = core::QueryStrategy::kApproxAd;
          break;
      }
      if (i % 5 == 0) r.options.segment_mask = even_mask;
      reqs.push_back(std::move(r));
    }
    return reqs;
  }

  static core::QueryRequest SimpleRequest() {
    core::QueryRequest r;
    r.item = simplex::TopicDistribution::Create({0.7, 0.1, 0.1, 0.1})
                 .ValueOrDie();
    r.k = 5;
    return r;
  }

  static data::SyntheticDataset* dataset_;
  static std::shared_ptr<core::InflexIndex> index_;
};

data::SyntheticDataset* NetServingTest::dataset_ = nullptr;
std::shared_ptr<core::InflexIndex> NetServingTest::index_;

// ---------------------------------------------------------------------------
// Loopback correctness
// ---------------------------------------------------------------------------

TEST_F(NetServingTest, LoopbackBitIdenticalToInProcess) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  net::InflexServer server(&engine);
  ASSERT_TRUE(server.Start().ok());

  // The reference engine runs the same generation entirely in-process.
  core::QueryEngine reference(index_, eopts);

  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto workload = MakeWorkload(32, 99);
  size_t expect_ok = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    auto wire = client.ValueOrDie().Query(workload[i]);
    ASSERT_TRUE(wire.ok()) << "request " << i << ": "
                           << wire.status().ToString();
    const net::WireResponse& got = wire.ValueOrDie();

    auto want = reference.Query(workload[i]);
    if (!want.ok()) {
      // Some masked requests legitimately fail; the wire must agree.
      EXPECT_EQ(got.status, net::WireStatus::kQueryFailed) << "request " << i;
      continue;
    }
    ASSERT_EQ(got.status, net::WireStatus::kOk) << got.message;
    ++expect_ok;
    EXPECT_EQ(got.seeds, want.ValueOrDie().seeds) << "request " << i;
    EXPECT_EQ(got.epsilon_exact, want.ValueOrDie().epsilon_exact)
        << "request " << i;
    EXPECT_EQ(got.epoch, 0u);
  }
  EXPECT_GT(expect_ok, 0u);
  server.Stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_ok, expect_ok);
  EXPECT_EQ(stats.queries_ok + stats.queries_failed, workload.size());
  EXPECT_EQ(stats.malformed, 0u);
}

TEST_F(NetServingTest, PingReportsEpoch) {
  ThreadPool pool(2);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  net::InflexServer server(&engine);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok());
  auto resp = client.ValueOrDie().Ping();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kOk);
  EXPECT_EQ(resp.ValueOrDie().epoch, 0u);
}

TEST_F(NetServingTest, MalformedFramesAnswerThenClose) {
  ThreadPool pool(2);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  net::InflexServer server(&engine);
  ASSERT_TRUE(server.Start().ok());

  {
    // Decodable frame envelope, garbage payload (bad magic).
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::vector<uint8_t> frame =
        net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()));
    frame[net::kFrameHeaderBytes] ^= 0xFF;
    ASSERT_TRUE(conn.Send(frame));
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kMalformed);
    EXPECT_TRUE(conn.AtEof());  // the stream is poisoned: server closes
  }
  {
    // Hostile length prefix: an oversized frame announcement.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::vector<uint8_t> header(net::kFrameHeaderBytes);
    const uint32_t huge = net::kMaxFramePayloadBytes + 7;
    std::memcpy(header.data(), &huge, sizeof(huge));
    ASSERT_TRUE(conn.Send(header));
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kMalformed);
    EXPECT_TRUE(conn.AtEof());
  }
  // The server survives hostile peers: a healthy client still gets answers.
  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok());
  auto resp = client.ValueOrDie().Query(SimpleRequest());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kOk);
  server.Stop();
  EXPECT_EQ(server.stats().malformed, 2u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST_F(NetServingTest, ShedsWithOverloadedUnderSaturatingBurst) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);

  WorkerGate gate;
  net::InflexServerOptions sopts;
  sopts.num_workers = 2;
  sopts.max_worker_batch = 1;
  sopts.queue_high_watermark = 4;
  sopts.queue_low_watermark = 1;
  sopts.retry_after_ms = 35;
  sopts.worker_hook = [&gate] { gate.Hook(); };
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  const std::vector<uint8_t> frame =
      net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()));

  // Park both workers on one request each.
  ASSERT_TRUE(conn.Send(frame));
  ASSERT_TRUE(WaitFor([&] { return gate.entries.load() == 1; }));
  ASSERT_TRUE(conn.Send(frame));
  ASSERT_TRUE(WaitFor([&] { return gate.entries.load() == 2; }));

  // Fill the queue exactly to the high-water mark...
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(conn.Send(frame));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queue_depth == 4; }));

  // ...so the next request must be shed without blocking.
  ASSERT_TRUE(conn.Send(frame));
  ASSERT_TRUE(WaitFor([&] { return server.stats().shed == 1; }));

  gate.Open();

  // Responses flush in request order: 6 answers, then the shed response.
  for (int i = 0; i < 6; ++i) {
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << "response " << i << ": "
                           << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kOk)
        << "response " << i;
  }
  auto shed = conn.ReadResponse();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed.ValueOrDie().status, net::WireStatus::kOverloaded);
  EXPECT_EQ(shed.ValueOrDie().retry_after_ms, 35u);

  // Hysteresis: once drained below the low-water mark, admission resumes.
  ASSERT_TRUE(WaitFor([&] { return server.stats().queue_depth == 0; }));
  ASSERT_TRUE(conn.Send(frame));
  auto after = conn.ReadResponse();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().status, net::WireStatus::kOk);

  server.Stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_GE(stats.queue_depth_peak, 4u);
  // Overload is mirrored into the engine's serving stats.
  const core::ServingStats estats = engine.cumulative_stats();
  EXPECT_EQ(estats.shed_count, 1u);
  EXPECT_GE(estats.admission_queue_peak, 4u);
}

TEST_F(NetServingTest, DeadlineExpiresInQueue) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);

  WorkerGate gate;
  net::InflexServerOptions sopts;
  sopts.num_workers = 1;
  sopts.max_worker_batch = 4;
  sopts.worker_hook = [&gate] { gate.Hook(); };
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));

  // Request 0 parks the only worker; request 1 waits with a 25 ms budget.
  ASSERT_TRUE(conn.Send(
      net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()))));
  ASSERT_TRUE(WaitFor([&] { return gate.entries.load() == 1; }));
  ASSERT_TRUE(conn.Send(net::EncodeRequestFrame(
      net::MakeQueryRequest(SimpleRequest(), /*deadline_ms=*/25))));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queue_depth == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  gate.Open();

  auto first = conn.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().status, net::WireStatus::kOk);
  auto second = conn.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie().status, net::WireStatus::kDeadlineExceeded);
  EXPECT_GE(second.ValueOrDie().queue_ms, 25.0);

  server.Stop();
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  EXPECT_EQ(engine.cumulative_stats().deadline_expired_count, 1u);
}

TEST_F(NetServingTest, SaturatedQueueDrainsExpiredBeforeShedding) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);

  WorkerGate gate;
  net::InflexServerOptions sopts;
  sopts.num_workers = 1;
  sopts.max_worker_batch = 1;
  sopts.queue_high_watermark = 3;
  sopts.queue_low_watermark = 1;
  sopts.worker_hook = [&gate] { gate.Hook(); };
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));

  // Park the worker, then saturate the queue with short-deadline requests.
  ASSERT_TRUE(conn.Send(
      net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()))));
  ASSERT_TRUE(WaitFor([&] { return gate.entries.load() == 1; }));
  const std::vector<uint8_t> doomed = net::EncodeRequestFrame(
      net::MakeQueryRequest(SimpleRequest(), /*deadline_ms=*/20));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(conn.Send(doomed));
  ASSERT_TRUE(WaitFor([&] { return server.stats().queue_depth == 3; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The queue sits at the high-water mark, but its front has expired: the
  // next request reclaims that slot instead of being shed.
  ASSERT_TRUE(conn.Send(
      net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()))));
  ASSERT_TRUE(WaitFor([&] { return server.stats().deadline_expired >= 1; }));
  EXPECT_EQ(server.stats().shed, 0u);
  gate.Open();

  // In order: parked request OK, three doomed requests expired (at
  // admission or at worker pop), the late request OK.
  auto first = conn.ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie().status, net::WireStatus::kOk);
  for (int i = 0; i < 3; ++i) {
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << "doomed " << i;
    EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kDeadlineExceeded)
        << "doomed " << i;
  }
  auto last = conn.ReadResponse();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.ValueOrDie().status, net::WireStatus::kOk);

  server.Stop();
  EXPECT_EQ(server.stats().deadline_expired, 3u);
  EXPECT_EQ(server.stats().shed, 0u);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

TEST_F(NetServingTest, GracefulShutdownAnswersInFlightRequests) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);

  WorkerGate gate;
  net::InflexServerOptions sopts;
  sopts.num_workers = 1;
  sopts.worker_hook = [&gate] { gate.Hook(); };
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // One request in flight (its worker parked), one idle connection.
  RawConn in_flight;
  ASSERT_TRUE(in_flight.Connect(port));
  ASSERT_TRUE(in_flight.Send(
      net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()))));
  ASSERT_TRUE(WaitFor([&] { return gate.entries.load() == 1; }));
  RawConn idle;
  ASSERT_TRUE(idle.Connect(port));

  std::thread stopper([&server] { server.Stop(); });
  // A failed assertion below returns early: open the gate (Stop waits for
  // the parked request) and join the stopper on the way out, so it fails
  // this test instead of terminating the binary on a joinable thread.
  struct JoinOnExit {
    WorkerGate* gate;
    std::thread* thread;
    ~JoinOnExit() {
      gate->Open();
      if (thread->joinable()) thread->join();
    }
  } join_on_exit{&gate, &stopper};

  // Draining: new connections are refused...
  ASSERT_TRUE(WaitFor([&] {
    RawConn probe;
    return !probe.Connect(port);
  }));
  // ...and new requests on existing connections get kShuttingDown.
  ASSERT_TRUE(idle.Send(
      net::EncodeRequestFrame(net::MakeQueryRequest(SimpleRequest()))));
  auto rejected = idle.ReadResponse();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.ValueOrDie().status, net::WireStatus::kShuttingDown);

  // The in-flight request still completes with a real answer.
  gate.Open();
  auto answered = in_flight.ReadResponse();
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered.ValueOrDie().status, net::WireStatus::kOk);
  EXPECT_FALSE(answered.ValueOrDie().seeds.empty());

  stopper.join();
  EXPECT_FALSE(server.running());
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_ok, 1u);
  EXPECT_EQ(stats.rejected_draining, 1u);
}

// ---------------------------------------------------------------------------
// Maintenance plane over the wire
// ---------------------------------------------------------------------------

TEST_F(NetServingTest, DeltaBackpressureMapsToOverloaded) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);

  // Park the maintenance pool so the first admitted delta stays pending.
  ThreadPool maintenance_pool(1);
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  maintenance_pool.Submit([released] { released.wait(); });

  core::IndexMaintainerOptions mopts;
  mopts.admission_threshold = 0.05;
  mopts.oracle.num_snapshots = 10;
  mopts.pending_high_watermark = 1;
  mopts.pool = &maintenance_pool;
  core::IndexMaintainer maintainer(index_, &dataset_->graph, &engine, mopts);

  net::InflexServerOptions sopts;
  sopts.maintainer = &maintainer;
  sopts.retry_after_ms = 40;
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok());
  net::InflexClient& c = client.ValueOrDie();

  // Far-corner mixtures: certain admissions for this index.
  auto first = c.SubmitDelta("bp-0", {0.9997, 0.0001, 0.0001, 0.0001});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first.ValueOrDie().status, net::WireStatus::kOk);
  EXPECT_EQ(first.ValueOrDie().delta_outcome,
            static_cast<uint16_t>(core::DeltaOutcome::kAdmitted) + 1);

  // The pipeline now holds pending_high_watermark deltas: back-pressure.
  auto second = c.SubmitDelta("bp-1", {0.0001, 0.9997, 0.0001, 0.0001});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie().status, net::WireStatus::kOverloaded);
  EXPECT_EQ(second.ValueOrDie().retry_after_ms, 40u);
  EXPECT_EQ(second.ValueOrDie().delta_outcome,
            static_cast<uint16_t>(core::DeltaOutcome::kRetryLater) + 1);
  EXPECT_EQ(maintainer.stats().deferred, 1u);

  // Once the backlog publishes, resubmission is admitted.
  release.set_value();
  maintainer.Drain();
  ASSERT_TRUE(WaitFor([&] { return engine.index_epoch() >= 1; }));
  auto retried = c.SubmitDelta("bp-1", {0.0001, 0.9997, 0.0001, 0.0001});
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.ValueOrDie().status, net::WireStatus::kOk);

  server.Stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.deltas_submitted, 2u);
  EXPECT_EQ(stats.deltas_deferred, 1u);
}

// ---------------------------------------------------------------------------
// Loopback storm (the TSan gate runs this test under -fsanitize=thread)
// ---------------------------------------------------------------------------

TEST_F(NetServingTest, LoopbackStormWithLivePublishingRepliesBitIdentical) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);

  // Keep every published generation so each wire answer can be replayed
  // against the exact index that served it.
  std::mutex generations_mu;
  std::map<uint64_t, std::shared_ptr<const core::InflexIndex>> generations;
  generations[0] = index_;

  core::IndexMaintainerOptions mopts;
  mopts.admission_threshold = 0.05;
  mopts.oracle.num_snapshots = 10;
  mopts.on_publish = [&](uint64_t epoch,
                         std::shared_ptr<const core::InflexIndex> gen) {
    std::lock_guard<std::mutex> lock(generations_mu);
    generations[epoch] = std::move(gen);
  };
  core::IndexMaintainer maintainer(index_, &dataset_->graph, &engine, mopts);

  net::InflexServerOptions sopts;
  sopts.num_workers = 4;
  sopts.maintainer = &maintainer;
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 25;
  struct Answer {
    core::QueryRequest request;
    uint64_t epoch;
    std::vector<uint32_t> seeds;
  };
  std::vector<std::vector<Answer>> answers(kClients);
  std::atomic<size_t> transport_failures{0};
  std::mutex failures_mu;
  std::string failure_detail;
  auto record_failure = [&](const std::string& detail) {
    transport_failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(failures_mu);
    failure_detail += detail + "\n";
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
      if (!client.ok()) {
        record_failure("client connect: " + client.status().ToString());
        return;
      }
      // No segment masks in the storm: masked requests can legitimately
      // fail, and failure responses carry a best-effort epoch that the
      // per-generation replay below could not pin down under churn.
      auto workload = MakeWorkload(kPerClient, 1000 + t);
      for (auto& r : workload) r.options.segment_mask.clear();
      for (const core::QueryRequest& request : workload) {
        auto resp = client.ValueOrDie().Query(request);
        if (!resp.ok()) {
          record_failure("query transport: " + resp.status().ToString());
          return;
        }
        if (resp.ValueOrDie().status != net::WireStatus::kOk) {
          record_failure(
              std::string("query status: ") +
              net::WireStatusName(resp.ValueOrDie().status) + " " +
              resp.ValueOrDie().message);
          return;
        }
        answers[t].push_back(Answer{request, resp.ValueOrDie().epoch,
                                    resp.ValueOrDie().seeds});
      }
    });
  }
  // Generation churn under the storm: far-corner deltas through the wire.
  std::thread delta_thread([&] {
    auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
    if (!client.ok()) {
      record_failure("delta connect: " + client.status().ToString());
      return;
    }
    for (size_t i = 0; i < 6; ++i) {
      const double mass = 0.999 - 1e-4 * static_cast<double>(i);
      std::vector<double> gamma(4, (1.0 - mass) / 3.0);
      gamma[i % 4] = mass;
      auto resp =
          client.ValueOrDie().SubmitDelta("storm-" + std::to_string(i), gamma);
      if (!resp.ok()) {
        record_failure("delta transport: " + resp.status().ToString());
        return;
      }
      if (!resp.ValueOrDie().ok()) {
        record_failure(std::string("delta status: ") +
                       net::WireStatusName(resp.ValueOrDie().status) + " " +
                       resp.ValueOrDie().message);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& c : clients) c.join();
  delta_thread.join();
  ASSERT_EQ(transport_failures.load(), 0u) << failure_detail;

  server.Stop();  // drains the maintainer too
  EXPECT_FALSE(server.running());

  // Every answer must be bit-identical to a direct in-process query against
  // the generation that served it.
  size_t replayed = 0;
  for (const auto& per_client : answers) {
    ASSERT_EQ(per_client.size(), kPerClient);
    for (const Answer& a : per_client) {
      std::shared_ptr<const core::InflexIndex> gen;
      {
        std::lock_guard<std::mutex> lock(generations_mu);
        auto it = generations.find(a.epoch);
        ASSERT_NE(it, generations.end()) << "unknown epoch " << a.epoch;
        gen = it->second;
      }
      auto want = gen->Query(a.request.item, a.request.k, a.request.options);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(a.seeds, want.ValueOrDie().seeds)
          << "epoch " << a.epoch << " replay diverged";
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, kClients * kPerClient);
}

// ---------------------------------------------------------------------------
// Multi-loop IO plane (SO_REUSEPORT sharding)
// ---------------------------------------------------------------------------

// io_threads=4: the kernel shards 8 clients across four poll loops, each
// owning its connections exclusively. Answers must stay bit-identical to an
// in-process reference, responses must stay request-ordered per connection
// (pipelined bursts), and the per-loop counters must sum to the exact
// request totals. Under TSan this is the gate on cross-loop completion
// routing and the per-loop connection ownership model.
TEST_F(NetServingTest, MultiLoopServerShardsConnectionsAndStaysCoherent) {
  ThreadPool pool(4);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  core::QueryEngine reference(index_, eopts);

  net::InflexServerOptions sopts;
  sopts.io_threads = 4;
  sopts.num_workers = 4;
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 24;
  std::atomic<size_t> transport_failures{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client = net::InflexClient::Connect("127.0.0.1", port, 20000);
      if (!client.ok()) {
        transport_failures.fetch_add(1);
        return;
      }
      auto workload = MakeWorkload(kPerClient, 7000 + t);
      for (const core::QueryRequest& request : workload) {
        auto resp = client.ValueOrDie().Query(request);
        if (!resp.ok()) {
          transport_failures.fetch_add(1);
          return;
        }
        const net::WireResponse& got = resp.ValueOrDie();
        auto want = reference.Query(request);
        if (!want.ok()) {
          if (got.status != net::WireStatus::kQueryFailed) {
            mismatches.fetch_add(1);
          }
          continue;
        }
        if (got.status != net::WireStatus::kOk ||
            got.seeds != want.ValueOrDie().seeds) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_EQ(transport_failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  server.Stop();
  EXPECT_FALSE(server.running());
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);
  EXPECT_EQ(stats.requests_received, kClients * kPerClient);
  EXPECT_EQ(stats.responses_sent, stats.requests_received);
  EXPECT_EQ(stats.queries_ok + stats.queries_failed, kClients * kPerClient);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

// A pipelined burst against a multi-loop server: responses on one connection
// must come back strictly in request order even though completions fan in
// from several engine workers through the owning loop.
TEST_F(NetServingTest, MultiLoopPipelinedBurstStaysOrdered) {
  ThreadPool pool(2);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  core::QueryEngine reference(index_, eopts);

  net::InflexServerOptions sopts;
  sopts.io_threads = 3;
  sopts.num_workers = 3;
  sopts.max_worker_batch = 4;
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  auto workload = MakeWorkload(20, 5150);
  for (auto& r : workload) r.options.segment_mask.clear();
  // Fire all requests before reading anything back.
  for (const core::QueryRequest& request : workload) {
    ASSERT_TRUE(
        conn.Send(net::EncodeRequestFrame(net::MakeQueryRequest(request))));
  }
  // Responses must arrive positionally aligned with the pipelined requests.
  for (size_t i = 0; i < workload.size(); ++i) {
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << "response " << i << ": "
                           << resp.status().ToString();
    auto want = reference.Query(workload[i]);
    ASSERT_TRUE(want.ok()) << "request " << i;
    ASSERT_EQ(resp.ValueOrDie().status, net::WireStatus::kOk)
        << "response " << i << ": " << resp.ValueOrDie().message;
    EXPECT_EQ(resp.ValueOrDie().seeds, want.ValueOrDie().seeds)
        << "response " << i << " out of order or wrong";
  }
  conn.Close();
  server.Stop();
}

// io_threads=1 must behave exactly like the classic single-loop server (no
// SO_REUSEPORT, same port semantics) — the default path taken by every
// existing test, pinned here explicitly against the option plumbing.
TEST_F(NetServingTest, SingleIoThreadRemainsDefault) {
  ThreadPool pool(2);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  net::InflexServerOptions sopts;
  sopts.io_threads = 0;  // 0 clamps to 1
  net::InflexServer server(&engine, sopts);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok());
  auto resp = client.ValueOrDie().Query(SimpleRequest());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kOk);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Multi-tenant routing over the wire (tenant router + per-tenant budgets)
// ---------------------------------------------------------------------------

TEST_F(NetServingTest, V1ClientRoutesToDefaultTenant) {
  ThreadPool pool(4);
  tenant::TenantRegistry registry;
  tenant::TenantOptions topts;
  topts.id = tenant::kDefaultTenantId;
  topts.engine.pool = &pool;
  topts.with_maintainer = false;
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  topts.id = "acme";
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  tenant::TenantRouter router(&registry);

  net::InflexServerOptions sopts;
  sopts.router = &router;
  net::InflexServer server(registry.Resolve("")->engine(), sopts);
  ASSERT_TRUE(server.Start().ok());

  // A client that never sets a tenant emits frames byte-identical to a v1
  // client; the router must land them on the default tenant's catalog with
  // answers bit-identical to an in-process reference.
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine reference(index_, eopts);
  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto workload = MakeWorkload(16, 272);
  for (size_t i = 0; i < workload.size(); ++i) {
    auto wire = client.ValueOrDie().Query(workload[i]);
    ASSERT_TRUE(wire.ok()) << "request " << i;
    auto want = reference.Query(workload[i]);
    if (!want.ok()) {
      EXPECT_EQ(wire.ValueOrDie().status, net::WireStatus::kQueryFailed);
      continue;
    }
    ASSERT_EQ(wire.ValueOrDie().status, net::WireStatus::kOk)
        << wire.ValueOrDie().message;
    EXPECT_EQ(wire.ValueOrDie().seeds, want.ValueOrDie().seeds)
        << "request " << i;
  }
  server.Stop();

  // All traffic landed on the default tenant; the sibling saw none of it.
  EXPECT_GT(registry.Resolve("")->Snapshot().queries_admitted, 0u);
  EXPECT_EQ(registry.Lookup("acme")->Snapshot().queries_admitted, 0u);
  EXPECT_EQ(registry.Lookup("acme")->Snapshot().serving.num_requests, 0u);
}

TEST_F(NetServingTest, SingleTenantServerAcceptsOnlyDefaultTenantName) {
  ThreadPool pool(2);
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine engine(index_, eopts);
  net::InflexServer server(&engine);  // classic single-tenant wiring
  ASSERT_TRUE(server.Start().ok());

  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok());
  net::InflexClient& c = client.ValueOrDie();

  // Naming the back-compat catalog explicitly is fine...
  c.set_tenant(tenant::kDefaultTenantId);
  auto ok = c.Query(SimpleRequest());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie().status, net::WireStatus::kOk);

  // ...any other name must be rejected, never silently served from the only
  // catalog — queries, pings, and deltas alike.
  c.set_tenant("acme");
  auto q = c.Query(SimpleRequest());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.ValueOrDie().status, net::WireStatus::kInvalidRequest);
  auto p = c.Ping();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.ValueOrDie().status, net::WireStatus::kInvalidRequest);
  auto d = c.SubmitDelta("x", {0.7, 0.1, 0.1, 0.1});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.ValueOrDie().status, net::WireStatus::kInvalidRequest);
  server.Stop();
}

TEST_F(NetServingTest, UnknownTenantRejectedNotCrossRouted) {
  ThreadPool pool(2);
  tenant::TenantRegistry registry;
  tenant::TenantOptions topts;
  topts.id = tenant::kDefaultTenantId;
  topts.engine.pool = &pool;
  topts.with_maintainer = false;
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  tenant::TenantRouter router(&registry);
  net::InflexServerOptions sopts;
  sopts.router = &router;
  net::InflexServer server(registry.Resolve("")->engine(), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto client = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(client.ok());
  net::InflexClient& c = client.ValueOrDie();
  c.set_tenant("ghost");
  auto q = c.Query(SimpleRequest());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.ValueOrDie().status, net::WireStatus::kInvalidRequest);
  auto p = c.Ping();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.ValueOrDie().status, net::WireStatus::kInvalidRequest);
  server.Stop();
  // Nothing leaked into the default tenant.
  EXPECT_EQ(registry.Resolve("")->Snapshot().queries_admitted, 0u);
}

TEST_F(NetServingTest, TenantsServeIsolatedCatalogsOverOneServer) {
  ThreadPool pool(4);
  tenant::TenantRegistry registry;
  tenant::TenantOptions topts;
  topts.engine.pool = &pool;
  topts.maintainer.admission_threshold = 0.05;
  topts.maintainer.oracle.num_snapshots = 10;
  for (const char* id :
       {tenant::kDefaultTenantId, "alpha", "beta"}) {
    topts.id = id;
    ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  }
  tenant::TenantRouter router(&registry);
  net::InflexServerOptions sopts;
  sopts.router = &router;
  net::InflexServer server(registry.Resolve("")->engine(), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto alpha = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  auto beta = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(alpha.ok() && beta.ok());
  alpha.ValueOrDie().set_tenant("alpha");
  beta.ValueOrDie().set_tenant("beta");

  // A certain-admission delta into alpha forks its generation sequence;
  // beta (and default) must stay on generation 0.
  auto receipt =
      alpha.ValueOrDie().SubmitDelta("only-alpha", {0.9997, 1e-4, 1e-4, 1e-4});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  ASSERT_EQ(receipt.ValueOrDie().status, net::WireStatus::kOk);
  EXPECT_EQ(receipt.ValueOrDie().delta_outcome,
            static_cast<uint16_t>(core::DeltaOutcome::kAdmitted) + 1);
  registry.Lookup("alpha")->maintainer()->Drain();

  auto alpha_ping = alpha.ValueOrDie().Ping();
  ASSERT_TRUE(alpha_ping.ok());
  EXPECT_GE(alpha_ping.ValueOrDie().epoch, 1u);
  auto beta_ping = beta.ValueOrDie().Ping();
  ASSERT_TRUE(beta_ping.ok());
  EXPECT_EQ(beta_ping.ValueOrDie().epoch, 0u);

  // Beta's answers still come from the base generation, bit-identical to an
  // in-process reference on the initial index.
  core::QueryEngineOptions eopts;
  eopts.pool = &pool;
  core::QueryEngine reference(index_, eopts);
  const auto workload = MakeWorkload(8, 4242);
  for (const auto& request : workload) {
    auto wire = beta.ValueOrDie().Query(request);
    ASSERT_TRUE(wire.ok());
    auto want = reference.Query(request);
    if (!want.ok()) {
      EXPECT_EQ(wire.ValueOrDie().status, net::WireStatus::kQueryFailed);
      continue;
    }
    ASSERT_EQ(wire.ValueOrDie().status, net::WireStatus::kOk);
    EXPECT_EQ(wire.ValueOrDie().seeds, want.ValueOrDie().seeds);
    EXPECT_EQ(wire.ValueOrDie().epoch, 0u);
  }
  server.Stop();

  const tenant::TenantStats astats = registry.Lookup("alpha")->Snapshot();
  const tenant::TenantStats bstats = registry.Lookup("beta")->Snapshot();
  EXPECT_EQ(astats.deltas_routed, 1u);
  EXPECT_EQ(astats.maintenance.generations_published, 1u);
  EXPECT_EQ(bstats.deltas_routed, 0u);
  EXPECT_EQ(bstats.maintenance.generations_published, 0u);
  EXPECT_GT(bstats.queries_admitted, 0u);
}

TEST_F(NetServingTest, TenantBudgetShedsOverWireWithoutTouchingNeighbors) {
  ThreadPool pool(2);
  // Deterministic token bucket: the router reads this fake clock.
  std::atomic<uint64_t> now_ns{0};
  tenant::TenantRegistry registry;
  tenant::TenantOptions topts;
  topts.id = tenant::kDefaultTenantId;
  topts.engine.pool = &pool;
  topts.with_maintainer = false;
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  topts.id = "limited";
  topts.budget.query_rate_per_sec = 10.0;
  topts.budget.query_burst = 2.0;
  ASSERT_TRUE(registry.CreateTenant(topts, index_, &dataset_->graph).ok());
  tenant::TenantRouter::Options ropts;
  ropts.clock_ns = [&now_ns] { return now_ns.load(); };
  tenant::TenantRouter router(&registry, ropts);

  net::InflexServerOptions sopts;
  sopts.router = &router;
  sopts.retry_after_ms = 25;
  net::InflexServer server(registry.Resolve("")->engine(), sopts);
  ASSERT_TRUE(server.Start().ok());

  auto limited = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  auto unmetered = net::InflexClient::Connect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(limited.ok() && unmetered.ok());
  limited.ValueOrDie().set_tenant("limited");

  // Burst capacity admits exactly two; the third is shed at the tenant
  // layer with kOverloaded + retry-after, before the shared queue.
  for (int i = 0; i < 2; ++i) {
    auto resp = limited.ValueOrDie().Query(SimpleRequest());
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.ValueOrDie().status, net::WireStatus::kOk) << "query " << i;
  }
  auto shed = limited.ValueOrDie().Query(SimpleRequest());
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.ValueOrDie().status, net::WireStatus::kOverloaded);
  EXPECT_EQ(shed.ValueOrDie().retry_after_ms, 25u);

  // The default tenant's bucket is untouched: a v1 client sails through
  // while the noisy tenant is out of tokens.
  auto ok = unmetered.ValueOrDie().Query(SimpleRequest());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie().status, net::WireStatus::kOk);

  // 100 ms at 10 tokens/s refills exactly one token.
  now_ns.fetch_add(100'000'000ull);
  auto refilled = limited.ValueOrDie().Query(SimpleRequest());
  ASSERT_TRUE(refilled.ok());
  EXPECT_EQ(refilled.ValueOrDie().status, net::WireStatus::kOk);
  auto dry = limited.ValueOrDie().Query(SimpleRequest());
  ASSERT_TRUE(dry.ok());
  EXPECT_EQ(dry.ValueOrDie().status, net::WireStatus::kOverloaded);

  server.Stop();
  const tenant::TenantStats lstats = registry.Lookup("limited")->Snapshot();
  EXPECT_EQ(lstats.queries_admitted, 3u);
  EXPECT_EQ(lstats.queries_shed, 2u);
  // Budget sheds are mirrored into the tenant's own serving stats...
  EXPECT_EQ(lstats.serving.shed_count, 2u);
  // ...and never into a neighbor's.
  EXPECT_EQ(registry.Resolve("")->Snapshot().serving.shed_count, 0u);
  EXPECT_EQ(registry.Resolve("")->Snapshot().queries_shed, 0u);
}

}  // namespace
}  // namespace inflex

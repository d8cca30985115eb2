#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/heap.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace inflex {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopyIsCheapAndEqualityWorks) {
  Status a = Status::IOError("disk");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.message(), "disk");
}

Status FailingHelper() { return Status::NotFound("nope"); }

Status PropagationHelper() {
  INFLEX_RETURN_NOT_OK(FailingHelper());
  return Status::OK();  // unreachable
}

TEST(StatusTest, ReturnNotOkPropagates) {
  Status s = PropagationHelper();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Result ---

Result<int> MakeValue(bool fail) {
  if (fail) return Status::InvalidArgument("fail requested");
  return 42;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = MakeValue(false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = MakeValue(true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> ChainHelper(bool fail) {
  INFLEX_ASSIGN_OR_RETURN(int v, MakeValue(fail));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(ChainHelper(false).ValueOrDie(), 43);
  EXPECT_EQ(ChainHelper(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).ValueOrDie();
  EXPECT_EQ(*p, 7);
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 90);
}

// Advance(k) lands on the state k Next() calls reach: around the 256-step
// jump window, at one snapshot of 30317 drawn arcs and a 25-snapshot lane
// block of them, and at random k.
TEST(RngTest, AdvanceEqualsRepeatedNext) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<uint64_t> ks = {0, 1, 255, 256, 30317, 25 * 30317};
    Rng pick(seed + 100);
    for (int i = 0; i < 20; ++i) ks.push_back(pick.UniformInt(1u << 20));
    for (const uint64_t k : ks) {
      Rng stepped(seed), jumped(seed);
      for (uint64_t i = 0; i < k; ++i) stepped.Next();
      jumped.Advance(k);
      EXPECT_EQ(jumped.state(), stepped.state()) << "seed " << seed << " k " << k;
      EXPECT_EQ(jumped.Next(), stepped.Next()) << "seed " << seed << " k " << k;
    }
  }
}

// The derived characteristic polynomial reproduces the published xoshiro256
// jump (2^128 steps) and long_jump (2^192 steps) constants.
TEST(RngTest, JumpPolynomialsMatchReferenceConstants) {
  const std::array<uint64_t, 4> jump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  const std::array<uint64_t, 4> long_jump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  EXPECT_EQ(XoshiroPow2JumpPoly(128), jump);
  EXPECT_EQ(XoshiroPow2JumpPoly(192), long_jump);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    counts[v]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(17);
  for (double shape : {0.3, 1.0, 2.5, 8.0}) {
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.05) << "shape=" << shape;
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

// ------------------------------------------------------------ ThreadPool ---

TEST(ProcessMemoryTest, ParsesStatusText) {
  const char* status =
      "Name:\tinflex\nVmPeak:\t  200000 kB\nVmHWM:\t   15412 kB\n"
      "VmRSS:\t   12648 kB\nThreads:\t5\n";
  const auto memory = util::ParseProcessMemory(status);
  ASSERT_TRUE(memory.has_value());
  EXPECT_EQ(memory->rss_kb, 12648u);
  EXPECT_EQ(memory->hwm_kb, 15412u);
  EXPECT_FALSE(util::ParseProcessMemory("VmRSS:\t 12 kB\n").has_value());
  EXPECT_FALSE(util::ParseProcessMemory("VmHWM:\t 12 kB\n").has_value());
  EXPECT_FALSE(
      util::ParseProcessMemory("VmRSS:\t kB\nVmHWM:\t 12 kB\n").has_value());
  EXPECT_FALSE(util::ParseProcessMemory("").has_value());
}

TEST(ProcessMemoryTest, ReadsThisProcess) {
#if defined(__linux__)
  const auto memory = util::ReadProcessMemory();
  ASSERT_TRUE(memory.has_value());
  EXPECT_GT(memory->rss_kb, 0u);
  EXPECT_GE(memory->hwm_kb, memory->rss_kb);
#else
  EXPECT_FALSE(util::ReadProcessMemory().has_value());
#endif
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  ParallelFor(0, 1000, [&hits](size_t i) { hits[i]++; }, &pool);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(5, 5, [&called](size_t) { called = true; }, &pool);
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSmallRangeSerial) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  ParallelFor(10, 11, [&total](size_t i) { total += static_cast<int>(i); },
              &pool);
  EXPECT_EQ(total.load(), 10);
}

// Regression: a task submitting to its own pool used to be forbidden (and a
// task blocking in a nested ParallelFor could wedge every worker). Nested
// submissions now execute inline on the calling worker.
TEST(ThreadPoolTest, NestedSubmitRunsInlineInsteadOfDeadlocking) {
  ThreadPool pool(1);  // one worker: any queued nested task could never run
  std::atomic<int> inner{0};
  std::atomic<bool> inner_done_before_outer_returned{false};
  pool.Submit([&] {
    pool.Submit([&] { inner.fetch_add(1); });
    inner_done_before_outer_returned = inner.load() == 1;
  });
  pool.Wait();
  EXPECT_EQ(inner.load(), 1);
  EXPECT_TRUE(inner_done_before_outer_returned.load());
}

TEST(ThreadPoolTest, NestedParallelForCompletesOnSamePool) {
  ThreadPool pool(2);
  std::vector<int> hits(256, 0);
  std::atomic<int> outer_done{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&] {
      // Nested ParallelFor on the pool this task runs on: must degrade to a
      // serial loop rather than deadlock waiting for busy workers.
      std::vector<int> local(hits.size(), 0);
      ParallelFor(0, local.size(), [&local](size_t i) { local[i]++; }, &pool);
      for (int h : local) {
        if (h != 1) return;  // leave outer_done unincremented
      }
      outer_done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(outer_done.load(), 4);
}

// The per-worker-queue pool must serve many EXTERNAL threads running
// ParallelFor on the same pool at once (exactly what N net-server workers do
// with concurrent QueryBatch calls): every caller's range completes exactly
// once, and no caller returns before its own iterations have all run.
TEST(ThreadPoolTest, ParallelForManyConcurrentExternalCallers) {
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 20;
  constexpr size_t kRange = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<int> hits(kRange, 0);
        ParallelFor(0, kRange, [&hits](size_t i) { hits[i]++; }, &pool);
        // The call returned: every slot must already be exactly 1.
        for (int h : hits) {
          if (h != 1) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Submissions racing Wait() from several threads: Wait() must only return
// once every task submitted before it has run.
TEST(ThreadPoolTest, ConcurrentSubmittersNeverLoseTasks) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr int kPerThread = 200;
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& th : submitters) th.join();
  pool.Wait();
  EXPECT_EQ(counter.load(), kSubmitters * kPerThread);
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPools) {
  ThreadPool a(1);
  ThreadPool b(1);
  EXPECT_FALSE(a.OnWorkerThread());
  std::atomic<int> checks{0};
  a.Submit([&] {
    if (a.OnWorkerThread() && !b.OnWorkerThread()) checks.fetch_add(1);
    // Submitting to a *different* pool from a worker still enqueues there.
    b.Submit([&] {
      if (b.OnWorkerThread() && !a.OnWorkerThread()) checks.fetch_add(1);
    });
  });
  a.Wait();
  b.Wait();
  EXPECT_EQ(checks.load(), 2);
}

// --------------------------------------------------------------- Serialize ---

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(SerializeTest, PodRoundTrip) {
  const std::string path = TempPath("pod.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().WritePod<uint32_t>(0xdeadbeef).ok());
    ASSERT_TRUE(w.ValueOrDie().WritePod<double>(3.5).ok());
    ASSERT_TRUE(w.ValueOrDie().Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  uint32_t a = 0;
  double b = 0;
  ASSERT_TRUE(r.ValueOrDie().ReadPod(&a).ok());
  ASSERT_TRUE(r.ValueOrDie().ReadPod(&b).ok());
  EXPECT_EQ(a, 0xdeadbeef);
  EXPECT_EQ(b, 3.5);
}

TEST(SerializeTest, VectorAndStringRoundTrip) {
  const std::string path = TempPath("vec.bin");
  const std::vector<double> values = {1.0, -2.5, 1e-9};
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().WriteVector(values).ok());
    ASSERT_TRUE(w.ValueOrDie().WriteString("hello").ok());
    ASSERT_TRUE(w.ValueOrDie().Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  std::vector<double> decoded;
  std::string s;
  ASSERT_TRUE(r.ValueOrDie().ReadVector(&decoded).ok());
  ASSERT_TRUE(r.ValueOrDie().ReadString(&s).ok());
  EXPECT_EQ(decoded, values);
  EXPECT_EQ(s, "hello");
}

TEST(SerializeTest, HeaderMismatchDetected) {
  const std::string path = TempPath("hdr.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(WriteHeader(&w.ValueOrDie(), 0x1111, 1).ok());
    ASSERT_TRUE(w.ValueOrDie().Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  Status s = CheckHeader(&r.ValueOrDie(), 0x2222, 1);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(SerializeTest, VersionMismatchDetected) {
  const std::string path = TempPath("ver.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(WriteHeader(&w.ValueOrDie(), 0x1111, 3).ok());
    ASSERT_TRUE(w.ValueOrDie().Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  Status s = CheckHeader(&r.ValueOrDie(), 0x1111, 1);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(SerializeTest, TruncatedReadFails) {
  const std::string path = TempPath("trunc.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.ValueOrDie().WritePod<uint16_t>(1).ok());
    ASSERT_TRUE(w.ValueOrDie().Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  uint64_t big = 0;
  EXPECT_EQ(r.ValueOrDie().ReadPod(&big).code(), StatusCode::kIOError);
}

TEST(SerializeTest, OpenMissingFileFails) {
  auto r = BinaryReader::Open("/nonexistent/dir/file.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// ------------------------------------------------------------------ Timer ---

// Prevents the busy-wait loops below from being optimized away.
volatile double benchmark_sink_ = 0.0;

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  benchmark_sink_ = sink;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms scale larger
}

TEST(TimerTest, ResetRestarts) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i * 0.5;
  benchmark_sink_ = sink;
  const double before = t.ElapsedSeconds();
  t.Reset();
  EXPECT_LE(t.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace inflex

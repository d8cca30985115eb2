// Tests for the vectorized KL kernel layer (simplex/kl_kernel.h) and its
// integration into the bb-tree searches: the factorized evaluation must be
// numerically indistinguishable (≤ 1e-12) from the reference KlDivergence,
// and the kernel-based searches must retrieve exactly the same neighbors as
// a reference brute-force scan — before and after online inserts grow the
// flat SoA buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bbtree/bbtree.h"
#include "bbtree/bregman_ball.h"
#include "simplex/divergence.h"
#include "simplex/kl_kernel.h"
#include "simplex/kl_kernel_simd.h"
#include "simplex/sampling.h"
#include "stats/dirichlet.h"
#include "util/aligned.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace inflex {
namespace simplex {
namespace {

constexpr double kTol = 1e-12;

std::vector<TopicVector> DirichletPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<TopicVector> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> alpha(dim, 0.3);
    alpha[i % dim] = 6.0;
    stats::Dirichlet d(alpha);
    points.push_back(d.Sample(&rng));
  }
  return points;
}

// -------------------------------------------------------------- primitives --

TEST(KlKernelTest, NegativeEntropyMatchesDirectSum) {
  const TopicVector p = {0.5, 0.25, 0.125, 0.125};
  double expected = 0.0;
  for (double v : p) expected += v * std::log(v);
  EXPECT_NEAR(NegativeEntropy(p.data(), p.size()), expected, kTol);
}

TEST(KlKernelTest, NegativeEntropySkipsZeroCoordinates) {
  // 0·log 0 = 0 by continuity: a zero coordinate must contribute nothing
  // (and must not produce NaN/−inf).
  const TopicVector p = {0.7, 0.0, 0.3, 0.0};
  const double got = NegativeEntropy(p.data(), p.size());
  EXPECT_TRUE(std::isfinite(got));
  EXPECT_NEAR(got, 0.7 * std::log(0.7) + 0.3 * std::log(0.3), kTol);
}

TEST(KlKernelTest, ClampedLogClampsAtEps) {
  const TopicVector v = {0.5, 0.0, 1e-15, 0.5};
  std::vector<double> out(v.size());
  ClampedLog(v.data(), v.size(), kKlSmoothingEps, out.data());
  EXPECT_DOUBLE_EQ(out[0], std::log(0.5));
  EXPECT_DOUBLE_EQ(out[1], std::log(kKlSmoothingEps));
  EXPECT_DOUBLE_EQ(out[2], std::log(kKlSmoothingEps));  // below eps: clamped
  EXPECT_DOUBLE_EQ(out[3], std::log(0.5));
}

TEST(KlKernelTest, DotProductIsDeterministicAcrossLengths) {
  // The 4-accumulator kernel must agree with a plain loop to FP tolerance
  // and with itself exactly (fixed summation order) on every length,
  // including the scalar tail cases n % 4 != 0.
  Rng rng(7);
  for (size_t n = 1; n <= 19; ++n) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(0.0, 1.0);
      b[i] = rng.Uniform(-1.0, 1.0);
    }
    double naive = 0.0;
    for (size_t i = 0; i < n; ++i) naive += a[i] * b[i];
    const double got = DotProduct(a.data(), b.data(), n);
    EXPECT_NEAR(got, naive, kTol) << "n=" << n;
    EXPECT_DOUBLE_EQ(got, DotProduct(a.data(), b.data(), n));
  }
}

// ----------------------------------------------- factorization equivalence --

TEST(KlKernelTest, FactorizedMatchesReferenceOnRandomPairs) {
  Rng rng(11);
  KlQueryContext ctx;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t dim = 2 + trial % 30;
    const TopicVector p = SampleUniformSimplex(dim, &rng);
    const TopicVector q = SampleUniformSimplex(dim, &rng);
    ctx.Reset(q);
    const double reference = KlDivergence(p, q);
    const double kernel = ctx.Kl(p.data(), NegativeEntropy(p.data(), dim));
    EXPECT_NEAR(kernel, reference, kTol) << "dim=" << dim;
  }
}

TEST(KlKernelTest, FactorizedMatchesReferenceWithZeroCoordinates) {
  // p has exact zeros (its terms drop out); q has exact zeros (clamped to
  // eps by both sides). Sparse topic mixtures hit both cases constantly.
  const TopicVector p = {0.6, 0.0, 0.4, 0.0};
  const TopicVector q = {0.0, 0.5, 0.5, 0.0};
  KlQueryContext ctx;
  ctx.Reset(q);
  const double reference = KlDivergence(p, q);
  const double kernel = ctx.Kl(p.data(), NegativeEntropy(p.data(), p.size()));
  EXPECT_TRUE(std::isfinite(kernel));
  EXPECT_NEAR(kernel, reference, kTol);
}

TEST(KlKernelTest, FactorizedIsClampedAtZero) {
  // D_KL(p ‖ p) is mathematically 0; cancellation could take the factorized
  // form slightly negative, so both sides clamp.
  Rng rng(13);
  KlQueryContext ctx;
  for (int trial = 0; trial < 50; ++trial) {
    const TopicVector p = SampleUniformSimplex(8, &rng);
    ctx.Reset(p);
    const double d = ctx.Kl(p.data(), NegativeEntropy(p.data(), p.size()));
    EXPECT_GE(d, 0.0);
    EXPECT_NEAR(d, 0.0, kTol);
  }
}

TEST(KlKernelTest, KlOfQueryAgainstMatchesReverseDirection) {
  Rng rng(17);
  KlQueryContext ctx;
  for (int trial = 0; trial < 50; ++trial) {
    const TopicVector q = SampleUniformSimplex(6, &rng);
    const TopicVector t = SampleUniformSimplex(6, &rng);
    ctx.Reset(q);
    std::vector<double> log_t(t.size());
    ClampedLog(t.data(), t.size(), kKlSmoothingEps, log_t.data());
    EXPECT_NEAR(ctx.KlOfQueryAgainst(log_t.data()), KlDivergence(q, t), kTol);
  }
}

TEST(KlKernelTest, KlBatchMatchesScalarKernelExactly) {
  Rng rng(19);
  const size_t m = 37, dim = 12;
  std::vector<double> rows(m * dim), negent(m);
  for (size_t i = 0; i < m; ++i) {
    const TopicVector p = SampleUniformSimplex(dim, &rng);
    std::copy(p.begin(), p.end(), rows.begin() + i * dim);
    negent[i] = NegativeEntropy(p.data(), dim);
  }
  KlQueryContext ctx;
  ctx.Reset(SampleUniformSimplex(dim, &rng));
  std::vector<double> out(m);
  KlBatch(rows.data(), negent.data(), m, dim, ctx.log_query(), out.data());
  for (size_t i = 0; i < m; ++i) {
    // Bit-exact: the batch form must run the identical per-row kernel.
    EXPECT_DOUBLE_EQ(out[i], ctx.Kl(rows.data() + i * dim, negent[i])) << i;
  }
}

// --------------------------------------------- SIMD dispatch & bit-identity --

// Every kernel variant the executing host can run: scalar always, plus the
// SIMD variants that are both compiled in and supported by cpuid. On a
// non-AVX2 host the list degenerates to {scalar} and the identity tests
// pass trivially — CI's forced-scalar matrix leg covers that shape
// explicitly.
std::vector<const KlKernelOps*> HostVariants() {
  std::vector<const KlKernelOps*> variants = {&ScalarKernelOps()};
  const util::CpuSimdFeatures cpu = util::DetectCpuSimd();
  if (cpu.avx2 && Avx2KernelOps() != nullptr) variants.push_back(Avx2KernelOps());
  if (cpu.avx512f && Avx512KernelOps() != nullptr) {
    variants.push_back(Avx512KernelOps());
  }
  return variants;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Mixture-like vector of length n that exercises every hazard at once:
// exact zeros (whose log the clamp replaces by log(eps)), a subnormal entry,
// and ordinary mixture mass — the inputs the tree feeds these kernels.
std::vector<double> HazardMixture(size_t n, Rng* rng) {
  std::vector<double> v(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng->Uniform(0.0, 1.0);
    sum += v[i];
  }
  for (double& x : v) x /= sum;
  if (n >= 2) v[1] = 0.0;                 // exact zero → eps clamp
  if (n >= 3) v[n - 1] = 4.9406564584124654e-324;  // smallest subnormal
  return v;
}

// The dims the bit-identity contract is validated on: odd/tail lengths
// around the 4- and 8-lane boundaries plus the bench dims.
const size_t kIdentityDims[] = {1, 2, 3, 4, 7, 8, 13, 50};

TEST(SimdKernelTest, DotProductBitIdenticalAcrossVariants) {
  Rng rng(101);
  const auto variants = HostVariants();
  for (size_t n : kIdentityDims) {
    const std::vector<double> a = HazardMixture(n, &rng);
    std::vector<double> b(n);
    ClampedLog(HazardMixture(n, &rng).data(), n, kKlSmoothingEps, b.data());
    const double want = ScalarKernelOps().dot(a.data(), b.data(), n);
    for (const KlKernelOps* ops : variants) {
      const double got = ops->dot(a.data(), b.data(), n);
      EXPECT_EQ(Bits(got), Bits(want)) << ops->name << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, KlBatchBitIdenticalAcrossVariantsStrided) {
  Rng rng(103);
  const auto variants = HostVariants();
  for (size_t n : kIdentityDims) {
    const size_t m = 13;
    const size_t stride = util::AlignedRowStride(n);
    util::AlignedVector<double> rows(m * stride, 0.0);
    std::vector<double> negent(m);
    for (size_t i = 0; i < m; ++i) {
      const std::vector<double> p = HazardMixture(n, &rng);
      std::copy(p.begin(), p.end(), rows.begin() + i * stride);
      negent[i] = NegativeEntropy(p.data(), n);
    }
    std::vector<double> log_q(n);
    ClampedLog(HazardMixture(n, &rng).data(), n, kKlSmoothingEps,
               log_q.data());
    std::vector<double> want(m), got(m);
    ScalarKernelOps().kl_batch(rows.data(), negent.data(), m, n, stride,
                               log_q.data(), want.data());
    for (const KlKernelOps* ops : variants) {
      ops->kl_batch(rows.data(), negent.data(), m, n, stride, log_q.data(),
                    got.data());
      for (size_t i = 0; i < m; ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(want[i]))
            << ops->name << " n=" << n << " row=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, KlBatchTargetsBitIdenticalAcrossVariants) {
  Rng rng(107);
  const auto variants = HostVariants();
  for (size_t n : kIdentityDims) {
    const size_t m = 9;
    const size_t stride = util::AlignedRowStride(n);
    const std::vector<double> q = HazardMixture(n, &rng);
    const double q_negent = NegativeEntropy(q.data(), n);
    util::AlignedVector<double> log_targets(m * stride, 0.0);
    for (size_t i = 0; i < m; ++i) {
      ClampedLog(HazardMixture(n, &rng).data(), n, kKlSmoothingEps,
                 log_targets.data() + i * stride);
    }
    std::vector<double> want(m), got(m);
    ScalarKernelOps().kl_batch_targets(q.data(), q_negent, log_targets.data(),
                                       m, n, stride, want.data());
    for (const KlKernelOps* ops : variants) {
      ops->kl_batch_targets(q.data(), q_negent, log_targets.data(), m, n,
                            stride, got.data());
      for (size_t i = 0; i < m; ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(want[i]))
            << ops->name << " n=" << n << " row=" << i;
      }
    }
  }
}

TEST(SimdKernelTest, ClampedLogBitIdenticalAcrossVariants) {
  Rng rng(109);
  const auto variants = HostVariants();
  for (size_t n : kIdentityDims) {
    std::vector<double> v = HazardMixture(n, &rng);
    if (n >= 4) v[2] = 1e-15;  // sub-eps but normal: clamped
    std::vector<double> want(n), got(n);
    ScalarKernelOps().clamped_log(v.data(), n, kKlSmoothingEps, want.data());
    for (const KlKernelOps* ops : variants) {
      ops->clamped_log(v.data(), n, kKlSmoothingEps, got.data());
      for (size_t z = 0; z < n; ++z) {
        EXPECT_EQ(Bits(got[z]), Bits(want[z]))
            << ops->name << " n=" << n << " z=" << z;
      }
    }
  }
}

TEST(SimdKernelTest, ResolveForcedScalarAlwaysPicksScalar) {
  EXPECT_STREQ(ResolveKernelOps(true).name, "scalar");
  // Unforced resolution picks the best supported variant and never invents
  // capability the CPU lacks.
  const util::CpuSimdFeatures cpu = util::DetectCpuSimd();
  const char* resolved = ResolveKernelOps(false).name;
  if (cpu.avx512f) {
    EXPECT_STREQ(resolved, "avx512");
  } else if (cpu.avx2) {
    EXPECT_STREQ(resolved, "avx2");
  } else {
    EXPECT_STREQ(resolved, "scalar");
  }
  EXPECT_STREQ(DetectedSimdName(), resolved);
}

TEST(SimdKernelTest, ActiveOpsHonorTheEscapeHatch) {
  // The process-wide table must agree with a fresh resolution under the
  // escape-hatch state captured at startup — this is the invariant the CI
  // matrix leg exercises under INFLEX_FORCE_SCALAR=1.
  EXPECT_STREQ(ActiveKernelOps().name,
               ResolveKernelOps(ActiveKernelsForcedScalar()).name);
  if (ActiveKernelsForcedScalar()) {
    EXPECT_STREQ(ActiveKernelOps().name, "scalar");
  }
}

TEST(SimdKernelTest, ForceScalarRequestedParsesTheEnvContract) {
  EXPECT_FALSE(util::ForceScalarRequested(nullptr));  // unset
  EXPECT_FALSE(util::ForceScalarRequested(""));
  EXPECT_FALSE(util::ForceScalarRequested("0"));
  EXPECT_TRUE(util::ForceScalarRequested("1"));
  EXPECT_TRUE(util::ForceScalarRequested("true"));
  EXPECT_TRUE(util::ForceScalarRequested("yes"));
}

// -------------------------------------------------------- tree integration --

TEST(KernelSearchTest, SoaStorageRoundTripsPoints) {
  const auto points = DirichletPoints(64, 7, 23);
  auto tree = bbtree::BbTree::Build(points).ValueOrDie();
  for (uint32_t id = 0; id < points.size(); ++id) {
    EXPECT_EQ(tree.point(id), points[id]) << "id=" << id;
    const auto span = tree.point_span(id);
    ASSERT_EQ(span.size(), points[id].size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), points[id].begin()));
    EXPECT_NEAR(tree.point_neg_entropy(id),
                simplex::NegativeEntropy(points[id].data(), points[id].size()),
                kTol);
  }
}

// Reference brute force against the ORIGINAL AoS points with the reference
// divergence — deliberately not touching the tree's storage or kernel.
std::vector<bbtree::Neighbor> ReferenceKnn(
    const std::vector<TopicVector>& points, const TopicVector& q, size_t k) {
  std::vector<bbtree::Neighbor> all;
  all.reserve(points.size());
  for (uint32_t id = 0; id < points.size(); ++id) {
    all.push_back({id, KlDivergence(points[id], q)});
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(KernelSearchTest, ExactKnnMatchesReferenceBruteForce) {
  const auto points = DirichletPoints(200, 8, 29);
  auto tree = bbtree::BbTree::Build(points).ValueOrDie();
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const TopicVector q = SampleUniformSimplex(8, &rng);
    const auto want = ReferenceKnn(points, q, 10);
    const auto got = tree.ExactKnn(q, 10);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].point_id, want[i].point_id) << "trial=" << trial;
      EXPECT_NEAR(got[i].divergence, want[i].divergence, kTol);
    }
  }
}

TEST(KernelSearchTest, InflexSearchDivergencesMatchReference) {
  const auto points = DirichletPoints(150, 6, 37);
  auto tree = bbtree::BbTree::Build(points).ValueOrDie();
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    const TopicVector q = SampleUniformSimplex(6, &rng);
    const auto result = tree.InflexSearch(q);
    ASSERT_FALSE(result.neighbors.empty());
    for (const auto& nb : result.neighbors) {
      EXPECT_NEAR(nb.divergence, KlDivergence(points[nb.point_id], q), kTol);
    }
    EXPECT_GT(result.stats.kl_evaluations, 0u);
  }
}

TEST(KernelSearchTest, SearchesStayCorrectAfterInsertGrowsBuffers) {
  auto points = DirichletPoints(80, 5, 43);
  auto tree = bbtree::BbTree::Build(points).ValueOrDie();
  // Grow the SoA buffers well past their built size (forcing reallocation)
  // and interleave searches to catch stale pointers/rows.
  Rng rng(47);
  for (int round = 0; round < 60; ++round) {
    const TopicVector extra = SampleUniformSimplex(5, &rng);
    const uint32_t id = tree.Insert(extra).ValueOrDie();
    ASSERT_EQ(id, points.size());
    points.push_back(extra);

    const TopicVector q = SampleUniformSimplex(5, &rng);
    const auto want = ReferenceKnn(points, q, 5);
    const auto got = tree.ExactKnn(q, 5);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].point_id, want[i].point_id) << "round=" << round;
      EXPECT_NEAR(got[i].divergence, want[i].divergence, kTol);
    }
    // The inserted point itself must be retrievable as an ε-exact match.
    const auto exact = tree.InflexSearch(extra);
    EXPECT_TRUE(exact.epsilon_exact);
    EXPECT_EQ(exact.neighbors.front().point_id, id);
  }
}

TEST(KernelSearchTest, ExplicitContextMatchesThreadLocalFallback) {
  const auto points = DirichletPoints(100, 6, 53);
  auto tree = bbtree::BbTree::Build(points).ValueOrDie();
  Rng rng(59);
  bbtree::SearchContext ctx;  // reused across queries
  for (int trial = 0; trial < 10; ++trial) {
    const TopicVector q = SampleUniformSimplex(6, &rng);
    const auto with_ctx = tree.ExactKnn(q, 8, nullptr, &ctx);
    const auto without = tree.ExactKnn(q, 8);
    ASSERT_EQ(with_ctx.size(), without.size());
    for (size_t i = 0; i < with_ctx.size(); ++i) {
      EXPECT_EQ(with_ctx[i].point_id, without[i].point_id);
      EXPECT_DOUBLE_EQ(with_ctx[i].divergence, without[i].divergence);
    }
  }
}

TEST(KernelSearchTest, SearchStatsAccumulateKernelTime) {
  const auto points = DirichletPoints(300, 10, 61);
  auto tree = bbtree::BbTree::Build(points).ValueOrDie();
  Rng rng(67);
  bbtree::SearchStats stats;
  tree.ExactKnn(SampleUniformSimplex(10, &rng), 5, &stats);
  EXPECT_EQ(stats.kl_evaluations, points.size());
  // kl_ns is wall time of the scan loop: non-zero for 300 evaluations.
  EXPECT_GT(stats.kl_ns, 0u);
}

}  // namespace
}  // namespace simplex
}  // namespace inflex

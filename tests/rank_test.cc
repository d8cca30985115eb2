#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <thread>

#include "rank/aggregators.h"
#include "rank/kemeny.h"
#include "rank/kendall_tau.h"
#include "rank/local_kemenization.h"
#include "rank/preference_matrix.h"
#include "rank/ranked_list.h"
#include "rank/vote_kernel.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace inflex {
namespace rank {
namespace {

PreferenceMatrix Pm(const std::vector<RankedList>& lists,
                    const std::vector<double>& weights = {}) {
  return PreferenceMatrix::Build(lists, weights).ValueOrDie();
}

// Slot of `v` in `pm`; `v` must belong to the union.
size_t SlotOf(const PreferenceMatrix& pm, Item v) {
  const auto it = std::find(pm.items().begin(), pm.items().end(), v);
  EXPECT_NE(it, pm.items().end());
  return static_cast<size_t>(it - pm.items().begin());
}

// -------------------------------------------------------------- validation ---

TEST(RankedListTest, ValidateDetectsDuplicates) {
  EXPECT_TRUE(ValidateRankedList({1, 2, 3}).ok());
  EXPECT_FALSE(ValidateRankedList({1, 2, 1}).ok());
  EXPECT_TRUE(ValidateRankedList({}).ok());
}

TEST(RankedListTest, UnionPreservesFirstAppearanceOrder) {
  const RankedList u = UnionOfLists({{3, 1, 2}, {2, 4}, {5}});
  EXPECT_EQ(u, (RankedList{3, 1, 2, 4, 5}));
}

// ------------------------------------------------------------ Kendall full ---

TEST(KendallTauFullTest, IdenticalListsZero) {
  EXPECT_DOUBLE_EQ(KendallTauFull({1, 2, 3, 4}, {1, 2, 3, 4}).ValueOrDie(),
                   0.0);
}

TEST(KendallTauFullTest, ReversedListsOne) {
  EXPECT_DOUBLE_EQ(KendallTauFull({1, 2, 3, 4}, {4, 3, 2, 1}).ValueOrDie(),
                   1.0);
}

TEST(KendallTauFullTest, SingleSwap) {
  // One adjacent transposition = 1 discordant pair out of C(4,2)=6.
  EXPECT_DOUBLE_EQ(KendallTauFull({1, 2, 3, 4}, {2, 1, 3, 4}).ValueOrDie(),
                   1.0 / 6.0);
}

TEST(KendallTauFullTest, UnnormalizedCountsInversions) {
  EXPECT_DOUBLE_EQ(
      KendallTauFull({1, 2, 3}, {3, 2, 1}, /*normalized=*/false).ValueOrDie(),
      3.0);
}

TEST(KendallTauFullTest, SymmetricInArguments) {
  Rng rng(3);
  RankedList a(20), b(20);
  std::iota(a.begin(), a.end(), 0u);
  b = a;
  rng.Shuffle(&a);
  rng.Shuffle(&b);
  EXPECT_DOUBLE_EQ(KendallTauFull(a, b).ValueOrDie(),
                   KendallTauFull(b, a).ValueOrDie());
}

TEST(KendallTauFullTest, MatchesBruteForceOnRandomPermutations) {
  Rng rng(5);
  for (int t = 0; t < 30; ++t) {
    RankedList a(12), b(12);
    std::iota(a.begin(), a.end(), 0u);
    b = a;
    rng.Shuffle(&a);
    rng.Shuffle(&b);
    // Brute force discordant pair count.
    std::vector<size_t> pos_a(12), pos_b(12);
    for (size_t i = 0; i < 12; ++i) {
      pos_a[a[i]] = i;
      pos_b[b[i]] = i;
    }
    double brute = 0;
    for (Item i = 0; i < 12; ++i) {
      for (Item j = i + 1; j < 12; ++j) {
        if ((pos_a[i] < pos_a[j]) != (pos_b[i] < pos_b[j])) brute += 1.0;
      }
    }
    EXPECT_DOUBLE_EQ(
        KendallTauFull(a, b, /*normalized=*/false).ValueOrDie(), brute);
  }
}

TEST(KendallTauFullTest, RejectsBadInput) {
  EXPECT_FALSE(KendallTauFull({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(KendallTauFull({1, 1}, {1, 2}).ok());
  EXPECT_FALSE(KendallTauFull({1, 2}, {1, 3}).ok());  // different item sets
}

// ----------------------------------------------------------- Kendall top-ℓ ---

TEST(KendallTauTopLTest, IdenticalListsZero) {
  EXPECT_DOUBLE_EQ(KendallTauTopL({5, 9, 2}, {5, 9, 2}).ValueOrDie(), 0.0);
}

TEST(KendallTauTopLTest, DisjointListsOne) {
  // Completely disjoint top-ℓ lists are at the maximum distance.
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {4, 5, 6}).ValueOrDie(), 1.0);
}

TEST(KendallTauTopLTest, HandComputedFourCases) {
  // a = [1,2,3], b = [1,3,4], p = 0.5.
  // Pairs over union {1,2,3,4}:
  //  {1,2}: both in a (1≺2); only 1 in b → case 2, 1 ahead: penalty 0.
  //  {1,3}: in both, same order: 0.
  //  {1,4}: both in b (1≺4); only 1 in a → case 2: 0.
  //  {2,3}: both in a (2≺3); only 3 in b → case 2, present item 3 must be
  //         ahead but a says 2≺3: penalty 1.
  //  {2,4}: 2 only in a, 4 only in b → case 3: penalty 1.
  //  {3,4}: both in b (3≺4); only 3 in a → case 2: 0.
  // Total = 2; normalizer = ℓ² + ℓ(ℓ−1)p = 9 + 3 = 12.
  TopLKendallOptions opts;
  opts.normalized = false;
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {1, 3, 4}, opts).ValueOrDie(),
                   2.0);
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {1, 3, 4}).ValueOrDie(),
                   2.0 / 12.0);
}

TEST(KendallTauTopLTest, PenaltyParameterMatters) {
  // Lists sharing no order info within their exclusive tails.
  TopLKendallOptions p0;
  p0.p = 0.0;
  p0.normalized = false;
  TopLKendallOptions p1;
  p1.p = 1.0;
  p1.normalized = false;
  const RankedList a = {1, 2, 3};
  const RankedList b = {4, 5, 6};
  // Case-4 pairs: {1,2},{1,3},{2,3},{4,5},{4,6},{5,6} = 6 pairs; case-3: 9.
  EXPECT_DOUBLE_EQ(KendallTauTopL(a, b, p0).ValueOrDie(), 9.0);
  EXPECT_DOUBLE_EQ(KendallTauTopL(a, b, p1).ValueOrDie(), 15.0);
}

TEST(KendallTauTopLTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(KendallTauTopL({1, 2, 3}, {3, 5, 1}).ValueOrDie(),
                   KendallTauTopL({3, 5, 1}, {1, 2, 3}).ValueOrDie());
}

TEST(KendallTauTopLTest, ValueInUnitInterval) {
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    RankedList a, b;
    for (Item i = 0; i < 10; ++i) {
      a.push_back(static_cast<Item>(rng.UniformInt(1000) + 1000 * i));
      b.push_back(static_cast<Item>(rng.UniformInt(1000) + 1000 * i + 500));
    }
    const double d = KendallTauTopL(a, b).ValueOrDie();
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(KendallTauTopLTest, RejectsBadInput) {
  EXPECT_FALSE(KendallTauTopL({}, {}).ok());
  EXPECT_FALSE(KendallTauTopL({1, 2}, {1, 2, 3}).ok());
  EXPECT_FALSE(KendallTauTopL({1, 1}, {1, 2}).ok());
  TopLKendallOptions bad;
  bad.p = 1.5;
  EXPECT_FALSE(KendallTauTopL({1, 2}, {3, 4}, bad).ok());
}

// -------------------------------------------------------- preference matrix ---

TEST(PreferenceMatrixTest, CountsPairwiseVotes) {
  const PreferenceMatrix m = Pm({{1, 2, 3}, {2, 1, 3}, {1, 3, 2}});
  ASSERT_EQ(m.items(), (RankedList{1, 2, 3}));  // slot x is items()[x]
  EXPECT_DOUBLE_EQ(m.Votes(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.Votes(1, 0), 1.0);
  EXPECT_TRUE(m.Beats(0, 1));
  EXPECT_FALSE(m.Beats(1, 0));
  EXPECT_DOUBLE_EQ(m.Votes(0, 2), 3.0);
}

TEST(PreferenceMatrixTest, PresentBeatsAbsent) {
  const PreferenceMatrix m = Pm({{1, 2}, {3, 4}});
  ASSERT_EQ(m.items(), (RankedList{1, 2, 3, 4}));
  // 1 present only in list 1, 3 present only in list 2: one vote each way.
  EXPECT_DOUBLE_EQ(m.Votes(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.Votes(2, 0), 1.0);
}

TEST(PreferenceMatrixTest, WeightsScaleVotes) {
  const PreferenceMatrix m = Pm({{1, 2}, {2, 1}}, {3.0, 1.0});
  EXPECT_DOUBLE_EQ(m.Votes(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.Votes(1, 0), 1.0);
  EXPECT_TRUE(m.Beats(0, 1));
}

TEST(PreferenceMatrixTest, RejectsBadInput) {
  EXPECT_FALSE(PreferenceMatrix::Build({}, {}).ok());
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 2}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 1}}, {}).ok());
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 2}}, {-1.0}).ok());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kInf, -kInf, std::nan("")}) {
    EXPECT_FALSE(PreferenceMatrix::Build({{1, 2}, {2, 1}}, {1.0, bad}).ok())
        << bad;
    EXPECT_FALSE(
        PreferenceMatrix::Validate({{1, 2}, {2, 1}}, {1.0, bad}).ok())
        << bad;
  }
  // An empty list is rejected here, and so by every consumer of the matrix
  // (Copeland, Local Kemenization, the Kemeny functions) and by Borda.
  EXPECT_FALSE(PreferenceMatrix::Build({{1, 2}, {}}, {}).ok());
  EXPECT_FALSE(WeightedBordaScores({{1, 2}, {}}, {}).ok());
}

// --------------------------------------------------------------- vote rows ---

// The former m×m tally, kept here as the reference: each cell receives w_j
// for every list j ranking x ahead of y, in list order.
std::vector<double> ReferenceTally(const std::vector<RankedList>& lists,
                                   const std::vector<double>& weights,
                                   const RankedList& items) {
  const size_t m = items.size();
  std::vector<double> tally(m * m, 0.0);
  constexpr size_t kAbsent = static_cast<size_t>(-1);
  std::vector<size_t> rank_of(m);
  for (size_t j = 0; j < lists.size(); ++j) {
    const double w = weights.empty() ? 1.0 : weights[j];
    if (w == 0.0) continue;
    std::fill(rank_of.begin(), rank_of.end(), kAbsent);
    for (size_t r = 0; r < lists[j].size(); ++r) {
      rank_of[std::find(items.begin(), items.end(), lists[j][r]) -
              items.begin()] = r;
    }
    for (size_t x = 0; x < m; ++x) {
      for (size_t y = x + 1; y < m; ++y) {
        const size_t rx = rank_of[x], ry = rank_of[y];
        if (rx == kAbsent && ry == kAbsent) continue;
        if (ry == kAbsent || (rx != kAbsent && rx < ry)) {
          tally[x * m + y] += w;
        } else {
          tally[y * m + x] += w;
        }
      }
    }
  }
  return tally;
}

// Ragged top-ℓ lists over a shuffled universe, weighted per `mode`:
// 0 random with some zeros, 1 all equal (empty weights), 2 all zero.
struct VoteCase {
  std::vector<RankedList> lists;
  std::vector<double> weights;
};

VoteCase RandomVoteCase(size_t num_lists, size_t universe_size, int mode,
                        Rng* rng) {
  RankedList universe(universe_size);
  for (size_t i = 0; i < universe.size(); ++i) {
    universe[i] = static_cast<Item>(3 * i + rng->UniformInt(3));
  }
  VoteCase c;
  for (size_t j = 0; j < num_lists; ++j) {
    rng->Shuffle(&universe);
    c.lists.emplace_back(universe.begin(),
                         universe.begin() + 1 + rng->UniformInt(universe_size));
    if (mode == 0) {
      c.weights.push_back(rng->UniformInt(4) == 0 ? 0.0
                                                  : rng->Uniform(0.0, 3.0));
    } else if (mode == 2) {
      c.weights.push_back(0.0);
    }
  }
  return c;
}

// The rank rows PreferenceMatrix keeps: one padded row per nonzero-weight
// list.
struct RankRows {
  size_t stride = 0;
  std::vector<uint32_t> ranks;
  std::vector<double> weights;
};

RankRows BuildRankRows(const VoteCase& c, const RankedList& items) {
  RankRows rows;
  rows.stride = (items.size() + internal::kVoteBlock - 1) /
                internal::kVoteBlock * internal::kVoteBlock;
  for (size_t j = 0; j < c.lists.size(); ++j) {
    const double w = c.weights.empty() ? 1.0 : c.weights[j];
    if (w == 0.0) continue;
    const size_t base = rows.ranks.size();
    rows.ranks.resize(base + rows.stride, internal::kAbsentRank);
    for (size_t r = 0; r < c.lists[j].size(); ++r) {
      const size_t slot =
          std::find(items.begin(), items.end(), c.lists[j][r]) - items.begin();
      rows.ranks[base + slot] = static_cast<uint32_t>(r);
    }
    rows.weights.push_back(w);
  }
  return rows;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every vote-row kernel, the public Votes/VoteRows and the tally agree bit
// for bit: L ∈ {1, 2, 5, 10, 20}, unions of every size mod the block width,
// lists of unequal length, and random, equal and all-zero weights.
TEST(VoteKernelTest, RowsMatchScalarAndTallyBitForBit) {
  std::vector<std::pair<const char*, internal::VoteRowKernel>> kernels = {
      {"scalar", internal::VoteRowsScalar}};
  if (util::CpuHasAvx2() && internal::Avx2VoteRows() != nullptr) {
    kernels.emplace_back("avx2", internal::Avx2VoteRows());
  }
  Rng rng(20);
  std::set<size_t> residues;
  for (size_t num_lists : {1, 2, 5, 10, 20}) {
    for (int mode : {0, 1, 2}) {
      for (size_t universe : {7, 30, 61, 126}) {
        const VoteCase c = RandomVoteCase(num_lists, universe, mode, &rng);
        const PreferenceMatrix pm = Pm(c.lists, c.weights);
        const RankedList& items = pm.items();
        const size_t m = items.size();
        residues.insert(m % internal::kVoteBlock);
        const std::vector<double> tally =
            ReferenceTally(c.lists, c.weights, items);
        const RankRows rows = BuildRankRows(c, items);
        ASSERT_EQ(pm.row_stride(), rows.stride);
        std::vector<double> f(rows.stride), a(rows.stride);
        for (size_t x = 0; x < m; ++x) {
          for (size_t y = 0; y < m; ++y) {
            ASSERT_EQ(Bits(pm.Votes(x, y)), Bits(tally[x * m + y]))
                << "L " << num_lists << " m " << m << " x " << x << " y " << y;
          }
          const size_t tail = (x + 1) / internal::kVoteBlock *
                              internal::kVoteBlock;
          for (const auto& [name, kernel] : kernels) {
            for (size_t first : {size_t{0}, tail}) {
              std::fill(f.begin(), f.end(), -1.0);
              std::fill(a.begin(), a.end(), -1.0);
              kernel(rows.ranks.data(), rows.stride, rows.weights.data(),
                     rows.weights.size(), x, first, f.data(), a.data());
              for (size_t y = 0; y < first; ++y) {
                ASSERT_EQ(f[y], -1.0) << name << " wrote below first";
              }
              for (size_t y = first; y < m; ++y) {
                ASSERT_EQ(Bits(f[y]), Bits(tally[x * m + y]))
                    << name << " L " << num_lists << " m " << m << " x " << x
                    << " y " << y;
                ASSERT_EQ(Bits(a[y]), Bits(tally[y * m + x]))
                    << name << " L " << num_lists << " m " << m << " x " << x
                    << " y " << y;
              }
            }
          }
          pm.VoteRows(x, 0, f.data(), a.data());
          for (size_t y = 0; y < m; ++y) {
            ASSERT_EQ(Bits(f[y]), Bits(tally[x * m + y]));
            ASSERT_EQ(Bits(a[y]), Bits(tally[y * m + x]));
          }
        }
      }
    }
  }
  EXPECT_EQ(residues.size(), internal::kVoteBlock)
      << "every union size mod the block width must be covered";
}

TEST(VoteKernelTest, ForceScalarResolvesTheReferenceLoop) {
  EXPECT_EQ(internal::ResolveVoteRowKernel(true), &internal::VoteRowsScalar);
  if (util::CpuHasAvx2() && internal::Avx2VoteRows() != nullptr) {
    EXPECT_EQ(internal::ResolveVoteRowKernel(false), internal::Avx2VoteRows());
  }
}

// ---------------------------------------------------------------- Borda ---

TEST(BordaTest, UnweightedKnownExample) {
  // Lists over {a=1,b=2,c=3}: ℓ = 3; scores: rank r gets ℓ − r.
  auto scores = WeightedBordaScores({{1, 2, 3}, {2, 1, 3}}, {});
  ASSERT_TRUE(scores.ok());
  // Union order: 1, 2, 3.
  // 1: (3−0) + (3−1) = 5;  2: (3−1)+(3−0) = 5;  3: 1+1 = 2.
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[0], 5.0);
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[1], 5.0);
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[2], 2.0);
}

TEST(BordaTest, WeightsShiftTheWinner) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}};
  auto unweighted = WeightedBordaScores(lists, {});
  ASSERT_TRUE(unweighted.ok());
  EXPECT_DOUBLE_EQ(unweighted.ValueOrDie()[0], unweighted.ValueOrDie()[1]);
  auto weighted = WeightedBordaScores(lists, {5.0, 1.0});
  ASSERT_TRUE(weighted.ok());
  EXPECT_GT(weighted.ValueOrDie()[0], weighted.ValueOrDie()[1]);  // item 1 wins
}

TEST(BordaTest, AbsentItemContributesNothing) {
  auto scores = WeightedBordaScores({{1, 2}, {3, 4}}, {});
  ASSERT_TRUE(scores.ok());
  // Every item appears in exactly one list at symmetric positions.
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[0], scores.ValueOrDie()[2]);  // 1 vs 3
  EXPECT_DOUBLE_EQ(scores.ValueOrDie()[1], scores.ValueOrDie()[3]);  // 2 vs 4
}

// --------------------------------------------------------------- Copeland ---

TEST(CopelandTest, CondorcetWinnerGetsTopScore) {
  // Item 1 beats every other item in a majority of lists.
  const auto scores =
      WeightedCopelandScores(Pm({{1, 2, 3}, {1, 3, 2}, {2, 1, 3}}));
  EXPECT_DOUBLE_EQ(scores[0], 2.0);  // item 1 beats 2 and 3
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[0], scores[2]);
}

TEST(CopelandTest, WeightedMajorityFlips) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}, {2, 1}};
  const auto unweighted = WeightedCopelandScores(Pm(lists));
  EXPECT_GT(unweighted[1], unweighted[0]);
  // Give the first list overwhelming weight: item 1 now wins.
  const auto weighted = WeightedCopelandScores(Pm(lists, {10.0, 1.0, 1.0}));
  EXPECT_GT(weighted[0], weighted[1]);
}

// ------------------------------------------------------ local kemenization ---

// Local-Kemenizes `tau`, a ranking of items of `pm`'s union, through the
// slot form AggregateRankings runs.
RankedList Kemenize(const PreferenceMatrix& pm, const RankedList& tau) {
  std::vector<size_t> slots(tau.size());
  for (size_t i = 0; i < tau.size(); ++i) slots[i] = SlotOf(pm, tau[i]);
  LocalKemenization(pm, &slots);
  RankedList out(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) out[i] = pm.items()[slots[i]];
  return out;
}

TEST(LocalKemenizationTest, FixesObviousInversion) {
  const PreferenceMatrix pm = Pm({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
  EXPECT_EQ(Kemenize(pm, {3, 2, 1}), (RankedList{1, 2, 3}));
}

TEST(LocalKemenizationTest, NeverWorsensKemenyObjective) {
  Rng rng(11);
  for (int t = 0; t < 40; ++t) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 4; ++j) {
      RankedList l(8);
      std::iota(l.begin(), l.end(), 0u);
      rng.Shuffle(&l);
      l.resize(5);
      lists.push_back(l);
    }
    RankedList tau = UnionOfLists(lists);
    rng.Shuffle(&tau);
    const double before = KemenyObjective(tau, lists, {}).ValueOrDie();
    const RankedList improved = Kemenize(Pm(lists), tau);
    const double after = KemenyObjective(improved, lists, {}).ValueOrDie();
    EXPECT_LE(after, before + 1e-9) << "trial " << t;
  }
}

TEST(LocalKemenizationTest, ResultIsLocallyOptimal) {
  Rng rng(13);
  for (int t = 0; t < 20; ++t) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 3; ++j) {
      RankedList l(6);
      std::iota(l.begin(), l.end(), 0u);
      rng.Shuffle(&l);
      lists.push_back(l);
    }
    RankedList tau(6);
    std::iota(tau.begin(), tau.end(), 0u);
    rng.Shuffle(&tau);
    const PreferenceMatrix pm = Pm(lists);
    tau = Kemenize(pm, tau);
    // No adjacent pair should be majority-inverted.
    for (size_t i = 0; i + 1 < tau.size(); ++i) {
      EXPECT_FALSE(pm.Beats(SlotOf(pm, tau[i + 1]), SlotOf(pm, tau[i])))
          << "trial " << t << " position " << i;
    }
  }
}

// ------------------------------------------------------------- aggregation ---

TEST(AggregateRankingsTest, ReturnsTopK) {
  const std::vector<RankedList> lists = {{1, 2, 3, 4}, {2, 1, 3, 5}};
  AggregationOptions opts;
  auto r = AggregateRankings(lists, {}, 3, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().size(), 3u);
}

TEST(AggregateRankingsTest, KLargerThanUnionReturnsUnion) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 3}};
  auto r = AggregateRankings(lists, {}, 100, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().size(), 3u);  // union is {1,2,3}
}

TEST(AggregateRankingsTest, PerfectConsensusIsRecovered) {
  const RankedList consensus = {7, 3, 9, 1, 5};
  const std::vector<RankedList> lists(4, consensus);
  for (auto method : {AggregationMethod::kBorda, AggregationMethod::kCopeland}) {
    AggregationOptions opts;
    opts.method = method;
    auto r = AggregateRankings(lists, {}, 5, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie(), consensus);
  }
}

TEST(AggregateRankingsTest, WeightsPullTowardClosestList) {
  const std::vector<RankedList> lists = {{1, 2, 3}, {4, 5, 6}, {4, 6, 5}};
  AggregationOptions opts;
  opts.method = AggregationMethod::kCopeland;
  // Dominant weight on the first list: its items must lead the output.
  auto r = AggregateRankings(lists, {100.0, 1.0, 1.0}, 3, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), (RankedList{1, 2, 3}));
}

TEST(AggregateRankingsTest, UnweightedOptionIgnoresWeights) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}, {2, 1}};
  AggregationOptions opts;
  opts.use_weights = false;
  auto r = AggregateRankings(lists, {100.0, 1.0, 1.0}, 2, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie()[0], 2u);  // majority wins despite the weights
}

TEST(AggregateRankingsTest, DeterministicOnTies) {
  const std::vector<RankedList> lists = {{1, 2}, {2, 1}};
  auto a = AggregateRankings(lists, {}, 2, {});
  auto b = AggregateRankings(lists, {}, 2, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie());
}

TEST(AggregateRankingsTest, AggregationApproximatesKemeny) {
  // The aggregated list should score no worse on the Kemeny objective than
  // the best single input list (a weak but meaningful quality bar).
  Rng rng(17);
  for (int t = 0; t < 20; ++t) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 5; ++j) {
      RankedList l(10);
      std::iota(l.begin(), l.end(), 0u);
      // Mild perturbations of a common base order.
      for (int s = 0; s < 3; ++s) {
        const size_t i = rng.UniformInt(9);
        std::swap(l[i], l[i + 1]);
      }
      lists.push_back(l);
    }
    AggregationOptions opts;
    opts.method = AggregationMethod::kCopeland;
    auto agg = AggregateRankings(lists, {}, 10, opts);
    ASSERT_TRUE(agg.ok());
    const double agg_cost =
        KemenyObjective(agg.ValueOrDie(), lists, {}).ValueOrDie();
    double best_single = 1e9;
    for (const auto& l : lists) {
      best_single =
          std::min(best_single, KemenyObjective(l, lists, {}).ValueOrDie());
    }
    EXPECT_LE(agg_cost, best_single + 1e-9) << "trial " << t;
  }
}

// Every AggregateRankings configuration, pinned bit-for-bit: seeded random
// instances (ragged top-ℓ lists over a shared universe, random weights with
// some zeros, random k) are folded into one FNV-1a digest per configuration.
// The constants were recorded in the default (non-INFLEX_NATIVE) build, like
// QUALITY_report.json; a refactor of the rank layer must reproduce them.
TEST(AggregateRankingsTest, AllConfigurationsMatchPinnedDigests) {
#ifdef __FMA__
  // -march=native lets the compiler fuse weighted Borda's multiply-adds,
  // which can change the scores the constants were recorded from.
  GTEST_SKIP() << "digests are pinned for builds without FMA contraction";
#endif
  struct Pinned {
    AggregationMethod method;
    bool local_kemenization;
    bool use_weights;
    uint64_t digest;
  };
  const Pinned pinned[] = {
      {AggregationMethod::kBorda, false, false, 0x82b13c9978f447fdULL},
      {AggregationMethod::kBorda, false, true, 0x8470e264b85ce549ULL},
      {AggregationMethod::kBorda, true, false, 0x96cf4030c1f9c293ULL},
      {AggregationMethod::kBorda, true, true, 0xb1ade2d6a41753b8ULL},
      {AggregationMethod::kCopeland, false, false, 0xac687a0ed584226cULL},
      {AggregationMethod::kCopeland, false, true, 0x4145a8e9762b8593ULL},
      {AggregationMethod::kCopeland, true, false, 0x1e78fa6995a61d25ULL},
      {AggregationMethod::kCopeland, true, true, 0xc3b15249adc05f21ULL},
  };
  for (const Pinned& config : pinned) {
    AggregationOptions opts;
    opts.method = config.method;
    opts.local_kemenization = config.local_kemenization;
    opts.use_weights = config.use_weights;
    Rng rng(2014);
    uint64_t digest = 0xcbf29ce484222325ULL;
    const auto fold = [&digest](uint64_t v) {
      digest = (digest ^ v) * 0x100000001b3ULL;
    };
    for (int t = 0; t < 200; ++t) {
      RankedList universe(10 + rng.UniformInt(60));
      for (size_t i = 0; i < universe.size(); ++i) {
        universe[i] = static_cast<Item>(7 * i + rng.UniformInt(7));
      }
      std::vector<RankedList> lists(1 + rng.UniformInt(12));
      std::vector<double> weights(lists.size());
      const size_t ell =
          1 + rng.UniformInt(std::min<size_t>(25, universe.size()));
      for (size_t j = 0; j < lists.size(); ++j) {
        rng.Shuffle(&universe);
        lists[j].assign(universe.begin(),
                        universe.begin() + 1 + rng.UniformInt(ell));
        weights[j] = rng.UniformInt(8) == 0 ? 0.0 : rng.Uniform(0.0, 3.0);
      }
      const size_t k = 1 + rng.UniformInt(UnionOfLists(lists).size() + 5);
      auto r = AggregateRankings(lists, weights, k, opts);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      fold(r.ValueOrDie().size());
      for (Item v : r.ValueOrDie()) fold(v);
    }
    EXPECT_EQ(digest, config.digest)
        << "method " << static_cast<int>(config.method) << " lk "
        << config.local_kemenization << " weights " << config.use_weights
        << std::hex << " digest 0x" << digest;
  }
}

TEST(AggregateRankingsTest, RejectsBadInput) {
  EXPECT_FALSE(AggregateRankings({}, {}, 3, {}).ok());
  EXPECT_FALSE(AggregateRankings({{1, 2}}, {}, 0, {}).ok());
  EXPECT_FALSE(AggregateRankings({{1, 1}}, {}, 2, {}).ok());
  EXPECT_FALSE(AggregateRankings({{1, 2}}, {1.0, 2.0}, 2, {}).ok());
  for (auto method : {AggregationMethod::kBorda, AggregationMethod::kCopeland}) {
    for (bool lk : {false, true}) {
      AggregationOptions opts;
      opts.method = method;
      opts.local_kemenization = lk;
      EXPECT_FALSE(AggregateRankings({{1, 2}, {}}, {}, 2, opts).ok())
          << static_cast<int>(method) << " lk " << lk;
      for (double bad : {std::numeric_limits<double>::infinity(),
                         std::nan("")}) {
        EXPECT_FALSE(
            AggregateRankings({{1, 2}, {2, 1}}, {bad, 1.0}, 2, opts).ok())
            << static_cast<int>(method) << " lk " << lk << " w " << bad;
      }
    }
  }
}

// A method outside the enum is rejected before the context is read. On a
// fresh thread the thread_local context holds no scores for TopK to sort
// by; a context that served an earlier call holds stale ones.
TEST(AggregateRankingsTest, RejectsUnknownMethodOnAFreshThread) {
  AggregationOptions unknown;
  unknown.method = static_cast<AggregationMethod>(2);
  const std::vector<RankedList> lists = {{1, 2, 3}, {3, 2, 1}, {2, 1, 3}};
  Status fresh;
  std::thread([&] {
    fresh = AggregateRankings(lists, {}, 3, unknown).status();
  }).join();
  EXPECT_EQ(fresh.code(), StatusCode::kInvalidArgument);

  AggregationContext ctx;
  ASSERT_TRUE(AggregateRankings(lists, {}, 3, {}, &ctx).ok());
  EXPECT_EQ(AggregateRankings({{4, 5}}, {}, 2, unknown, &ctx).status().code(),
            StatusCode::kInvalidArgument);
}

// One context serves a large union, then a small one: the small call
// releases the large scratch, and every answer equals a fresh context's.
TEST(AggregationContextTest, RetainedCapacityFollowsTheInput) {
  Rng rng(31);
  const VoteCase large = RandomVoteCase(20, 600, 0, &rng);
  const VoteCase small = RandomVoteCase(3, 8, 0, &rng);
  for (auto method : {AggregationMethod::kBorda, AggregationMethod::kCopeland}) {
    AggregationOptions opts;
    opts.method = method;
    AggregationContext ctx;
    const auto fresh = [&](const VoteCase& c) {
      AggregationContext once;
      return AggregateRankings(c.lists, c.weights, 50, opts, &once)
          .ValueOrDie();
    };
    EXPECT_EQ(AggregateRankings(large.lists, large.weights, 50, opts, &ctx)
                  .ValueOrDie(),
              fresh(large));
    const size_t after_large = ctx.retained_bytes();
    EXPECT_EQ(AggregateRankings(small.lists, small.weights, 50, opts, &ctx)
                  .ValueOrDie(),
              fresh(small));
    const size_t after_small = ctx.retained_bytes();
    EXPECT_LT(after_small, after_large / 20)
        << static_cast<int>(method) << ": " << after_small << " of "
        << after_large << " bytes kept";
    EXPECT_LT(after_small, size_t{8192}) << static_cast<int>(method);
    // A second large call on the bounded context, and the thread_local one.
    EXPECT_EQ(AggregateRankings(large.lists, large.weights, 50, opts, &ctx)
                  .ValueOrDie(),
              fresh(large));
    EXPECT_EQ(AggregateRankings(large.lists, large.weights, 50, opts)
                  .ValueOrDie(),
              fresh(large));
  }
}

TEST(KemenyObjectiveTest, ZeroForIdenticalInput) {
  const RankedList l = {4, 2, 9};
  EXPECT_DOUBLE_EQ(KemenyObjective(l, {l, l}, {}).ValueOrDie(), 0.0);
}

// ------------------------------------------------------------ exact Kemeny ---

TEST(ExactKemenyTest, ConsensusHasZeroCost) {
  const RankedList l = {3, 1, 4, 2};
  const PreferenceMatrix pm = Pm({l, l, l});
  auto r = ExactKemenyAggregate(pm);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), l);
  EXPECT_DOUBLE_EQ(PairwiseKemenyCost(l, pm).ValueOrDie(), 0.0);
}

TEST(ExactKemenyTest, MatchesBruteForceOnSmallInstances) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 5; ++j) {
      RankedList l(5);
      std::iota(l.begin(), l.end(), 10u);
      rng.Shuffle(&l);
      lists.push_back(l);
    }
    const PreferenceMatrix pm = Pm(lists);
    auto dp = ExactKemenyAggregate(pm);
    ASSERT_TRUE(dp.ok());
    const double dp_cost = PairwiseKemenyCost(dp.ValueOrDie(), pm).ValueOrDie();
    // Brute force over all 5! permutations.
    RankedList perm = {10, 11, 12, 13, 14};
    double best = 1e18;
    std::sort(perm.begin(), perm.end());
    do {
      best = std::min(best, PairwiseKemenyCost(perm, pm).ValueOrDie());
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(dp_cost, best, 1e-9) << "trial " << trial;
  }
}

TEST(ExactKemenyTest, NeverWorseThanHeuristicAggregators) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RankedList> lists;
    for (int j = 0; j < 4; ++j) {
      RankedList l(9);
      std::iota(l.begin(), l.end(), 0u);
      rng.Shuffle(&l);
      lists.push_back(l);
    }
    const PreferenceMatrix pm = Pm(lists);
    auto exact = ExactKemenyAggregate(pm);
    ASSERT_TRUE(exact.ok());
    const double optimum =
        PairwiseKemenyCost(exact.ValueOrDie(), pm).ValueOrDie();
    for (auto method :
         {AggregationMethod::kBorda, AggregationMethod::kCopeland}) {
      AggregationOptions opts;
      opts.method = method;
      auto heur = AggregateRankings(lists, {}, 9, opts);
      ASSERT_TRUE(heur.ok());
      const double cost =
          PairwiseKemenyCost(heur.ValueOrDie(), pm).ValueOrDie();
      EXPECT_GE(cost + 1e-9, optimum) << static_cast<int>(method);
      // Sanity against the cited approximation bounds: nothing remotely
      // near-optimal should blow past 5x on mild random instances.
      if (optimum > 0.0) {
        EXPECT_LE(cost, 5.0 * optimum + 1e-9) << static_cast<int>(method);
      }
    }
  }
}

TEST(ExactKemenyTest, WeightedInstanceFollowsDominantList) {
  const std::vector<RankedList> lists = {{1, 2, 3}, {3, 2, 1}, {3, 2, 1}};
  auto unweighted = ExactKemenyAggregate(Pm(lists));
  ASSERT_TRUE(unweighted.ok());
  EXPECT_EQ(unweighted.ValueOrDie(), (RankedList{3, 2, 1}));
  auto weighted = ExactKemenyAggregate(Pm(lists, {10.0, 1.0, 1.0}));
  ASSERT_TRUE(weighted.ok());
  EXPECT_EQ(weighted.ValueOrDie(), (RankedList{1, 2, 3}));
}

TEST(ExactKemenyTest, RejectsOversizedUnions) {
  RankedList big(25);
  std::iota(big.begin(), big.end(), 0u);
  EXPECT_FALSE(ExactKemenyAggregate(Pm({big})).ok());
  RankedList ok_list(10);
  std::iota(ok_list.begin(), ok_list.end(), 0u);
  EXPECT_FALSE(
      ExactKemenyAggregate(Pm({ok_list}), /*max_union_size=*/5).ok());
}

TEST(PairwiseKemenyCostTest, Validation) {
  const PreferenceMatrix pm = Pm({{1, 2, 3}});
  EXPECT_FALSE(PairwiseKemenyCost({1, 2}, pm).ok());  // subset
  EXPECT_FALSE(PairwiseKemenyCost({1, 2, 9}, pm).ok());
  EXPECT_FALSE(PairwiseKemenyCost({1, 2, 2}, pm).ok());
}

}  // namespace
}  // namespace rank
}  // namespace inflex

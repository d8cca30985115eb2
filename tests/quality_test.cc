// Tests for the golden relevance corpus + scorer (src/quality): the
// committed corpus loads and is well-formed, scoring is bit-deterministic,
// the full per-backend golden replay reproduces the committed
// QUALITY_report.json byte-for-byte (ctest also runs that case under
// INFLEX_FORCE_SCALAR=1 — the scalar kernels must not change a single
// byte of the report), and a deliberately degraded index fails the gate
// (the CI quality gate actually has teeth).
//
// The corpus and baseline paths are compiled in from the source tree
// (INFLEX_CORPUS_FILE / INFLEX_QUALITY_BASELINE, set by tests/CMakeLists).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "inflex/inflex_index.h"
#include "oracle/spread_oracle.h"
#include "quality/corpus.h"
#include "quality/json.h"
#include "quality/scorer.h"
#include "rank/ranked_list.h"

namespace inflex {
namespace {

using quality::RelevanceCorpus;

quality::RelevanceCorpus LoadCommitted() {
  auto corpus = quality::LoadCorpus(INFLEX_CORPUS_FILE);
  EXPECT_TRUE(corpus.ok()) << corpus.status().message();
  return std::move(corpus).ValueOrDie();
}

TEST(QualityCorpusTest, CommittedCorpusIsWellFormed) {
  RelevanceCorpus corpus = LoadCommitted();
  EXPECT_EQ(corpus.name, "golden_v1");
  EXPECT_EQ(corpus.version, 1);
  EXPECT_GE(corpus.queries.size(), 15u);

  // Every category of the taxonomy is represented and has a threshold.
  std::set<std::string> seen;
  for (const auto& q : corpus.queries) {
    seen.insert(q.category);
    EXPECT_FALSE(q.id.empty());
    EXPECT_GT(q.k, 0u);
    EXPECT_EQ(q.golden_seeds.size(), q.k) << q.id;
    EXPECT_GT(q.golden_spread, 0.0) << q.id;
    if (q.category == quality::kCategorySegmentRestricted) {
      EXPECT_FALSE(q.segment.empty()) << q.id;
      // Segment queries must be answerable: golden seeds inside the segment.
      std::set<graph::NodeId> segment(q.segment.begin(), q.segment.end());
      for (graph::NodeId s : q.golden_seeds) {
        EXPECT_TRUE(segment.count(s)) << q.id << " golden seed " << s
                                      << " outside its segment";
      }
    }
  }
  for (const auto& category : quality::AllCorpusCategories()) {
    EXPECT_TRUE(seen.count(std::string(category)))
        << "category " << category << " has no queries";
    EXPECT_TRUE(corpus.ThresholdFor(std::string(category)).ok())
        << "category " << category << " has no threshold";
  }
}

TEST(QualityScorerTest, ScoringIsDeterministicWithinProcess) {
  RelevanceCorpus corpus = LoadCommitted();
  auto world = quality::BuildCorpusWorld(corpus);
  ASSERT_TRUE(world.ok()) << world.status().message();

  const std::vector<oracle::OracleBackend> backends = {
      oracle::OracleBackend::kCelfPp};
  auto first = quality::ScoreCorpus(world.ValueOrDie(), corpus, backends);
  auto second = quality::ScoreCorpus(world.ValueOrDie(), corpus, backends);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(quality::ReportToJson(first.ValueOrDie()).Dump(),
            quality::ReportToJson(second.ValueOrDie()).Dump());
}

// The full golden replay: every backend, every category, refereed against
// the committed corpus — and the rendered report must match the committed
// QUALITY_report.json byte-for-byte (both sides canonicalized through
// Dump(), so on-disk indentation is immaterial). ctest registers a second
// run of this case with INFLEX_FORCE_SCALAR=1: kernel dispatch must not
// leak into relevance results.
TEST(QualityScorerTest, GoldenReplayMatchesCommittedBaseline) {
  RelevanceCorpus corpus = LoadCommitted();
  auto world = quality::BuildCorpusWorld(corpus);
  ASSERT_TRUE(world.ok()) << world.status().message();

  const std::vector<oracle::OracleBackend> backends = {
      oracle::OracleBackend::kCelfPp, oracle::OracleBackend::kRis};
  auto report = quality::ScoreCorpus(world.ValueOrDie(), corpus, backends);
  ASSERT_TRUE(report.ok()) << report.status().message();

  EXPECT_TRUE(report.ValueOrDie().passed);
  for (const auto& backend : report.ValueOrDie().backends) {
    EXPECT_TRUE(backend.scenario_ok) << backend.backend;
    EXPECT_TRUE(backend.passed) << backend.backend;
    for (const auto& category : backend.categories) {
      EXPECT_TRUE(category.passed)
          << backend.backend << "/" << category.category;
    }
  }

  auto baseline = quality::LoadJsonFile(INFLEX_QUALITY_BASELINE);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();
  EXPECT_EQ(quality::ReportToJson(report.ValueOrDie()).Dump(),
            baseline.ValueOrDie().Dump())
      << "scored report drifted from the committed QUALITY_report.json "
         "baseline; if the change is intentional, regenerate it with "
         "tools/score_relevance";
}

// The acceptance criterion for the gate itself: wreck the index's seed
// lists (keep the same points, so the maintenance scenario replays
// identically) and the gate must fail — in particular the near-index-point
// category, whose floors are the tightest.
TEST(QualityScorerTest, DegradedSeedListsFailTheGate) {
  RelevanceCorpus corpus = LoadCommitted();
  auto world = quality::BuildCorpusWorld(corpus);
  ASSERT_TRUE(world.ok()) << world.status().message();
  const auto& base = *world.ValueOrDie().base_index;

  // Same index points, but every seed list replaced by the first ℓ node
  // ids — arbitrary nodes instead of the CELF++-optimized ranking.
  std::vector<simplex::TopicVector> points;
  std::vector<rank::RankedList> seed_lists;
  rank::RankedList junk;
  for (uint32_t n = 0; n < base.seed_list_length(); ++n) junk.push_back(n);
  for (uint32_t id = 0; id < base.num_index_points(); ++id) {
    points.push_back(base.index_point(id));
    seed_lists.push_back(junk);
  }
  auto degraded = core::InflexIndex::FromParts(
      &world.ValueOrDie().graph(), std::move(points), std::move(seed_lists),
      bbtree::BbTreeOptions{});
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();

  auto report = quality::ScoreBackend(
      world.ValueOrDie(), corpus, oracle::OracleBackend::kCelfPp,
      std::make_shared<core::InflexIndex>(std::move(degraded).ValueOrDie()));
  ASSERT_TRUE(report.ok()) << report.status().message();

  EXPECT_TRUE(report.ValueOrDie().scenario_ok)
      << "degrading seed lists must not disturb the maintenance scenario";
  EXPECT_FALSE(report.ValueOrDie().passed);
  bool near_failed = false;
  for (const auto& category : report.ValueOrDie().categories) {
    if (category.category == quality::kCategoryNearIndexPoint) {
      near_failed = !category.passed;
    }
  }
  EXPECT_TRUE(near_failed)
      << "near-index-point floors did not catch junk seed lists";
}

}  // namespace
}  // namespace inflex

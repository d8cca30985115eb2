// score_relevance — the CI quality gate's runner (DESIGN.md §15).
//
//   score_relevance --corpus tests/corpus/golden_v1.json
//                   [--backends celfpp,ris] [--report out.json]
//       Rebuilds the corpus world, replays the maintenance scenario per
//       backend, scores every corpus query against its golden, writes the
//       deterministic JSON report, and exits non-zero when any backend
//       fails its category floors (the gate).
//
//   score_relevance --init --corpus PATH
//       Builds a fresh corpus from the default world config (scenario
//       deltas, query fixture, exact-CELF++ goldens) and writes it.
//
//   score_relevance --regen --corpus PATH
//       Recomputes the goldens of an existing corpus in place (after a
//       deliberate referee/oracle parameter change; never run to paper over
//       a quality regression).
#include <cstdio>
#include <string>
#include <vector>

#include "oracle/spread_oracle.h"
#include "quality/corpus.h"
#include "quality/json.h"
#include "quality/scorer.h"
#include "util/args.h"

namespace inflex {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "score_relevance: %s\n", status.ToString().c_str());
  return 1;
}

Result<std::vector<oracle::OracleBackend>> ParseBackends(
    const std::string& spec) {
  std::vector<oracle::OracleBackend> backends;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string name =
        spec.substr(start, comma == std::string::npos ? spec.size() - start
                                                      : comma - start);
    if (!name.empty()) {
      INFLEX_ASSIGN_OR_RETURN(oracle::OracleBackend b,
                              oracle::ParseOracleBackend(name));
      backends.push_back(b);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (backends.empty()) {
    return Status::InvalidArgument("--backends lists no backend");
  }
  return backends;
}

int Run(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string corpus_path =
      args.GetString("corpus", "tests/corpus/golden_v1.json");
  const std::string report_path = args.GetString("report", "");
  const std::string backend_spec =
      args.GetString("backends", "celfpp,ris");
  const bool init = args.HasFlag("init");
  const bool regen = args.HasFlag("regen");
  if (Status v = args.Validate(); !v.ok()) return Fail(v);

  if (init) {
    auto corpus = quality::GenerateCorpus();
    if (!corpus.ok()) return Fail(corpus.status());
    if (Status s = quality::SaveCorpus(corpus.ValueOrDie(), corpus_path);
        !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "wrote corpus (%zu queries) to %s\n",
                 corpus.ValueOrDie().queries.size(), corpus_path.c_str());
    return 0;
  }

  auto corpus = quality::LoadCorpus(corpus_path);
  if (!corpus.ok()) return Fail(corpus.status());
  auto world = quality::BuildCorpusWorld(corpus.ValueOrDie());
  if (!world.ok()) return Fail(world.status());

  if (regen) {
    if (Status s = quality::RegenerateGoldens(world.ValueOrDie(),
                                              &corpus.ValueOrDie());
        !s.ok()) {
      return Fail(s);
    }
    if (Status s = quality::SaveCorpus(corpus.ValueOrDie(), corpus_path);
        !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "regenerated goldens for %zu queries in %s\n",
                 corpus.ValueOrDie().queries.size(), corpus_path.c_str());
    return 0;
  }

  auto backends = ParseBackends(backend_spec);
  if (!backends.ok()) return Fail(backends.status());
  auto report = quality::ScoreCorpus(world.ValueOrDie(), corpus.ValueOrDie(),
                                     backends.ValueOrDie());
  if (!report.ok()) return Fail(report.status());

  const quality::JsonValue json = quality::ReportToJson(report.ValueOrDie());
  const std::string text = json.Dump();
  std::fprintf(stdout, "%s\n", text.c_str());
  if (!report_path.empty()) {
    if (Status s = quality::SaveJsonFile(json, report_path); !s.ok()) {
      return Fail(s);
    }
  }

  for (const auto& b : report.ValueOrDie().backends) {
    for (const auto& c : b.categories) {
      std::fprintf(stderr, "%-8s %-20s mean=%.3f min=%.3f overlap=%.3f %s\n",
                   b.backend.c_str(), c.category.c_str(), c.mean_spread_ratio,
                   c.min_spread_ratio, c.mean_seed_overlap,
                   c.passed ? "PASS" : "FAIL");
    }
    if (!b.scenario_ok) {
      std::fprintf(stderr, "%-8s scenario replay drifted (admitted=%llu "
                   "evicted=%llu final_points=%zu)\n",
                   b.backend.c_str(),
                   static_cast<unsigned long long>(b.deltas_admitted),
                   static_cast<unsigned long long>(b.points_evicted),
                   b.final_index_points);
    }
  }
  if (!report.ValueOrDie().passed) {
    std::fprintf(stderr, "QUALITY GATE: FAIL\n");
    return 2;
  }
  std::fprintf(stderr, "QUALITY GATE: PASS\n");
  return 0;
}

}  // namespace
}  // namespace inflex

int main(int argc, char** argv) { return inflex::Run(argc, argv); }

// inflexbench: the repository's end-to-end benchmark. Builds a synthetic
// world from --seed, serves it on loopback with InflexServer, drives one
// workload from this process, checks every answer, and prints one JSON
// result line last:
//   inflexbench --workload cold_inflex|hot_repeat|live_catalog --seed N
//               --seconds S --trace 0|1 [--out DIR]
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from a traced window and an in-process replay). See README.md.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "measure.h"
#include "simplex/kl_kernel_simd.h"
#include "util/thread_pool.h"
#include "workloads.h"
#include "world.h"

namespace {

using namespace inflexbench;  // NOLINT

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The world's seed (the repository test-bed's). --seed drives every
/// workload input; the world itself is fixed, because worlds built from
/// different seeds differ in query cost by more than the metrics' bounds.
constexpr uint64_t kWorldSeed = 20140324;

struct Args {
  RunOptions run;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->run.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->run.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->run.seconds >= 1.0) ||
          args->run.seconds > 60.0) {
        *error = "--seconds must be in [1, 60]";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      args->run.trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  bool known = false;
  for (const auto& w : WorkloadNames()) known = known || w == args->run.workload;
  if (!have_workload || !known) {
    *error = "--workload must name one of cold_inflex, hot_repeat, live_catalog";
    return false;
  }
  if (!have_seed) {
    *error = "--seed must be a non-negative integer";
    return false;
  }
  return true;
}

/// Host facts recorded with every result: numbers from different KL
/// dispatch paths or thread configurations are not comparable.
std::string HostJson(const World& world) {
  const auto& so = world.server_options;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"kl_dispatch\": %s, \"kl_forced_scalar\": %s, "
      "\"build_type\": %s, \"server_io_threads\": %zu, "
      "\"server_workers\": %zu, \"server_max_worker_batch\": %zu, "
      "\"server_queue_high_watermark\": %zu, \"engine_pool_threads\": %zu, "
      "\"maintainer_pool_threads\": 1}",
      std::thread::hardware_concurrency(),
      JsonString(inflex::simplex::ActiveKernelOps().name).c_str(),
      inflex::simplex::ActiveKernelsForcedScalar() ? "true" : "false",
      JsonString(INFLEXBENCH_BUILD_TYPE).c_str(), so.io_threads,
      so.num_workers, so.max_worker_batch, so.queue_high_watermark,
      inflex::ThreadPool::Global().num_threads());
  return buf;
}

std::string MetricsJson(const std::map<std::string, double>& values) {
  std::string s = "{";
  for (const auto& [name, v] : values) {
    if (s.size() > 1) s += ", ";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += JsonString(name) + ": " + buf;
  }
  return s + "}";
}

/// Writes the span trees of the replayed requests — their wire call and
/// their replay — one JSON object per line. The metrics use every span; the
/// file keeps only the requests both halves of the trace cover.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::unordered_set<uint64_t> replayed;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "replay") replayed.insert(s.request);
  }
  std::ofstream f(path);
  for (const Span& s : spans) {
    if (replayed.count(s.request) == 0) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %u, \"parent\": %u, \"request\": %llu, "
                  "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                  s.id, s.parent, static_cast<unsigned long long>(s.request),
                  s.name, s.start_us, s.end_us);
    f << buf;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "inflexbench: %s\n", error.c_str());
    return 2;
  }
  const RunOptions& run = args.run;
  NowMicros();  // fix the clock base

  // Set up kSetupRepeats times from the same seed; each earlier world is
  // torn down first, so memory holds one world at a time. The indexes must
  // be bit-identical (the offline phase is deterministic).
  std::vector<SetupTimes> times;
  std::unique_ptr<World> world;
  std::shared_ptr<const inflex::core::InflexIndex> first_index;
  std::vector<std::string> setup_problems;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    SetupTimes t;
    auto built = BuildWorld(WorldConfig{}, kWorldSeed, &t);
    if (!built.ok()) {
      std::fprintf(stderr, "inflexbench: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    world = std::move(built).ValueOrDie();
    times.push_back(t);
    if (first_index == nullptr) {
      first_index = world->index;
    } else if (!SameIndex(*first_index, *world->index)) {
      setup_problems.push_back("set-up " + std::to_string(r) +
                               " built a different index from the same seed");
    }
  }
  first_index.reset();
  auto median_of = [&times](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : times) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const auto& t : times) totals.push_back(t.total_s());

  const std::string host = HostJson(*world);
  std::printf("host %s\n", host.c_str());
  std::fflush(stdout);

  const CpuJiffies cpu_before = ReadCpuJiffies();
  Outcome outcome = RunWorkload(*world, run);
  const CpuJiffies cpu_after = ReadCpuJiffies();
  if (run.trace) RunReplay(*world, run.seconds, &outcome);
  for (auto& p : setup_problems) outcome.Fail(p);

  outcome.end_to_end["setup_s"] = Metric{Median(totals), "s"};
  outcome.per_layer["setup.dataset_s"] =
      Metric{median_of(&SetupTimes::dataset_s), "s"};
  outcome.per_layer["setup.index_build_s"] =
      Metric{median_of(&SetupTimes::index_build_s), "s"};
  outcome.per_layer["setup.maintainer_prepare_s"] =
      Metric{median_of(&SetupTimes::maintainer_prepare_s), "s"};
  outcome.per_layer["setup.server_start_s"] =
      Metric{median_of(&SetupTimes::server_start_s), "s"};
  outcome.inputs["setup_repeats"] = kSetupRepeats;
  if (cpu_after.total > cpu_before.total) {
    outcome.inputs["cpu_steal_share"] =
        double(cpu_after.steal - cpu_before.steal) /
        double(cpu_after.total - cpu_before.total);
  }

  const bool correct = outcome.problems.empty();
  for (const auto& p : outcome.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  const auto& reported = run.trace ? outcome.per_layer : outcome.end_to_end;
  for (const auto& [name, m] : reported) {
    std::printf("%-36s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("inputs %s\n", MetricsJson(outcome.inputs).c_str());

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + run.workload + "-seed" +
                             std::to_string(run.seed) + "-trace" +
                             (run.trace ? "1" : "0");
    std::ofstream details(stem + ".json");
    std::map<std::string, double> e2e, layers;
    for (const auto& [n, m] : outcome.end_to_end) e2e[n] = m.value;
    for (const auto& [n, m] : outcome.per_layer) layers[n] = m.value;
    details << "{\"workload\": " << JsonString(run.workload)
            << ", \"seed\": " << run.seed << ", \"seconds\": " << run.seconds
            << ", \"trace\": " << (run.trace ? "true" : "false")
            << ", \"host\": " << host << ", \"inputs\": "
            << MetricsJson(outcome.inputs)
            << ", \"end_to_end\": " << MetricsJson(e2e)
            << ", \"per_layer\": " << MetricsJson(layers)
            << ", \"problems\": [";
    for (size_t i = 0; i < outcome.problems.size(); ++i) {
      details << (i ? ", " : "") << JsonString(outcome.problems[i]);
    }
    details << "]}\n";
    if (run.trace) WriteSpans(stem + ".spans.jsonl", outcome.spans.spans());
  }

  std::printf("%s\n", ResultJson(correct, std::max<uint64_t>(1, outcome.attempted),
                                 outcome.failed, reported)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

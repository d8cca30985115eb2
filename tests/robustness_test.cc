// Robustness / failure-injection tests: every persisted artifact must fail
// cleanly (Status, never a crash or silent garbage) under truncation and
// byte corruption, and API boundaries must reject hostile input.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "graph/graph_io.h"
#include "inflex/inflex_index.h"
#include "tic/propagation_log.h"
#include "util/random.h"
#include "util/serialize.h"

namespace inflex {
namespace {

// One scratch directory per process: ctest runs every TEST as its own
// process, each SetUpTestSuite rewrites the artifacts, and tests running in
// parallel must not read each other's half-written files.
const std::string& ProcessTempDir() {
  static const std::string dir = [] {
    const std::string d =
        testing::TempDir() + "/robustness_" + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

std::string TempPath(const std::string& name) {
  return ProcessTempDir() + "/" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ArtifactFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticDatasetOptions dopts;
    dopts.num_users = 120;
    dopts.num_topics = 3;
    dopts.num_items = 40;
    dopts.seed = 777;
    tic::PropagationLog log(1, 1);
    auto ds = data::GenerateSyntheticDataset(dopts, &log);
    ASSERT_TRUE(ds.ok());
    dataset_ = new data::SyntheticDataset(std::move(ds).ValueOrDie());

    core::InflexBuildOptions bopts;
    bopts.index_points.num_index_points = 10;
    bopts.index_points.num_dirichlet_samples = 500;
    bopts.seed_list_length = 8;
    bopts.oracle_snapshots = 20;
    auto index = core::InflexIndex::Build(dataset_->graph, dataset_->catalog,
                                          bopts);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(graph::SaveTopicGraph(dataset_->graph,
                                      TempPath("fuzz_graph.bin"))
                    .ok());
    ASSERT_TRUE(log.Save(TempPath("fuzz_log.bin")).ok());
    ASSERT_TRUE(
        data::SaveCatalog(dataset_->catalog, TempPath("fuzz_catalog.bin"))
            .ok());
    ASSERT_TRUE(index.ValueOrDie().Save(TempPath("fuzz_index.bin")).ok());
    // communities.bin is read only by LoadDataset: damaged copies are loaded
    // from a dataset directory whose graph and catalog are sound.
    ASSERT_TRUE(data::SaveDataset(*dataset_, CommunitiesProbeDir()).ok());
    std::filesystem::copy_file(CommunitiesProbeDir() + "/communities.bin",
                               TempPath("fuzz_communities.bin"));
  }

  static std::string CommunitiesProbeDir() {
    return TempPath("communities_probe");
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    std::filesystem::remove_all(ProcessTempDir());
  }

  // Attempts to load `path` with the matching loader; must return a Status
  // (any Status) without crashing, and must NOT return OK for files that
  // were damaged in the header or truncated mid-payload.
  static bool TryLoad(const std::string& path) {
    if (path.find("communities") != std::string::npos) {
      std::filesystem::copy_file(
          path, CommunitiesProbeDir() + "/communities.bin",
          std::filesystem::copy_options::overwrite_existing);
      return data::LoadDataset(CommunitiesProbeDir()).ok();
    }
    if (path.find("graph") != std::string::npos) {
      return graph::LoadTopicGraph(path).ok();
    }
    if (path.find("log") != std::string::npos) {
      return tic::PropagationLog::Load(path).ok();
    }
    if (path.find("catalog") != std::string::npos) {
      return data::LoadCatalog(path).ok();
    }
    return core::InflexIndex::Load(path, nullptr).ok();
  }

  static data::SyntheticDataset* dataset_;
};

data::SyntheticDataset* ArtifactFuzzTest::dataset_ = nullptr;

TEST_F(ArtifactFuzzTest, TruncationAlwaysFailsCleanly) {
  for (const char* name :
       {"fuzz_graph.bin", "fuzz_log.bin", "fuzz_catalog.bin",
        "fuzz_communities.bin", "fuzz_index.bin"}) {
    const std::string orig = TempPath(name);
    const std::vector<char> bytes = ReadAll(orig);
    ASSERT_GT(bytes.size(), 16u);
    // Truncate at a spread of points including awkward mid-field offsets.
    for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, bytes.size() / 3,
                       bytes.size() / 2, bytes.size() - 1}) {
      const std::string path = TempPath(std::string("trunc_") + name);
      WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + cut));
      EXPECT_FALSE(TryLoad(path)) << name << " truncated at " << cut;
    }
  }
}

TEST_F(ArtifactFuzzTest, HeaderCorruptionDetected) {
  for (const char* name :
       {"fuzz_graph.bin", "fuzz_log.bin", "fuzz_catalog.bin",
        "fuzz_communities.bin", "fuzz_index.bin"}) {
    const std::string orig = TempPath(name);
    std::vector<char> bytes = ReadAll(orig);
    bytes[0] ^= 0x5a;  // break the magic
    const std::string path = TempPath(std::string("badmagic_") + name);
    WriteAll(path, bytes);
    EXPECT_FALSE(TryLoad(path)) << name;
  }
}

TEST_F(ArtifactFuzzTest, RandomByteFlipsNeverCrash) {
  // Any outcome is allowed except a crash; most flips must be detected, but
  // flips in payload doubles can legitimately load. We assert no crash and
  // that loads of *length-field* corruption fail.
  Rng rng(4242);
  for (const char* name :
       {"fuzz_graph.bin", "fuzz_log.bin", "fuzz_catalog.bin",
        "fuzz_communities.bin", "fuzz_index.bin"}) {
    const std::string orig = TempPath(name);
    const std::vector<char> bytes = ReadAll(orig);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<char> mutated = bytes;
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] ^= static_cast<char>(1 + rng.UniformInt(255));
      const std::string path = TempPath(std::string("flip_") + name);
      WriteAll(path, mutated);
      (void)TryLoad(path);  // must not crash; return value unconstrained
    }
  }
}

TEST_F(ArtifactFuzzTest, OversizedLengthFieldRejectedWithoutAllocation) {
  // Craft a file whose vector length claims ~2^60 elements: the reader must
  // reject it instead of attempting the allocation.
  const std::string path = TempPath("huge_len.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(WriteHeader(&w.ValueOrDie(), 0x494e4758, 1).ok());  // graph
    ASSERT_TRUE(w.ValueOrDie().WritePod<uint64_t>(100).ok());  // nodes
    ASSERT_TRUE(w.ValueOrDie().WritePod<uint64_t>(3).ok());    // topics
    ASSERT_TRUE(w.ValueOrDie().WritePod<uint64_t>(1ull << 60).ok());
    ASSERT_TRUE(w.ValueOrDie().Close().ok());
  }
  EXPECT_FALSE(graph::LoadTopicGraph(path).ok());
}

TEST_F(ArtifactFuzzTest, CrossArtifactConfusionRejected) {
  // Loading one artifact type with another's loader must fail (magic check).
  EXPECT_FALSE(graph::LoadTopicGraph(TempPath("fuzz_log.bin")).ok());
  EXPECT_FALSE(tic::PropagationLog::Load(TempPath("fuzz_catalog.bin")).ok());
  EXPECT_FALSE(data::LoadCatalog(TempPath("fuzz_index.bin")).ok());
  EXPECT_FALSE(
      core::InflexIndex::Load(TempPath("fuzz_graph.bin"), nullptr).ok());
}

TEST_F(ArtifactFuzzTest, DatasetDirectoryWithMissingPiecesFails) {
  const std::string dir = TempPath("partial_dataset");
  ASSERT_TRUE(data::SaveDataset(*dataset_, dir).ok());
  // A dataset directory needs no log: only TIC learning reads one.
  ASSERT_FALSE(std::filesystem::exists(data::DatasetLogPath(dir)));
  ASSERT_TRUE(data::LoadDataset(dir).ok());
  std::filesystem::remove(dir + "/communities.bin");
  EXPECT_FALSE(data::LoadDataset(dir).ok());
}

}  // namespace
}  // namespace inflex

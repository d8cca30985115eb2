#include "data/dataset_io.h"

#include <filesystem>

#include "graph/graph_io.h"
#include "util/serialize.h"

namespace inflex {
namespace data {

namespace {
constexpr uint32_t kCatalogMagic = 0x494e4354;  // "INCT"
constexpr uint32_t kCatalogVersion = 1;
constexpr uint32_t kCommunityMagic = 0x494e434d;  // "INCM"
constexpr uint32_t kCommunityVersion = 1;
}  // namespace

Status SaveCatalog(const std::vector<simplex::TopicDistribution>& catalog,
                   const std::string& path) {
  if (catalog.empty()) {
    return Status::InvalidArgument("refusing to save an empty catalog");
  }
  INFLEX_ASSIGN_OR_RETURN(BinaryWriter w, BinaryWriter::Open(path));
  INFLEX_RETURN_NOT_OK(WriteHeader(&w, kCatalogMagic, kCatalogVersion));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(catalog.size()));
  INFLEX_RETURN_NOT_OK(w.WritePod<uint64_t>(catalog.front().num_topics()));
  for (const auto& item : catalog) {
    if (item.num_topics() != catalog.front().num_topics()) {
      return Status::InvalidArgument("catalog items disagree on dimension");
    }
    INFLEX_RETURN_NOT_OK(w.WriteVector(item.probs()));
  }
  return w.Close();
}

Result<std::vector<simplex::TopicDistribution>> LoadCatalog(
    const std::string& path) {
  INFLEX_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::Open(path));
  INFLEX_RETURN_NOT_OK(CheckHeader(&r, kCatalogMagic, kCatalogVersion));
  uint64_t count = 0, z_count = 0;
  INFLEX_RETURN_NOT_OK(r.ReadPod(&count));
  INFLEX_RETURN_NOT_OK(r.ReadPod(&z_count));
  if (count == 0 || z_count == 0) {
    return Status::IOError("corrupt catalog header");
  }
  std::vector<simplex::TopicDistribution> catalog;
  catalog.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    simplex::TopicVector probs;
    INFLEX_RETURN_NOT_OK(r.ReadVector(&probs));
    if (probs.size() != z_count) {
      return Status::IOError("catalog item dimension mismatch");
    }
    INFLEX_ASSIGN_OR_RETURN(simplex::TopicDistribution td,
                            simplex::TopicDistribution::Create(
                                std::move(probs)));
    catalog.push_back(std::move(td));
  }
  return catalog;
}

Status SaveDataset(const SyntheticDataset& dataset, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory: " + dir);
  INFLEX_RETURN_NOT_OK(
      graph::SaveTopicGraph(dataset.graph, dir + "/graph.bin"));
  INFLEX_RETURN_NOT_OK(SaveCatalog(dataset.catalog, dir + "/catalog.bin"));
  INFLEX_ASSIGN_OR_RETURN(BinaryWriter w,
                          BinaryWriter::Open(dir + "/communities.bin"));
  INFLEX_RETURN_NOT_OK(WriteHeader(&w, kCommunityMagic, kCommunityVersion));
  INFLEX_RETURN_NOT_OK(w.WriteVector(dataset.user_community));
  return w.Close();
}

Result<SyntheticDataset> LoadDataset(const std::string& dir) {
  SyntheticDataset ds;
  INFLEX_ASSIGN_OR_RETURN(ds.graph, graph::LoadTopicGraph(dir + "/graph.bin"));
  INFLEX_ASSIGN_OR_RETURN(ds.catalog, LoadCatalog(dir + "/catalog.bin"));
  INFLEX_ASSIGN_OR_RETURN(BinaryReader r,
                          BinaryReader::Open(dir + "/communities.bin"));
  INFLEX_RETURN_NOT_OK(CheckHeader(&r, kCommunityMagic, kCommunityVersion));
  INFLEX_RETURN_NOT_OK(r.ReadVector(&ds.user_community));
  if (ds.user_community.size() != ds.graph.num_nodes()) {
    return Status::IOError("community table does not match the graph");
  }
  return ds;
}

std::string DatasetLogPath(const std::string& dir) { return dir + "/log.bin"; }

}  // namespace data
}  // namespace inflex

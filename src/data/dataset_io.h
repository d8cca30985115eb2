#ifndef INFLEX_DATA_DATASET_IO_H_
#define INFLEX_DATA_DATASET_IO_H_

#include <string>
#include <vector>

#include "data/synthetic.h"
#include "simplex/topic_distribution.h"
#include "util/status.h"

namespace inflex {
namespace data {

/// Persists an item catalog (topic distributions) to a binary artifact.
Status SaveCatalog(const std::vector<simplex::TopicDistribution>& catalog,
                   const std::string& path);

/// Loads a catalog saved by SaveCatalog.
Result<std::vector<simplex::TopicDistribution>> LoadCatalog(
    const std::string& path);

/// Persists a dataset into `dir` (created if missing): graph.bin,
/// catalog.bin, communities.bin.
Status SaveDataset(const SyntheticDataset& dataset, const std::string& dir);

/// Loads a dataset saved by SaveDataset.
Result<SyntheticDataset> LoadDataset(const std::string& dir);

/// The propagation log's file in a dataset directory, `dir`/log.bin.
/// SaveDataset and LoadDataset leave it alone: whoever made the log with
/// the log call writes it (PropagationLog::Save), and only TIC learning
/// reads it (PropagationLog::Load).
std::string DatasetLogPath(const std::string& dir);

}  // namespace data
}  // namespace inflex

#endif  // INFLEX_DATA_DATASET_IO_H_

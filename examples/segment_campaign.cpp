// Segment-targeted campaigns and online catalog growth — the two §6
// future-work directions of the paper, working together:
//  1. an advertiser targets a specific market segment (e.g. "only users in
//     the loyalty program"), served via QueryOptions::segment_mask;
//  2. a brand-new item arrives after the index was built; its seed list is
//     computed once and added online (AddIndexPoint), then served with the
//     ε-exact shortcut until the next Compact().
#include <cstdio>

#include "data/synthetic.h"
#include "inflex/index_points.h"
#include "inflex/inflex_index.h"
#include "oracle/celfpp_oracle.h"
#include "tic/tic_model.h"
#include "util/check.h"
#include "util/random.h"

using namespace inflex;  // NOLINT

int main() {
  data::SyntheticDatasetOptions dopts;
  dopts.num_users = 800;
  dopts.num_topics = 6;
  dopts.num_items = 400;
  dopts.seed = 33;
  auto dataset = data::GenerateSyntheticDataset(dopts);
  INFLEX_CHECK_OK(dataset.status());
  const auto& ds = dataset.ValueOrDie();

  // Size the index automatically (paper §6: "automatic determination of the
  // number of items to index").
  core::IndexSizeCriterion criterion;
  criterion.target_divergence = 0.35;
  auto suggested = core::SuggestIndexPointCount(ds.catalog, criterion);
  INFLEX_CHECK_OK(suggested.status());
  std::printf("automatic index sizing suggests h = %zu\n",
              suggested.ValueOrDie());

  core::InflexBuildOptions bopts;
  bopts.index_points.num_index_points = suggested.ValueOrDie();
  bopts.index_points.num_dirichlet_samples =
      50 * suggested.ValueOrDie();
  bopts.seed_list_length = 20;
  bopts.oracle_snapshots = 60;
  auto index = core::InflexIndex::Build(ds.graph, ds.catalog, bopts);
  INFLEX_CHECK_OK(index.status());

  // --- 1. Segment-targeted campaign. --------------------------------------
  // The loyalty program: every fourth user.
  core::QueryOptions segment_opts;
  segment_opts.segment_mask.assign(ds.graph.num_nodes(), 0);
  size_t segment_size = 0;
  for (size_t v = 0; v < ds.graph.num_nodes(); v += 4) {
    segment_opts.segment_mask[v] = 1;
    ++segment_size;
  }
  auto item = simplex::TopicDistribution::Create(
                  {0.55, 0.2, 0.1, 0.05, 0.05, 0.05})
                  .ValueOrDie();

  auto open_answer = index.ValueOrDie().Query(item, 8);
  auto segment_answer = index.ValueOrDie().Query(item, 8, segment_opts);
  INFLEX_CHECK_OK(open_answer.status());
  INFLEX_CHECK_OK(segment_answer.status());
  std::printf("\ncampaign item %s\n", item.ToString().c_str());
  std::printf("open targeting   (%5.2f ms):", open_answer.ValueOrDie().total_ms);
  for (rank::Item v : open_answer.ValueOrDie().seeds) std::printf(" %u", v);
  std::printf("\nloyalty segment  (%5.2f ms):",
              segment_answer.ValueOrDie().total_ms);
  for (rank::Item v : segment_answer.ValueOrDie().seeds) std::printf(" %u", v);
  std::printf("  [segment of %zu users]\n", segment_size);

  tic::TicModel model(&ds.graph);
  im::MonteCarloOptions mc;
  mc.num_simulations = 4000;
  auto spread_of = [&](const rank::RankedList& seeds) {
    std::vector<graph::NodeId> s(seeds.begin(), seeds.end());
    return model.EstimateSpread(item, s, mc).ValueOrDie().mean;
  };
  std::printf("expected adoptions: open %.0f vs segment-restricted %.0f "
              "(the cost of the targeting constraint)\n",
              spread_of(open_answer.ValueOrDie().seeds),
              spread_of(segment_answer.ValueOrDie().seeds));

  // --- 2. Online item arrival. ---------------------------------------------
  auto new_item = simplex::TopicDistribution::Create(
                      {0.05, 0.05, 0.05, 0.05, 0.05, 0.75})
                      .ValueOrDie();
  std::printf("\na new item %s enters the catalog: one offline CELF++ run, "
              "then it is indexed online\n",
              new_item.ToString().c_str());
  oracle::OfflineImOptions oopts;
  oopts.num_snapshots = 60;
  auto new_seeds = oracle::OfflineTicSeeds(ds.graph, new_item, 20, oopts);
  INFLEX_CHECK_OK(new_seeds.status());
  rank::RankedList new_list(new_seeds.ValueOrDie().seeds.begin(),
                            new_seeds.ValueOrDie().seeds.end());
  INFLEX_CHECK_OK(index.ValueOrDie().AddIndexPoint(new_item, new_list));

  auto served = index.ValueOrDie().Query(new_item, 10);
  INFLEX_CHECK_OK(served.status());
  std::printf("query on the new item: epsilon-exact=%s, %.2f ms, seeds:",
              served.ValueOrDie().epsilon_exact ? "yes" : "no",
              served.ValueOrDie().total_ms);
  for (rank::Item v : served.ValueOrDie().seeds) std::printf(" %u", v);
  std::printf("\n");

  INFLEX_CHECK_OK(index.ValueOrDie().Compact());
  std::printf("after Compact(): %zu index points in the tree, overflow "
              "buffer empty\n",
              index.ValueOrDie().num_index_points());
  return 0;
}

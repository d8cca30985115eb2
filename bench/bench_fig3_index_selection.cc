// Figure 3: the three-phase index-point selection pipeline.
// (a) catalog items  (b) 100k-scale Dirichlet samples  (c) K-means++
// centroids — visualized in the paper via ILR projection; here we print the
// fitted Dirichlet, per-ILR-dimension summary statistics of the three point
// populations, and coverage statistics showing the centroids track the
// catalog's region of the simplex.
#include <cstdio>

#include "common/evaluation.h"
#include "common/testbed.h"
#include "inflex/index_points.h"
#include "simplex/divergence.h"
#include "simplex/ilr.h"
#include "stats/descriptive.h"

using namespace inflex;             // NOLINT
using namespace inflex::benchsupport;  // NOLINT

namespace {

struct IlrSummary {
  std::vector<double> mean;
  std::vector<double> stddev;
};

IlrSummary SummarizeIlr(const std::vector<simplex::TopicVector>& points) {
  IlrSummary s;
  if (points.empty()) return s;
  const size_t d = points.front().size() - 1;
  std::vector<std::vector<double>> coords(d);
  for (const auto& p : points) {
    const auto y = simplex::IlrTransform(p);
    for (size_t j = 0; j < d; ++j) coords[j].push_back(y[j]);
  }
  for (size_t j = 0; j < d; ++j) {
    s.mean.push_back(stats::Mean(coords[j]));
    s.stddev.push_back(stats::StdDev(coords[j]));
  }
  return s;
}

}  // namespace

int main() {
  auto tb_r = GetTestbed();
  if (!tb_r.ok()) {
    std::fprintf(stderr, "testbed: %s\n", tb_r.status().ToString().c_str());
    return 1;
  }
  const Testbed& tb = *tb_r.ValueOrDie();
  PrintBanner("Figure 3 — selection of index items (catalog -> Dirichlet "
              "MLE -> sampling -> K-means++ centroids)", tb);

  core::IndexPointOptions opts;
  opts.num_index_points = tb.config.num_index_points;
  opts.num_dirichlet_samples = tb.config.dirichlet_samples;
  opts.seed = tb.config.seed + 1;
  auto sel_r = core::SelectIndexPoints(tb.dataset->catalog, opts);
  if (!sel_r.ok()) {
    std::fprintf(stderr, "selection: %s\n",
                 sel_r.status().ToString().c_str());
    return 1;
  }
  const auto& sel = sel_r.ValueOrDie();

  std::printf("\nmaximum-likelihood Dirichlet alpha (Minka generalized "
              "Newton):\n  alpha = (");
  for (size_t z = 0; z < sel.dirichlet_alpha.size(); ++z) {
    std::printf("%s%.4f", z ? ", " : "", sel.dirichlet_alpha[z]);
  }
  std::printf(")\n\n");

  std::vector<simplex::TopicVector> catalog_raw;
  for (const auto& item : tb.dataset->catalog) {
    catalog_raw.push_back(item.probs());
  }
  const IlrSummary a = SummarizeIlr(catalog_raw);
  const size_t z_count = sel.dirichlet_alpha.size();
  std::vector<simplex::TopicVector> samples;
  for (size_t i = 0; i < sel.samples.size(); i += z_count) {
    samples.emplace_back(sel.samples.begin() + i,
                         sel.samples.begin() + i + z_count);
  }
  const IlrSummary b = SummarizeIlr(samples);
  const IlrSummary c = SummarizeIlr(sel.points);

  TablePrinter table({"ILR dim", "(a) catalog mean±sd", "(b) samples mean±sd",
                      "(c) centroids mean±sd"});
  for (size_t j = 0; j < a.mean.size(); ++j) {
    table.AddRow({std::to_string(j),
                  TablePrinter::Fmt(a.mean[j]) + " ± " +
                      TablePrinter::Fmt(a.stddev[j]),
                  TablePrinter::Fmt(b.mean[j]) + " ± " +
                      TablePrinter::Fmt(b.stddev[j]),
                  TablePrinter::Fmt(c.mean[j]) + " ± " +
                      TablePrinter::Fmt(c.stddev[j])});
  }
  table.Print();

  // Coverage: distance from every catalog item to its nearest centroid —
  // the "good coverage of the simplex" requirement of §3.1.
  std::vector<double> nn_dist;
  for (const auto& item : catalog_raw) {
    double best = 1e18;
    for (const auto& p : sel.points) {
      best = std::min(best, simplex::KlDivergence(p, item));
    }
    nn_dist.push_back(best);
  }
  std::printf("\ncoverage of the catalog by the h=%zu centroids "
              "(KL from nearest centroid to item):\n",
              sel.points.size());
  std::printf("  mean = %.4f, sd = %.4f, max = %.4f\n",
              stats::Mean(nn_dist), stats::StdDev(nn_dist),
              *std::max_element(nn_dist.begin(), nn_dist.end()));
  std::printf("\nPaper shape to match: samples follow the catalog's "
              "distribution; centroids cover its region evenly.\n");
  return 0;
}

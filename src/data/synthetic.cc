#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "im/cascade.h"
#include "util/random.h"

namespace inflex {
namespace data {

namespace {

Status ValidateOptions(const SyntheticDatasetOptions& o) {
  if (o.num_users < 10) return Status::InvalidArgument("need >= 10 users");
  if (o.num_topics < 2) return Status::InvalidArgument("need >= 2 topics");
  if (o.num_topics > o.num_users) {
    // Users are dealt to communities round-robin; an empty community could
    // neither source arcs nor seed its items' cascades.
    return Status::InvalidArgument("need at least one user per topic");
  }
  if (o.num_items < 1) return Status::InvalidArgument("need >= 1 item");
  if (!(o.avg_degree > 0.0)) {
    return Status::InvalidArgument("avg_degree must be positive");
  }
  if (!(o.strong_prob_lo > 0.0) || !(o.strong_prob_hi < 1.0) ||
      o.strong_prob_lo > o.strong_prob_hi) {
    return Status::InvalidArgument("bad strong probability range");
  }
  if (!(o.weak_prob_lo > 0.0) || !(o.weak_prob_hi < 1.0) ||
      o.weak_prob_lo > o.weak_prob_hi) {
    return Status::InvalidArgument("bad weak probability range");
  }
  if (o.intra_community_fraction < 0.0 || o.intra_community_fraction > 1.0) {
    return Status::InvalidArgument("intra_community_fraction outside [0,1]");
  }
  if (o.generalist_fraction < 0.0 || o.generalist_fraction > 1.0) {
    return Status::InvalidArgument("generalist_fraction outside [0,1]");
  }
  if (!(o.generalist_prob_scale > 0.0) || o.generalist_prob_scale > 1.0) {
    return Status::InvalidArgument("generalist_prob_scale outside (0,1]");
  }
  if (o.seeds_per_cascade == 0 || o.seeds_per_cascade >= o.num_users) {
    return Status::InvalidArgument("bad seeds_per_cascade");
  }
  return Status::OK();
}

/// Samples an index from cumulative weights via binary search.
size_t SampleByCumulative(const std::vector<double>& cumulative, Rng* rng) {
  const double r = rng->Uniform() * cumulative.back();
  return static_cast<size_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), r) -
      cumulative.begin());
}

}  // namespace

Result<SyntheticDataset> GenerateSyntheticDataset(
    const SyntheticDatasetOptions& options) {
  INFLEX_RETURN_NOT_OK(ValidateOptions(options));
  Rng rng(options.seed);

  const size_t n = options.num_users;
  const size_t z_count = options.num_topics;

  SyntheticDataset ds;

  // --- Communities and authority scores -----------------------------------
  // User u belongs to community u % Z (balanced); authority is Pareto-
  // distributed so every community has a few strong influencers.
  ds.user_community.resize(n);
  std::vector<double> authority(n);
  for (size_t u = 0; u < n; ++u) {
    ds.user_community[u] = static_cast<uint32_t>(u % z_count);
    authority[u] =
        std::pow(1.0 - rng.Uniform(), -1.0 / options.authority_exponent);
  }

  // Authority-cumulative tables per community (for weighted source picks)
  // and globally.
  std::vector<std::vector<graph::NodeId>> community_members(z_count);
  for (size_t u = 0; u < n; ++u) {
    community_members[ds.user_community[u]].push_back(
        static_cast<graph::NodeId>(u));
  }
  std::vector<std::vector<double>> community_cumulative(z_count);
  for (size_t c = 0; c < z_count; ++c) {
    double acc = 0.0;
    community_cumulative[c].reserve(community_members[c].size());
    for (graph::NodeId u : community_members[c]) {
      acc += authority[u];
      community_cumulative[c].push_back(acc);
    }
  }
  std::vector<double> global_cumulative(n);
  {
    double acc = 0.0;
    for (size_t u = 0; u < n; ++u) {
      acc += authority[u];
      global_cumulative[u] = acc;
    }
  }

  // --- Arcs ----------------------------------------------------------------
  // For every user v draw ~avg_degree influencers u (arc u→v): mostly
  // authority-weighted members of v's community, the rest global. This
  // yields power-law out-degrees (influence) per community.
  std::set<std::pair<graph::NodeId, graph::NodeId>> arcs;
  for (size_t v = 0; v < n; ++v) {
    const uint32_t community = ds.user_community[v];
    const size_t degree =
        1 + rng.UniformInt(static_cast<uint64_t>(2.0 * options.avg_degree));
    for (size_t d = 0; d < degree; ++d) {
      graph::NodeId u;
      if (rng.Uniform() < options.intra_community_fraction) {
        const size_t idx =
            SampleByCumulative(community_cumulative[community], &rng);
        u = community_members[community][idx];
      } else {
        u = static_cast<graph::NodeId>(
            SampleByCumulative(global_cumulative, &rng));
      }
      if (u != v) arcs.insert({u, static_cast<graph::NodeId>(v)});
    }
  }

  // --- Per-topic probabilities ---------------------------------------------
  // Arc u→v is strong ONLY on u's community topic: authorities persuade on
  // their own subject and are near-inert elsewhere. This is what makes WHO
  // is influential topic-dependent — a topic-blind (uniform-mixture) seeder
  // sees every arc at roughly strong/Z and picks generically popular hubs,
  // few of which can actually push a topical item.
  const double max_authority =
      *std::max_element(authority.begin(), authority.end());
  std::vector<char> is_generalist(n, 0);
  for (size_t u = 0; u < n; ++u) {
    is_generalist[u] = rng.Uniform() < options.generalist_fraction ? 1 : 0;
  }
  graph::TopicGraphBuilder builder(n, z_count);
  std::vector<double> probs(z_count);
  for (const auto& [u, v] : arcs) {
    const uint32_t cu = ds.user_community[u];
    // Source authority scales the strong topic: hubs are more persuasive.
    const double auth_scale =
        0.5 + 0.5 * std::sqrt(authority[u] / max_authority);
    for (size_t z = 0; z < z_count; ++z) {
      if (is_generalist[u]) {
        probs[z] = options.generalist_prob_scale * auth_scale *
                   rng.Uniform(options.strong_prob_lo, options.strong_prob_hi);
      } else if (z == cu) {
        probs[z] = auth_scale *
                   rng.Uniform(options.strong_prob_lo, options.strong_prob_hi);
      } else {
        probs[z] = rng.Uniform(options.weak_prob_lo, options.weak_prob_hi);
      }
    }
    INFLEX_RETURN_NOT_OK(builder.AddArc(u, v, probs));
  }
  INFLEX_ASSIGN_OR_RETURN(ds.graph, builder.Build());

  // --- Catalog ---------------------------------------------------------------
  // Peaked Dirichlet mixture: each item concentrates on a primary topic.
  ds.catalog.reserve(options.num_items);
  for (size_t i = 0; i < options.num_items; ++i) {
    const size_t primary = rng.UniformInt(z_count);
    simplex::TopicVector gamma(z_count);
    double sum = 0.0;
    for (size_t z = 0; z < z_count; ++z) {
      const double alpha = z == primary ? options.item_primary_alpha
                                        : options.item_background_alpha;
      gamma[z] = rng.Gamma(alpha);
      sum += gamma[z];
    }
    for (double& g : gamma) g /= sum;
    auto td = simplex::TopicDistribution::Create(std::move(gamma));
    if (!td.ok()) return td.status();
    ds.catalog.push_back(std::move(td).ValueOrDie());
  }

  // --- Propagation log -------------------------------------------------------
  INFLEX_ASSIGN_OR_RETURN(
      ds.log, SimulatePropagationLog(ds.graph, ds.catalog, ds.user_community,
                                     options.cascades_per_item,
                                     options.seeds_per_cascade, &rng));
  return ds;
}

Result<tic::PropagationLog> SimulatePropagationLog(
    const graph::TopicGraph& g,
    const std::vector<simplex::TopicDistribution>& catalog,
    const std::vector<uint32_t>& user_community, size_t cascades_per_item,
    size_t seeds_per_cascade, Rng* rng) {
  const size_t n = g.num_nodes();
  if (user_community.size() != n) {
    return Status::InvalidArgument("one community per user expected");
  }
  std::vector<std::vector<graph::NodeId>> community_members(g.num_topics());
  for (size_t u = 0; u < n; ++u) {
    if (user_community[u] >= g.num_topics()) {
      return Status::OutOfRange("user community outside the topic range");
    }
    community_members[user_community[u]].push_back(
        static_cast<graph::NodeId>(u));
  }
  // The activation order is the timestamp (the learner only needs the
  // temporal order of adoptions). A cascade tests only the out-arcs of the
  // nodes it activates, so each arc's item probability is computed when it
  // is tested, not for all arcs.
  tic::PropagationLog log(n, catalog.size());
  im::CascadeWorkspace ws(n);
  std::vector<graph::NodeId> activated;
  std::vector<graph::NodeId> seeds(seeds_per_cascade);
  for (uint32_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i].num_topics() != g.num_topics()) {
      return Status::InvalidArgument("item dimension does not match the graph");
    }
    // Seed cascades from the item's dominant community so the log actually
    // exercises the topic-specific influence structure.
    const auto& gamma = catalog[i].probs();
    const size_t primary = static_cast<size_t>(
        std::max_element(gamma.begin(), gamma.end()) - gamma.begin());
    const auto& members = community_members[primary];
    if (members.empty() && cascades_per_item > 0) {
      return Status::InvalidArgument("an item's primary community is empty");
    }
    for (size_t c = 0; c < cascades_per_item; ++c) {
      for (auto& s : seeds) s = members[rng->UniformInt(members.size())];
      im::SimulateItemCascadeNodes(g, catalog[i], seeds, rng, &ws, &activated);
      double t = 0.0;
      for (graph::NodeId u : activated) {
        INFLEX_RETURN_NOT_OK(log.Add(u, i, static_cast<double>(c) * 1e6 + t));
        t += 1.0;
      }
    }
  }
  INFLEX_RETURN_NOT_OK(log.Finalize());
  return log;
}

}  // namespace data
}  // namespace inflex

#include "core/clustering.hpp"

#include <algorithm>
#include <numeric>

#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "graph/algorithms.hpp"
#include "graph/patterns.hpp"
#include "kernel/gram.hpp"
#include "util/error.hpp"

namespace cwgl::core {

ClusteringAnalysis ClusteringAnalysis::compute(
    const linalg::Matrix& similarity, std::span<const JobDag> jobs,
    const ClusteringOptions& options, std::span<const std::uint32_t> item_of) {
  const std::size_t n = jobs.size();
  const std::size_t m = item_of.empty() ? n : similarity.rows();
  if (similarity.rows() != m || (!item_of.empty() && item_of.size() != n)) {
    throw util::InvalidArgument(
        "ClusteringAnalysis: similarity/jobs size mismatch");
  }
  const std::vector<std::uint64_t> counts =
      util::item_counts(item_of, m, "ClusteringAnalysis");
  const auto item = [&](std::size_t i) -> std::size_t {
    return item_of.empty() ? i : item_of[i];
  };
  // Jobs of one item cannot be told apart, so there are at most m groups.
  const int k = options.clusters < 1
                    ? options.clusters
                    : static_cast<int>(std::min<std::size_t>(
                          static_cast<std::size_t>(options.clusters), m));

  cluster::SpectralOptions spectral_options;
  spectral_options.kmeans.seed = options.seed;
  const auto spectral =
      cluster::spectral_cluster(similarity, k, spectral_options, item_of);
  const std::vector<int> item_label = relabel_by_mass(spectral.labels, counts);

  ClusteringAnalysis out;
  // The per-job kernel's spectrum is the items' spectrum plus one
  // eigenvalue-1 direction per repeated job (see cluster::spectral_cluster);
  // reconstruct it so the eigengap heuristic sees what a per-job run would.
  out.eigenvalues = spectral.eigenvalues;
  if (n > m) {
    out.eigenvalues.insert(out.eigenvalues.end(), n - m, 1.0);
    std::sort(out.eigenvalues.begin(), out.eigenvalues.end());
  }
  out.suggested_k = cluster::eigengap_k(out.eigenvalues, 10);
  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.labels[i] = item_label[item(i)];

  const std::vector<double> weights(counts.begin(), counts.end());
  const linalg::Matrix distances = kernel::kernel_to_distance(similarity);
  out.silhouette = cluster::silhouette_score(distances, item_label, weights);

  out.groups = group_statistics(jobs, out.labels, k);
  std::vector<std::size_t> first_job(m, n);
  for (std::size_t i = n; i-- > 0;) first_job[item(i)] = i;
  for (ClusterGroupStats& stats : out.groups) {
    // Medoid: the job most similar to the rest of its group. Every job of
    // item t has the same centrality: its similarity to every job of the
    // group, counted per job, minus its own. Items with equal kernel rows
    // therefore tie exactly, and the strict max over jobs in order keeps
    // the earliest job of the most central item.
    double best_centrality = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t t = item(i);
      if (first_job[t] != i || item_label[t] != stats.group) continue;
      double centrality = 0.0;
      for (std::size_t u = 0; u < m; ++u) {
        if (item_label[u] == stats.group) {
          centrality +=
              static_cast<double>(util::weight_at<std::uint64_t>(counts, u)) *
              similarity(t, u);
        }
      }
      centrality -= similarity(t, t);
      if (centrality > best_centrality) {
        best_centrality = centrality;
        stats.medoid = i;
      }
    }
  }
  return out;
}

std::vector<int> relabel_by_mass(std::span<const int> raw_labels,
                                 std::span<const std::uint64_t> counts) {
  util::check_counts(counts, raw_labels.size(), "relabel_by_mass");
  std::size_t raw_clusters = 0;
  for (int l : raw_labels) {
    raw_clusters = std::max(raw_clusters, static_cast<std::size_t>(l) + 1);
  }
  std::vector<std::uint64_t> raw_mass(raw_clusters, 0);
  for (std::size_t t = 0; t < raw_labels.size(); ++t) {
    raw_mass[raw_labels[t]] += util::weight_at(counts, t);
  }
  std::vector<int> order(raw_clusters);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return raw_mass[a] != raw_mass[b] ? raw_mass[a] > raw_mass[b] : a < b;
  });
  std::vector<int> relabel(raw_clusters);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    relabel[order[rank]] = static_cast<int>(rank);
  }
  std::vector<int> out;
  out.reserve(raw_labels.size());
  for (int l : raw_labels) out.push_back(relabel[l]);
  return out;
}

std::vector<ClusterGroupStats> group_statistics(
    std::span<const JobDag> items, std::span<const int> labels, int groups,
    std::span<const std::uint64_t> counts) {
  if (labels.size() != items.size()) {
    throw util::InvalidArgument("group_statistics: labels/items size mismatch");
  }
  util::check_counts(counts, items.size(), "group_statistics");
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < items.size(); ++t) {
    total += util::weight_at(counts, t);
  }
  std::vector<ClusterGroupStats> out(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    ClusterGroupStats& stats = out[static_cast<std::size_t>(g)];
    stats.group = g;
    std::vector<double> sizes, depths, widths;
    std::vector<std::uint64_t> member_counts;
    std::uint64_t chains = 0, shorts = 0;
    for (std::size_t t = 0; t < items.size(); ++t) {
      if (labels[t] != g) continue;
      const std::uint64_t c = util::weight_at(counts, t);
      stats.population += c;
      sizes.push_back(items[t].size());
      depths.push_back(graph::critical_path_length(items[t].dag));
      widths.push_back(graph::max_width(items[t].dag));
      member_counts.push_back(c);
      if (graph::classify_shape(items[t].dag) ==
          graph::ShapePattern::StraightChain) {
        chains += c;
      }
      if (items[t].size() < 3) shorts += c;
    }
    stats.population_fraction =
        total == 0 ? 0.0
                   : static_cast<double>(stats.population) /
                         static_cast<double>(total);
    stats.size = util::describe(sizes, member_counts);
    stats.critical_path = util::describe(depths, member_counts);
    stats.parallelism = util::describe(widths, member_counts);
    stats.chain_fraction =
        stats.population ? static_cast<double>(chains) /
                               static_cast<double>(stats.population)
                         : 0.0;
    stats.short_job_fraction =
        stats.population ? static_cast<double>(shorts) /
                               static_cast<double>(stats.population)
                         : 0.0;
  }
  return out;
}

}  // namespace cwgl::core

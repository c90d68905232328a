#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/job_dag.hpp"
#include "linalg/matrix.hpp"
#include "util/stats.hpp"

namespace cwgl::core {

/// Per-group statistics behind Figure 9 and the Fig. 8 representatives.
struct ClusterGroupStats {
  int group = 0;                  ///< 0 = 'A' (largest), 1 = 'B', ...
  std::size_t population = 0;     ///< Fig. 9(a)
  double population_fraction = 0.0;
  util::Distribution size;        ///< Fig. 9(b)
  util::Distribution critical_path;  ///< Fig. 9(c)
  util::Distribution parallelism;    ///< Fig. 9(d)
  double chain_fraction = 0.0;       ///< share of straight-chain jobs
  double short_job_fraction = 0.0;   ///< share of jobs with < 3 tasks
  /// Index of the most central job (Fig. 8), the earliest of equals.
  std::size_t medoid = 0;

  /// Letter name used in the paper ('A'..).
  char letter() const noexcept { return static_cast<char>('A' + group); }
};

/// Options for the clustering stage.
struct ClusteringOptions {
  int clusters = 5;           ///< the paper finds five groups
  std::uint64_t seed = 11;    ///< k-means seeding
};

/// Spectral clustering of the similarity map plus group characterization
/// (Section VI). Groups are relabeled by descending population so that
/// group 0 ('A') is always the most populous, matching the paper's naming.
struct ClusteringAnalysis {
  std::vector<int> labels;             ///< group per job (relabeled)
  std::vector<ClusterGroupStats> groups;
  std::vector<double> eigenvalues;     ///< ascending spectrum of L_sym
  double silhouette = 0.0;             ///< quality in feature-space distance
  int suggested_k = 1;                 ///< eigengap heuristic (max 10)

  /// Clusters `jobs`, the analysis set in sample order. `similarity` is
  /// the kernel over its distinct items, job i being item `item_of[i]`
  /// (e.g. its distinct shape); an empty `item_of` means one item per job.
  /// Spectral clustering, silhouette and centrality run once per item; the
  /// result is the per-job analysis all the same. Labels are per job, the
  /// group statistics read the jobs in order, the spectrum is the expanded
  /// one (the items' spectrum plus one eigenvalue 1 per repeated job), the
  /// silhouette counts each item once per job, and a group's medoid is the
  /// earliest job of its most central item. k-means draws its seeds over
  /// the jobs, so the same random number picks the same job as on the
  /// per-job kernel (see cluster::kmeans). A cluster count above the
  /// number of items is lowered to it. Throws InvalidArgument when the
  /// cluster count is below 1, the similarity is not one row per item, an
  /// item id is out of range, or an item has no job.
  static ClusteringAnalysis compute(
      const linalg::Matrix& similarity, std::span<const JobDag> jobs,
      const ClusteringOptions& options = {},
      std::span<const std::uint32_t> item_of = {});
};

/// Relabels raw cluster ids by descending mass (the population counted
/// with `counts`, empty meaning one per item), ties to the lower raw id:
/// the paper's group-'A'-is-largest convention. Returns each item's new id.
std::vector<int> relabel_by_mass(std::span<const int> raw_labels,
                                 std::span<const std::uint64_t> counts = {});

/// Statistics of groups 0..groups-1 over `items`, item t belonging to
/// group `labels[t]` and standing for `counts[t]` jobs (empty: one each).
/// Fills every field but `medoid`, whose rule belongs to the caller.
std::vector<ClusterGroupStats> group_statistics(
    std::span<const JobDag> items, std::span<const int> labels, int groups,
    std::span<const std::uint64_t> counts = {});

}  // namespace cwgl::core

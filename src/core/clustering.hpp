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
  std::size_t medoid = 0;            ///< index of the most central job (Fig. 8)

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

  /// Clusters the items of the analysis set, `similarity` being the kernel
  /// over them. Item t stands for `counts[t]` identical jobs (e.g. one
  /// distinct shape with its multiplicity) and `shape_of[i]` maps job i of
  /// the analysis set to its item; empty `counts` means one job per item
  /// and empty `shape_of` the identity, which is the direct per-job run.
  /// With counts the result is the analysis of the expanded sample: per-JOB
  /// labels, count-weighted group statistics (quantiles bit-identical,
  /// means to rounding), the expanded spectrum (the weighted spectrum plus
  /// jobs-minus-items copies of the eigenvalue 1), weighted silhouette, and
  /// the medoid as a job index (the earliest job of the most central item,
  /// matching the direct argmax tie-break). Cluster-letter agreement with
  /// the direct run on the expansion additionally requires separated
  /// groups, because the k-means seed draws differ (see cluster::kmeans).
  /// Throws InvalidArgument on mismatched sizes, a zero count, or a shape
  /// id out of range.
  static ClusteringAnalysis compute(
      const linalg::Matrix& similarity, std::span<const JobDag> items,
      const ClusteringOptions& options = {},
      std::span<const std::uint64_t> counts = {},
      std::span<const std::uint32_t> shape_of = {});
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

#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace cwgl::cluster {

/// Mean silhouette coefficient computed from a pairwise distance matrix and
/// an assignment, where item i occurs `weights[i]` times (empty `weights`:
/// once each). Copies of an item have identical distances to everything and
/// distance 0 to each other, so every copy shares one silhouette value; this
/// evaluates that value per item and averages with multiplicity, which at
/// unit weights is the plain per-point mean. Points in clusters of total
/// weight <= 1 score 0 by convention. Returns 0 when fewer than 2 clusters
/// are populated. Throws InvalidArgument on a size mismatch or unless
/// `weights` is empty or one finite, positive weight per item.
double silhouette_score(const linalg::Matrix& distances,
                        std::span<const int> labels,
                        std::span<const double> weights = {});

/// Adjusted Rand Index between two assignments of the same items; 1 for
/// identical partitions (up to relabeling), ~0 for independent ones,
/// negative for adversarial ones.
double adjusted_rand_index(std::span<const int> a, std::span<const int> b);

/// Normalized mutual information (arithmetic-mean normalization) between
/// two assignments; in [0,1], 1 for identical partitions.
double normalized_mutual_information(std::span<const int> a, std::span<const int> b);

/// Purity of `predicted` against `truth`: fraction of items whose cluster's
/// majority truth-class matches their own. In (0,1].
double purity(std::span<const int> predicted, std::span<const int> truth);

/// Number of distinct cluster ids present in an assignment.
int cluster_count(std::span<const int> labels);

/// Population of each cluster id in [0, cluster ids' max]; absent ids get 0.
std::vector<std::size_t> cluster_sizes(std::span<const int> labels);

}  // namespace cwgl::cluster

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace cwgl::cluster {

/// Result of a k-means run.
struct KMeansResult {
  std::vector<int> labels;   ///< cluster id per row, in [0, k)
  linalg::Matrix centers;    ///< k x d centroids
  double inertia = 0.0;      ///< sum of squared distances to assigned centers
  int iterations = 0;        ///< Lloyd iterations executed
};

/// Options for k-means.
struct KMeansOptions {
  int max_iterations = 300;
  double tol = 1e-7;       ///< stop when inertia improves by less than tol
  int restarts = 8;        ///< independent k-means++ restarts; best kept
  std::uint64_t seed = 1;  ///< all restarts derive deterministically from this
};

/// Lloyd's k-means with k-means++ seeding over the rows of `data` (n x d),
/// where row i stands for `weights[i]` identical points; empty `weights`
/// means one point per row. Equivalent to the run on the expanded data set
/// without its cost: k-means++ picks rows with probability proportional to
/// weight x D^2, centroids are weighted means, and inertia is the weighted
/// sum of squared distances. Unit weights reproduce the unweighted run bit
/// for bit except in the seed draw, the one step that looks at whether
/// weights were given: without them the first center (and the re-seed of a
/// degenerate embedding) is a uniform row, with them a row drawn in
/// proportion to its weight. Per-seed labels of a weighted run are
/// therefore not comparable to the expanded run's; on well-separated data
/// both converge to the same partition.
///
/// Deterministic in `options.seed`. Empty clusters are re-seeded from the
/// point farthest from its center. Throws InvalidArgument if k < 1 or
/// k > n, on non-finite data, or unless `weights` is empty or one finite,
/// positive weight per row.
KMeansResult kmeans(const linalg::Matrix& data, int k,
                    const KMeansOptions& options = {},
                    std::span<const double> weights = {});

}  // namespace cwgl::cluster

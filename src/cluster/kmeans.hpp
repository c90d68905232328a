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
/// sum of squared distances. Without weights the first center (and the
/// re-seed of a degenerate embedding) is a uniform row; with them it is a
/// row drawn in proportion to its weight, so the same random number lands
/// on a different point than in the expanded run, and per-seed labels are
/// not comparable to it (on well-separated data both converge to the same
/// partition). The overload below draws like the expanded run.
///
/// Deterministic in `options.seed`. Empty clusters are re-seeded from the
/// point farthest from its center. Throws InvalidArgument if k < 1 or
/// k > n, on non-finite data, or unless `weights` is empty or one finite,
/// positive weight per row.
KMeansResult kmeans(const linalg::Matrix& data, int k,
                    const KMeansOptions& options = {},
                    std::span<const double> weights = {});

/// The same clustering of an ordered point set whose point p sits on row
/// `item_of[p]`, e.g. a sample's jobs over their distinct shapes: row t
/// weighs as many points as map to it. Every k-means++ seed is drawn over
/// the points in order, as the run on the expanded rows (one row per
/// point) draws it: the first with `uniform_u64` over points, each D^2
/// pick with `discrete` over per-point scores. The same random number
/// therefore lands on the same point, and so on the same row. An empty map
/// means one point per row, which is the unweighted run above. Throws
/// InvalidArgument as above, or when a row id is out of range or a row has
/// no point.
KMeansResult kmeans(const linalg::Matrix& data, int k,
                    const KMeansOptions& options,
                    std::span<const std::uint32_t> item_of);

}  // namespace cwgl::cluster

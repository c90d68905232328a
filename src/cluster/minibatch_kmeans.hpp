#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "kernel/types.hpp"
#include "linalg/matrix.hpp"

namespace cwgl::util {
class ThreadPool;
}

namespace cwgl::cluster {

/// Options for mini-batch k-means over sparse feature vectors.
struct MiniBatchOptions {
  /// Rows drawn (with replacement, weight-proportionally) per batch.
  std::size_t batch_size = 256;
  /// Mini-batch SGD steps per restart.
  int max_batches = 200;
  /// Stop a restart early once the squared center movement of a batch
  /// falls below this. The movement is bounded through norms, each
  /// center's taken as it stood when the batch was assigned.
  double tol = 1e-9;
  /// Full weighted Lloyd iterations run after the mini-batch phase to
  /// polish the centers against ALL rows. A handful of passes is what
  /// closes the gap to the exact batch solution; 0 disables polishing.
  int refine_iterations = 10;
  /// Independent restarts (seeding + batches + refine); best inertia kept.
  int restarts = 3;
  /// All restarts derive deterministically from this.
  std::uint64_t seed = 1;
  /// Runs the restarts side by side; null (or a 1-worker pool) runs them
  /// inline. The result is the same either way.
  util::ThreadPool* pool = nullptr;
};

/// Result of a mini-batch k-means run.
struct MiniBatchResult {
  std::vector<int> labels;   ///< cluster id per input vector, in [0, k)
  linalg::Matrix centers;    ///< k x dims dense centroids
  double inertia = 0.0;      ///< weighted sum of squared distances
  int batches = 0;           ///< mini-batch steps executed (best restart)
  int refine_iterations = 0; ///< Lloyd polish steps executed (best restart)
};

/// Mini-batch k-means (Sculley, WWW 2010) over sparse feature vectors,
/// count-weighted: vector i stands for `weights[i]` identical points, so
/// batch draws are weight-proportional and centroid updates use per-center
/// learning rates eta = w / v_c. Never materializes an n x n Gram — memory
/// is O(k * dims + nnz). A step costs O(k * nnz/row + dims): the assignment
/// plus the dense shrink of one center, at the CPU's vector width
/// (row_scale_kernel(), the same bits at every width). A batch adds
/// O(k * dims) for the center norms, taken once after its steps.
///
/// `points` need not be normalized, but feature ids must lie in
/// [0, dims). Deterministic in `options.seed`. Empty clusters surviving
/// the final assignment are re-seeded from the row farthest from its
/// center (the same rule the exact weighted Lloyd path uses). Throws
/// InvalidArgument on bad weights, ids out of range, or k outside [1, n].
MiniBatchResult minibatch_kmeans(std::span<const kernel::SparseVector> points,
                                 std::span<const double> weights,
                                 std::size_t dims, int k,
                                 const MiniBatchOptions& options = {});

}  // namespace cwgl::cluster

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/kmeans.hpp"
#include "kernel/types.hpp"
#include "linalg/matrix.hpp"

namespace cwgl::util {
class ThreadPool;
}

namespace cwgl::cluster {

/// Options for landmark (Nystrom) spectral clustering.
struct LandmarkOptions {
  /// Landmark budget m; the actual count is min(landmarks, n). The
  /// eigensolve is O(m^3), so keep m in the hundreds.
  std::size_t landmarks = 256;
  /// Embedding dimensionality r; 0 means "use k". Capped by the number of
  /// usable (positive) eigenvalues of the landmark Gram.
  std::size_t embedding_dims = 0;
  /// Eigenvalues below eigenvalue_floor * lambda_max are dropped — their
  /// 1/sqrt(lambda) scaling would amplify noise.
  double eigenvalue_floor = 1e-8;
  /// Final k-means over the embedded rows.
  KMeansOptions kmeans;
  /// Landmark sampling seed (kmeans has its own, inside `kmeans`).
  std::uint64_t seed = 1;
  /// Computes the landmark Gram's rows and the projected rows side by
  /// side; null (or a 1-worker pool) runs them inline. Each row reads only
  /// its own point, so the result is the same either way.
  util::ThreadPool* pool = nullptr;
};

/// Result of a landmark spectral clustering run.
struct LandmarkResult {
  std::vector<int> labels;            ///< cluster id per input vector
  std::vector<std::size_t> landmarks; ///< chosen vector indices, ascending
  std::size_t dims = 0;               ///< embedding dimensions actually used
  double inertia = 0.0;               ///< k-means inertia in the embedding
  int kmeans_iterations = 0;
};

/// Nystrom approximation of spectral clustering over a sparse-feature
/// corpus: sample m landmarks weight-proportionally without replacement,
/// eigensolve the m x m landmark kernel exactly (linalg::symmetric_eigen,
/// Householder tridiagonalization + implicit QL), project every
/// vector into the top-r eigenspace (phi(x) = Lambda^{-1/2} U^T k_x),
/// row-normalize, and run the exact weighted k-means there. Total cost
/// O(m^3 + n * m * nnz) — no n x n Gram is ever formed.
///
/// `points` should be L2-normalized (cosine kernel) for the spectral
/// analogy to hold; ids must lie in [0, dims). Deterministic in
/// `options.seed` + `options.kmeans.seed`. Throws InvalidArgument on bad
/// arguments and util::Error when the landmark eigensolve fails to
/// converge (symmetric_eigen's QL iteration bound) or yields no positive
/// spectrum — callers that must not fail catch and fall back to mini-batch
/// (see cluster_at_scale).
LandmarkResult landmark_spectral_cluster(
    std::span<const kernel::SparseVector> points,
    std::span<const double> weights, std::size_t dims, int k,
    const LandmarkOptions& options = {});

}  // namespace cwgl::cluster

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/kmeans.hpp"
#include "linalg/matrix.hpp"

namespace cwgl::util {
class Diagnostics;
}

namespace cwgl::cluster {

/// Options for spectral clustering.
struct SpectralOptions {
  KMeansOptions kmeans;  ///< final k-means stage over the embedding
  /// Strict (default): non-finite or materially non-symmetric similarity
  /// entries throw util::InvalidArgument — garbage must not silently steer
  /// the Laplacian. Lenient: non-finite entries are clamped to 0 and
  /// asymmetry is averaged away, both reported into `diagnostics`.
  bool lenient = false;
  /// Hard ceiling on the dense path: above this many items the O(n^2)
  /// Laplacian + eigensolve would silently burn memory and hours, so the
  /// call throws util::InvalidArgument pointing at the scalable path
  /// (`cwgl characterize --full` / cluster_at_scale). 0 disables the guard.
  std::size_t max_dense_items = 2000;
  /// Optional sink for degradations (clamped and asymmetric entries).
  util::Diagnostics* diagnostics = nullptr;
};

/// Result of a spectral clustering run.
struct SpectralResult {
  std::vector<int> labels;            ///< cluster id per item
  std::vector<double> eigenvalues;    ///< full ascending spectrum of L_sym
  linalg::Matrix embedding;           ///< n x k row-normalized eigenvector matrix
  /// Non-finite similarity entries clamped to 0 (lenient mode only).
  std::size_t clamped_entries = 0;
};

/// Ng–Jordan–Weiss normalized spectral clustering over a similarity matrix
/// whose row/column t stands for every point p with `item_of[p] == t`
/// (e.g. one distinct job shape and the sample jobs of that shape); an
/// empty `item_of` means one point per row. Row t's weight w_t is its
/// number of points.
///
/// Steps: symmetrize W (average with its transpose), build
/// L = I - M with M(t,u) = sqrt(w_t w_u) W(t,u) / sqrt(d_t d_u) and weighted
/// degrees d_t = sum_u w_u W(t,u) (the usual L_sym = I - D^{-1/2} W D^{-1/2}
/// at unit weights), take the k eigenvectors of the smallest eigenvalues,
/// row-normalize, and run `kmeans` with the same map in the embedded space.
/// Negative similarities are clamped to zero; isolated rows (zero degree)
/// embed at the origin.
///
/// A mapped run is equivalent to the unweighted run on the expanded matrix
/// (one row per point): for identical rows the expansion's normalized
/// affinity has eigenvectors constant within each identity class, and
/// restricting to one row per class yields M. Its spectrum is the expanded
/// spectrum minus (points - rows) copies of the eigenvalue 1 (append them
/// to reproduce it for the eigengap heuristic); row-normalizing cancels
/// the per-class 1/sqrt(w_t) scaling, so the embedding rows equal the
/// expanded run's, and k-means draws its seeds over the points as the
/// expanded run does (see kmeans).
///
/// Throws InvalidArgument if `similarity` is not square, k is out of range,
/// or `item_of` names a row out of range or leaves a row without a point —
/// and, under the default strict posture, if entries are non-finite or the
/// matrix is asymmetric beyond numerical noise (see SpectralOptions::
/// lenient for the degrade-and-report alternative). Throws util::Error if
/// the eigensolve does not converge (linalg::symmetric_eigen).
SpectralResult spectral_cluster(const linalg::Matrix& similarity, int k,
                                const SpectralOptions& options = {},
                                std::span<const std::uint32_t> item_of = {});

/// Eigengap heuristic: given the ascending spectrum of L_sym, the suggested
/// cluster count is the k (in [1, max_k]) maximizing
/// eigenvalues[k] - eigenvalues[k-1].
int eigengap_k(std::span<const double> eigenvalues, int max_k);

}  // namespace cwgl::cluster

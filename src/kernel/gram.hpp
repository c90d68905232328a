#pragma once

#include <span>

#include "kernel/types.hpp"
#include "linalg/matrix.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::kernel {

/// Options for gram_matrix.
struct GramOptions {
  /// Cosine-normalize so every diagonal entry is 1 and all values lie in
  /// [0,1] — the similarity-map form the paper plots in Fig. 7.
  bool normalize = true;
  /// Rows/cols per tile of the upper-triangle pair loop. Tiles are the
  /// scheduling unit (chunked by estimated work, sum of nnz products) and
  /// the locality unit (a 48x48 tile re-reads 96 sparse vectors from cache
  /// for 1k+ dots). Clamped to [1, 4096].
  std::size_t tile_rows = 48;
};

/// Builds the symmetric kernel (Gram) matrix of a corpus: featurizes every
/// graph serially through `f`, then fills the matrix with
/// gram_from_features. Row/column i corresponds to corpus[i].
linalg::Matrix gram_matrix(Featurizer& f, std::span<const LabeledGraph> corpus,
                           const GramOptions& options = {},
                           util::ThreadPool* pool = nullptr);

/// Builds the Gram matrix from already-featurized vectors, so callers that
/// keep the vectors (the model store freezes them as cluster
/// representatives) featurize once. The O(n^2/2) dot products run on
/// `pool` when one is given; each entry is an independent dot, so the
/// matrix is the same bit for bit with or without it. Row/column i
/// corresponds to features[i].
linalg::Matrix gram_from_features(std::span<const SparseVector> features,
                                  const GramOptions& options = {},
                                  util::ThreadPool* pool = nullptr);

/// Converts a normalized similarity matrix into a distance matrix via
/// d = sqrt(max(0, k(a,a) + k(b,b) - 2 k(a,b))) — the feature-space Euclidean
/// distance; used by silhouette scoring and medoid extraction.
linalg::Matrix kernel_to_distance(const linalg::Matrix& gram);

}  // namespace cwgl::kernel

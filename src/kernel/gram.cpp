#include "kernel/gram.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace cwgl::kernel {

linalg::Matrix gram_matrix(Featurizer& f, std::span<const LabeledGraph> corpus,
                           const GramOptions& options, util::ThreadPool* pool) {
  std::vector<SparseVector> features;
  features.reserve(corpus.size());
  {
    obs::Span span("kernel.featurize");
    span.arg("graphs", corpus.size());
    for (const LabeledGraph& g : corpus) features.push_back(f.featurize(g));
  }
  return gram_from_features(features, options, pool);
}

namespace {

/// One cache-sized block of the upper triangle: rows [row_lo, row_hi) x
/// cols [col_lo, col_hi), with row_lo <= col_lo. `work` is the scheduling
/// weight — the sum over the block's (i, j) pairs of nnz_i * nnz_j, which
/// is what a sparse dot actually costs (not the pair count: a block of fat
/// head-of-distribution vectors is orders of magnitude dearer than one of
/// two-entry chains).
struct GramTile {
  std::size_t row_lo, row_hi;
  std::size_t col_lo, col_hi;
  double work;
};

/// Partitions the upper triangle of an n x n pair space into GramTiles of
/// at most `block` rows/cols each, row-major over the block grid — a
/// deterministic order, though Gram output never depends on it (every (i, j)
/// belongs to exactly one tile and each entry is an independent dot).
std::vector<GramTile> make_tiles(std::span<const SparseVector> features,
                                 std::size_t block) {
  const std::size_t n = features.size();
  const std::size_t grid = (n + block - 1) / block;
  // Per-block nnz sums: the work of an off-diagonal tile is exactly
  // (sum nnz over its rows) * (sum nnz over its cols).
  std::vector<double> block_nnz(grid, 0.0);
  for (std::size_t b = 0; b < grid; ++b) {
    const std::size_t hi = std::min((b + 1) * block, n);
    for (std::size_t i = b * block; i < hi; ++i) {
      block_nnz[b] += static_cast<double>(features[i].items.size());
    }
  }
  std::vector<GramTile> tiles;
  tiles.reserve(grid * (grid + 1) / 2);
  for (std::size_t bi = 0; bi < grid; ++bi) {
    for (std::size_t bj = bi; bj < grid; ++bj) {
      GramTile t;
      t.row_lo = bi * block;
      t.row_hi = std::min(t.row_lo + block, n);
      t.col_lo = bj * block;
      t.col_hi = std::min(t.col_lo + block, n);
      // Diagonal tiles only compute their upper half; halving the estimate
      // keeps them from being scheduled as if they were full blocks.
      t.work = block_nnz[bi] * block_nnz[bj] * (bi == bj ? 0.5 : 1.0);
      tiles.push_back(t);
    }
  }
  return tiles;
}

}  // namespace

linalg::Matrix gram_from_features(std::span<const SparseVector> features,
                                  const GramOptions& options,
                                  util::ThreadPool* pool) {
  const std::size_t n = features.size();
  obs::Span span("kernel.gram");
  span.arg("graphs", n);
  linalg::Matrix gram(n, n);

  // Tiled upper-triangle fill. Tiles are independent (disjoint (i, j) sets,
  // and each tile writes only its own entries plus their mirrors), so the
  // pooled path races on nothing and produces the same matrix as the serial
  // one bit for bit — parallelism only reorders which independent dot runs
  // when. Work-sized chunking replaces the old per-row parallel_for, whose
  // row i cost (n - i) dots: tasks were wildly imbalanced and the per-row
  // submit overhead dominated at n ~ 100 (the 0.72x pooled "speedup" this
  // path used to ship).
  const std::size_t block = std::clamp<std::size_t>(options.tile_rows, 1, 4096);
  const std::vector<GramTile> tiles = make_tiles(features, block);
  const auto fill_tile = [&](const GramTile& t) {
    for (std::size_t i = t.row_lo; i < t.row_hi; ++i) {
      const SparseVector& fi = features[i];
      const std::size_t j0 = std::max(i, t.col_lo);
      for (std::size_t j = j0; j < t.col_hi; ++j) {
        const double k = fi.dot(features[j]);
        gram(i, j) = k;
        gram(j, i) = k;
      }
    }
  };
  const auto fill_tiles = [&](std::size_t lo, std::size_t hi) {
    obs::Span chunk("kernel.gram.tile_chunk");
    chunk.arg("tiles", hi - lo);
    for (std::size_t t = lo; t < hi; ++t) fill_tile(tiles[t]);
  };
  if (pool != nullptr && !tiles.empty()) {
    std::vector<double> work;
    work.reserve(tiles.size());
    for (const GramTile& t : tiles) work.push_back(t.work);
    util::parallel_for_weighted(*pool, work, fill_tiles);
  } else {
    fill_tiles(0, tiles.size());
  }

  if (options.normalize) {
    std::vector<double> inv_norm(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::sqrt(gram(i, i));
      // Zero or non-finite self-kernels (an all-OOV probe, an overflowed
      // feature) zero the whole row/column instead of spraying NaN — the
      // lenient posture the ingest stages already take.
      inv_norm[i] = (d > 0.0 && std::isfinite(d)) ? 1.0 / d : 0.0;
    }
    // The matrix is symmetric, so scale the upper triangle once and mirror
    // instead of rewriting all n^2 entries. The products equal what the
    // full rewrite computed: (i, j) and (j, i) held the same value and IEEE
    // multiplication commutes in inv_norm[i] * inv_norm[j]. A zero scale
    // short-circuits to 0.0 rather than multiplying, so a guarded row zeros
    // out even where its raw entries are non-finite (inf * 0 is NaN).
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double scale = inv_norm[i] * inv_norm[j];
        const double v = scale == 0.0 ? 0.0 : gram(i, j) * scale;
        gram(i, j) = v;
        gram(j, i) = v;
      }
    }
  }
  return gram;
}

linalg::Matrix kernel_to_distance(const linalg::Matrix& gram) {
  if (gram.rows() != gram.cols()) {
    throw util::InvalidArgument("kernel_to_distance: matrix must be square");
  }
  const std::size_t n = gram.rows();
  linalg::Matrix dist(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double sq = gram(i, i) + gram(j, j) - 2.0 * gram(i, j);
      dist(i, j) = std::sqrt(std::max(0.0, sq));
    }
  }
  return dist;
}

}  // namespace cwgl::kernel

#include "cluster/landmark.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "linalg/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::cluster {

namespace {

/// m weight-proportional draws without replacement: each draw zeroes the
/// picked weight and rescans. O(m * n), fine for m in the hundreds.
std::vector<std::size_t> sample_landmarks(std::span<const double> weights,
                                          std::size_t m,
                                          util::Xoshiro256StarStar& rng) {
  std::vector<double> remaining(weights.begin(), weights.end());
  std::vector<std::size_t> picks;
  picks.reserve(m);
  for (std::size_t draw = 0; draw < m; ++draw) {
    double total = 0.0;
    for (double w : remaining) total += w;
    std::size_t pick;
    if (total > 0.0) {
      pick = rng.discrete(remaining);
    } else {
      // All mass consumed (more landmarks than positively weighted rows
      // cannot happen — weights are validated positive — but guard anyway).
      pick = static_cast<std::size_t>(
          rng.uniform_u64(0, remaining.size() - 1));
    }
    remaining[pick] = 0.0;
    picks.push_back(pick);
  }
  std::sort(picks.begin(), picks.end());
  return picks;
}

/// fn(lo, hi) over [0, n): in chunks of `grain` on `pool`, or at once
/// without one.
void for_rows(util::ThreadPool* pool, std::size_t n, std::size_t grain,
              const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool != nullptr) {
    util::parallel_for_chunked(*pool, 0, n, grain, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace

LandmarkResult landmark_spectral_cluster(
    std::span<const kernel::SparseVector> points,
    std::span<const double> weights, std::size_t dims, int k,
    const LandmarkOptions& opt) {
  const std::size_t n = points.size();
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw util::InvalidArgument("landmark_spectral_cluster: need 1 <= k <= n");
  }
  if (weights.size() != n) {
    throw util::InvalidArgument(
        "landmark_spectral_cluster: one weight per vector required");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(weights[i]) || weights[i] <= 0.0) {
      throw util::InvalidArgument(
          "landmark_spectral_cluster: weights must be positive");
    }
    for (const auto& [id, value] : points[i].items) {
      if (id < 0 || static_cast<std::size_t>(id) >= dims) {
        throw util::InvalidArgument(
            "landmark_spectral_cluster: feature id out of range at vector " +
            std::to_string(i));
      }
      if (!std::isfinite(value)) {
        throw util::InvalidArgument(
            "landmark_spectral_cluster: non-finite feature value at vector " +
            std::to_string(i));
      }
    }
  }
  if (opt.landmarks == 0) {
    throw util::InvalidArgument(
        "landmark_spectral_cluster: need at least one landmark");
  }

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& runs = registry.counter("cluster.scale.landmark.runs");
  obs::Span span("cluster.landmark_spectral");
  span.arg("points", n);
  span.arg("k", static_cast<std::uint64_t>(k));
  runs.add();

  LandmarkResult r;
  util::Xoshiro256StarStar rng(opt.seed);
  const std::size_t m = std::min(opt.landmarks, n);
  r.landmarks = sample_landmarks(weights, m, rng);
  span.arg("landmarks", m);

  // Exact m x m landmark kernel. Sparse dots are symmetric (same ascending
  // accumulation order either way), but mirror explicitly so
  // symmetric_eigen's symmetry check can never trip on it.
  // Row i writes only (i, j >= i) and its mirror (j >= i, i).
  linalg::Matrix gram(m, m);
  for_rows(opt.pool, m, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = i; j < m; ++j) {
        const double v = points[r.landmarks[i]].dot(points[r.landmarks[j]]);
        gram(i, j) = v;
        gram(j, i) = v;
      }
    }
  });

  // A non-convergent solve throws util::Error, which cluster_at_scale
  // degrades on.
  const linalg::EigenDecomposition eig = linalg::symmetric_eigen(gram);

  // Usable spectrum: top eigenvalues above the relative floor. values
  // ascend, so walk from the back.
  const double lambda_max = eig.values.empty() ? 0.0 : eig.values.back();
  if (!(lambda_max > 0.0)) {
    throw util::Error(
        "landmark_spectral_cluster: landmark Gram has no positive spectrum");
  }
  std::size_t requested = opt.embedding_dims == 0
                              ? static_cast<std::size_t>(k)
                              : opt.embedding_dims;
  requested = std::min(requested, m);
  std::vector<std::size_t> kept;  // eigen column indices, descending lambda
  for (std::size_t back = 0; back < m && kept.size() < requested; ++back) {
    const std::size_t col = m - 1 - back;
    const double lambda = eig.values[col];
    if (!(lambda > opt.eigenvalue_floor * lambda_max)) break;
    kept.push_back(col);
  }
  r.dims = kept.size();
  span.arg("dims", r.dims);

  // Project every vector: phi(x)_l = (1/sqrt(lambda_l)) sum_j U(j,l) k_x[j],
  // then row-normalize (unit rows make the k-means geometry match the
  // spectral embedding's).
  linalg::Matrix embedding(n, r.dims);
  std::vector<double> inv_sqrt(r.dims);
  for (std::size_t l = 0; l < r.dims; ++l) {
    inv_sqrt[l] = 1.0 / std::sqrt(eig.values[kept[l]]);
  }
  for_rows(opt.pool, n, 64, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> kx(m);
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        kx[j] = points[i].dot(points[r.landmarks[j]]);
      }
      auto row = embedding.row(i);
      for (std::size_t l = 0; l < r.dims; ++l) {
        double acc = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          acc += eig.vectors(j, kept[l]) * kx[j];
        }
        row[l] = inv_sqrt[l] * acc;
      }
      double norm = 0.0;
      for (double v : row) norm += v * v;
      norm = std::sqrt(norm);
      if (norm > 0.0) {
        for (double& v : row) v /= norm;
      }
    }
  });

  const KMeansResult km = kmeans(embedding, k, opt.kmeans, weights);
  r.labels = km.labels;
  r.inertia = km.inertia;
  r.kmeans_iterations = km.iterations;
  return r;
}

}  // namespace cwgl::cluster

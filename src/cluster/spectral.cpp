#include "cluster/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "linalg/eigen.hpp"
#include "obs/tracer.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace cwgl::cluster {

SpectralResult spectral_cluster(const linalg::Matrix& similarity, int k,
                                const SpectralOptions& options,
                                std::span<const std::uint32_t> item_of) {
  if (similarity.rows() != similarity.cols()) {
    throw util::InvalidArgument("spectral_cluster: similarity must be square");
  }
  const std::size_t n = similarity.rows();
  const std::vector<std::uint64_t> counts =
      util::item_counts(item_of, n, "spectral_cluster");
  const std::vector<double> row_weights(counts.begin(), counts.end());
  const std::span<const double> weights = row_weights;
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw util::InvalidArgument("spectral_cluster: need 1 <= k <= n");
  }
  if (options.max_dense_items != 0 && n > options.max_dense_items) {
    throw util::InvalidArgument(
        "spectral_cluster: " + std::to_string(n) +
        " items exceed the dense-path limit of " +
        std::to_string(options.max_dense_items) +
        " (O(n^2) memory, O(n^3) eigensolve); use the scalable path "
        "(`cwgl characterize --full` / cluster_at_scale) or raise "
        "SpectralOptions::max_dense_items");
  }

  SpectralResult result;

  // Validate before any arithmetic: a single NaN would spread through the
  // Laplacian and come out of the eigensolver as garbage labels with no
  // error anywhere. Asymmetry beyond numerical noise means the caller's
  // kernel matrix is corrupt, not merely unnormalized.
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (std::isfinite(similarity(i, j))) {
        max_abs = std::max(max_abs, std::abs(similarity(i, j)));
      }
    }
  }
  const double asym_tol = 1e-6 * std::max(1.0, max_abs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!std::isfinite(similarity(i, j))) {
        if (!options.lenient) {
          throw util::InvalidArgument(
              "spectral_cluster: non-finite similarity at (" +
              std::to_string(i) + ", " + std::to_string(j) + ")");
        }
        ++result.clamped_entries;
      } else if (j > i &&
                 std::abs(similarity(i, j) - similarity(j, i)) > asym_tol) {
        if (!options.lenient) {
          throw util::InvalidArgument(
              "spectral_cluster: similarity is not symmetric at (" +
              std::to_string(i) + ", " + std::to_string(j) + ")");
        }
        if (options.diagnostics != nullptr) {
          options.diagnostics->count("spectral", "asymmetric-entry");
        }
      }
    }
  }
  if (result.clamped_entries > 0 && options.diagnostics != nullptr) {
    options.diagnostics->count("spectral", "non-finite-clamped",
                               result.clamped_entries);
  }

  // Symmetrize and clamp; self-similarity does not affect L_sym's
  // eigenvectors' cluster structure but keeps degrees positive. Non-finite
  // entries (lenient mode only — strict threw above) contribute zero.
  linalg::Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double a = similarity(i, j);
      const double b = similarity(j, i);
      const double av = std::isfinite(a) ? a : 0.0;
      const double bv = std::isfinite(b) ? b : 0.0;
      w(i, j) = std::max(0.0, 0.5 * (av + bv));
    }
  }

  // Weighted degrees d_t = sum_u w_u W(t,u): the degree every copy of item
  // t has in the expanded graph.
  std::vector<double> inv_sqrt_degree(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      deg += util::weight_at(weights, j) * w(i, j);
    }
    inv_sqrt_degree[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }

  // L = I - M with M(t,u) = sqrt(w_t w_u) W(t,u) / sqrt(d_t d_u); at unit
  // weights the factors of 1 are exact, so this is L_sym bit for bit.
  linalg::Matrix lsym(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double norm =
          std::sqrt(util::weight_at(weights, i) * util::weight_at(weights, j)) *
          w(i, j) * inv_sqrt_degree[i] * inv_sqrt_degree[j];
      lsym(i, j) = (i == j ? 1.0 : 0.0) - norm;
    }
  }

  obs::Span eigen_span("cluster.eigensolve");
  eigen_span.arg("n", n);
  auto eig = linalg::symmetric_eigen(lsym);
  eigen_span.end();

  result.eigenvalues = std::move(eig.values);
  // Row-normalization makes the 1/sqrt(w_t) class scaling irrelevant: the
  // normalized row of item t equals the expanded run's row for every copy.
  result.embedding = linalg::Matrix(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < k; ++c) {
      result.embedding(i, c) = eig.vectors(i, static_cast<std::size_t>(c));
    }
    double norm = 0.0;
    for (int c = 0; c < k; ++c) {
      norm += result.embedding(i, c) * result.embedding(i, c);
    }
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (int c = 0; c < k; ++c) result.embedding(i, c) /= norm;
    }
  }

  result.labels = kmeans(result.embedding, k, options.kmeans, item_of).labels;
  return result;
}

int eigengap_k(std::span<const double> eigenvalues, int max_k) {
  if (eigenvalues.size() < 2) return 1;
  const int limit =
      std::min<int>(max_k, static_cast<int>(eigenvalues.size()) - 1);
  int best_k = 1;
  double best_gap = -1.0;
  for (int k = 1; k <= limit; ++k) {
    const double gap = eigenvalues[k] - eigenvalues[k - 1];
    if (gap > best_gap) {
      best_gap = gap;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace cwgl::cluster

#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cwgl::cluster {

namespace {

double sq_dist(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// Seeds are drawn over points: the mapped points in order when `item_of`
/// is given, otherwise the rows, in proportion to `weights` if given.
linalg::Matrix kmeanspp_init(const linalg::Matrix& data,
                             std::span<const double> weights,
                             std::span<const std::uint32_t> item_of, int k,
                             util::Xoshiro256StarStar& rng) {
  const std::size_t n = data.rows();
  const std::size_t points = item_of.empty() ? n : item_of.size();
  const auto row_of = [&](std::size_t p) -> std::size_t {
    return item_of.empty() ? p : item_of[p];
  };
  linalg::Matrix centers(k, data.cols());
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  std::vector<double> scores(points, 0.0);

  // A uniform pick over the expanded sample lands on row i with probability
  // proportional to its weight; over points it is a uniform point's row.
  const auto seed_row = [&]() -> std::size_t {
    if (!weights.empty()) return rng.discrete(weights);
    return row_of(static_cast<std::size_t>(rng.uniform_u64(0, points - 1)));
  };
  const std::size_t first = seed_row();
  for (std::size_t c = 0; c < data.cols(); ++c) centers(0, c) = data(first, c);
  for (int centroid = 1; centroid < k; ++centroid) {
    for (std::size_t i = 0; i < n; ++i) {
      min_dist[i] =
          std::min(min_dist[i], sq_dist(data.row(i), centers.row(centroid - 1)));
    }
    double total = 0.0;
    for (std::size_t p = 0; p < points; ++p) {
      scores[p] = util::weight_at(weights, p) * min_dist[row_of(p)];
      total += scores[p];
    }
    // Degenerate embedding (all points coincide with chosen centers): the
    // D^2 weights vanish and `discrete` would deterministically pick index
    // 0. Re-seed like the first pick instead so duplicate data still yields
    // a usable (if arbitrary) clustering rather than k copies of one
    // point's center.
    const std::size_t pick =
        total > 0.0 ? row_of(rng.discrete(scores)) : seed_row();
    for (std::size_t c = 0; c < data.cols(); ++c) {
      centers(centroid, c) = data(pick, c);
    }
  }
  return centers;
}

KMeansResult lloyd(const linalg::Matrix& data, std::span<const double> weights,
                   std::span<const std::uint32_t> item_of, int k,
                   const KMeansOptions& opt, util::Xoshiro256StarStar& rng) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  KMeansResult r;
  // With a map the weights are its counts, and the draw is over points.
  r.centers = kmeanspp_init(
      data, item_of.empty() ? weights : std::span<const double>{}, item_of, k,
      rng);
  r.labels.assign(n, 0);
  double prev_inertia = std::numeric_limits<double>::max();

  for (int it = 0; it < opt.max_iterations; ++it) {
    r.iterations = it + 1;
    // Assignment step: nearest center is weight-independent; the inertia
    // counts each row once per represented point.
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (int c = 0; c < k; ++c) {
        const double dist = sq_dist(data.row(i), r.centers.row(c));
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      r.labels[i] = best_c;
      inertia += util::weight_at(weights, i) * best;
    }
    r.inertia = inertia;

    // Update step: weighted centroid per cluster.
    linalg::Matrix sums(k, d);
    std::vector<double> mass(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const int c = r.labels[i];
      const double w = util::weight_at(weights, i);
      mass[c] += w;
      for (std::size_t j = 0; j < d; ++j) sums(c, j) += w * data(i, j);
    }
    for (int c = 0; c < k; ++c) {
      if (mass[c] == 0.0) {
        // Re-seed an empty cluster from the row farthest from its center
        // (multiplicity does not change which point is farthest).
        std::size_t worst = 0;
        double worst_dist = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double dist = sq_dist(data.row(i), r.centers.row(r.labels[i]));
          if (dist > worst_dist) {
            worst_dist = dist;
            worst = i;
          }
        }
        for (std::size_t j = 0; j < d; ++j) r.centers(c, j) = data(worst, j);
        continue;
      }
      for (std::size_t j = 0; j < d; ++j) {
        r.centers(c, j) = sums(c, j) / mass[c];
      }
    }
    if (prev_inertia - inertia < opt.tol) break;
    prev_inertia = inertia;
  }
  return r;
}

void validate_points(const linalg::Matrix& data, int k) {
  if (k < 1 || static_cast<std::size_t>(k) > data.rows()) {
    throw util::InvalidArgument("kmeans: need 1 <= k <= n");
  }
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::size_t j = 0; j < data.cols(); ++j) {
      if (!std::isfinite(data(i, j))) {
        throw util::InvalidArgument(
            "kmeans: non-finite value at (" + std::to_string(i) +
            ", " + std::to_string(j) + ")");
      }
    }
  }
}

KMeansResult run_kmeans(const linalg::Matrix& data, int k,
                        const KMeansOptions& opt,
                        std::span<const double> weights,
                        std::span<const std::uint32_t> item_of) {
  validate_points(data, k);
  util::check_weights(weights, data.rows(), "kmeans");
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& iterations = registry.counter("cluster.kmeans.iterations");
  obs::Counter& restarts = registry.counter("cluster.kmeans.restarts");
  obs::Span span("cluster.kmeans");
  span.arg("points", data.rows());
  span.arg("k", static_cast<std::uint64_t>(k));
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  std::uint64_t total_iterations = 0;
  for (int restart = 0; restart < std::max(1, opt.restarts); ++restart) {
    util::Xoshiro256StarStar rng(
        util::hash_combine(opt.seed, static_cast<std::uint64_t>(restart)));
    KMeansResult r = lloyd(data, weights, item_of, k, opt, rng);
    restarts.add();
    iterations.add(static_cast<std::uint64_t>(r.iterations));
    total_iterations += static_cast<std::uint64_t>(r.iterations);
    if (r.inertia < best.inertia) best = std::move(r);
  }
  span.arg("iterations", total_iterations);
  return best;
}

}  // namespace

KMeansResult kmeans(const linalg::Matrix& data, int k, const KMeansOptions& opt,
                    std::span<const double> weights) {
  return run_kmeans(data, k, opt, weights, {});
}

KMeansResult kmeans(const linalg::Matrix& data, int k, const KMeansOptions& opt,
                    std::span<const std::uint32_t> item_of) {
  const std::vector<std::uint64_t> counts =
      util::item_counts(item_of, data.rows(), "kmeans");
  const std::vector<double> weights(counts.begin(), counts.end());
  return run_kmeans(data, k, opt, weights, item_of);
}

}  // namespace cwgl::cluster

#include "cluster/minibatch_kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cluster/row_scale.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::cluster {

namespace {

/// ||x - c||^2 for a sparse x against a dense center row, given the
/// precomputed squared norms of both: ||x||^2 + ||c||^2 - 2 x.c.
double sparse_dense_sq_dist(const kernel::SparseVector& x, double x_sq,
                            std::span<const double> center, double center_sq) {
  double dot = 0.0;
  for (const auto& [id, value] : x.items) {
    dot += value * center[static_cast<std::size_t>(id)];
  }
  const double d = x_sq + center_sq - 2.0 * dot;
  return d > 0.0 ? d : 0.0;
}

double dense_row_sq(std::span<const double> row) {
  double acc = 0.0;
  for (double v : row) acc += v * v;
  return acc;
}

int nearest_center(const kernel::SparseVector& x, double x_sq,
                   const linalg::Matrix& centers,
                   std::span<const double> center_sq, double* dist_out) {
  double best = std::numeric_limits<double>::max();
  int best_c = 0;
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    const double d = sparse_dense_sq_dist(x, x_sq, centers.row(c), center_sq[c]);
    if (d < best) {
      best = d;
      best_c = static_cast<int>(c);
    }
  }
  if (dist_out != nullptr) *dist_out = best;
  return best_c;
}

/// Weight-proportional draw via binary search over the cumulative weights —
/// O(log n) per draw where rng.discrete would rescan all weights.
std::size_t draw_weighted(std::span<const double> cumulative,
                          util::Xoshiro256StarStar& rng) {
  const double total = cumulative.back();
  const double u = rng.uniform01() * total;
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  const std::size_t i = static_cast<std::size_t>(it - cumulative.begin());
  return std::min(i, cumulative.size() - 1);
}

/// Weighted k-means++ over sparse rows: same distribution as the dense
/// kmeanspp_init_weighted, with D^2 computed by sparse-sparse dots.
void seed_centers(std::span<const kernel::SparseVector> points,
                  std::span<const double> weights,
                  std::span<const double> point_sq, int k,
                  util::Xoshiro256StarStar& rng, linalg::Matrix& centers) {
  const std::size_t n = points.size();
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  std::vector<double> scores(n, 0.0);
  std::vector<std::size_t> picks;
  picks.reserve(static_cast<std::size_t>(k));
  picks.push_back(rng.discrete(weights));
  for (int centroid = 1; centroid < k; ++centroid) {
    const std::size_t prev = picks.back();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dot = points[i].dot(points[prev]);
      const double d = std::max(0.0, point_sq[i] + point_sq[prev] - 2.0 * dot);
      min_dist[i] = std::min(min_dist[i], d);
      scores[i] = weights[i] * min_dist[i];
      total += scores[i];
    }
    picks.push_back(total > 0.0 ? rng.discrete(scores) : rng.discrete(weights));
  }
  for (int c = 0; c < k; ++c) {
    for (const auto& [id, value] : points[picks[static_cast<std::size_t>(c)]].items) {
      centers(static_cast<std::size_t>(c), static_cast<std::size_t>(id)) = value;
    }
  }
}

MiniBatchResult run_restart(std::span<const kernel::SparseVector> points,
                            std::span<const double> weights,
                            std::span<const double> point_sq,
                            std::span<const double> cumulative, std::size_t dims,
                            int k, const MiniBatchOptions& opt,
                            const RowScaleKernel& shrink_row,
                            util::Xoshiro256StarStar& rng) {
  const std::size_t n = points.size();
  MiniBatchResult r;
  r.centers = linalg::Matrix(static_cast<std::size_t>(k), dims);
  seed_centers(points, weights, point_sq, k, rng, r.centers);

  std::vector<double> center_sq(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    center_sq[static_cast<std::size_t>(c)] = dense_row_sq(r.centers.row(c));
  }

  // Mini-batch SGD phase (Sculley): draw a weighted batch, assign against
  // frozen centers, then apply per-center gradient steps.
  std::vector<double> learned_mass(static_cast<std::size_t>(k), 0.0);
  std::vector<std::size_t> batch(opt.batch_size);
  std::vector<int> batch_label(opt.batch_size);
  for (int step = 0; step < opt.max_batches; ++step) {
    r.batches = step + 1;
    for (std::size_t b = 0; b < opt.batch_size; ++b) {
      batch[b] = draw_weighted(cumulative, rng);
      batch_label[b] = nearest_center(points[batch[b]], point_sq[batch[b]],
                                      r.centers, center_sq, nullptr);
    }
    double movement = 0.0;
    for (std::size_t b = 0; b < opt.batch_size; ++b) {
      const std::size_t i = batch[b];
      const std::size_t c = static_cast<std::size_t>(batch_label[b]);
      // Each draw represents one expanded point, so the step weight is 1;
      // multiplicity already shaped the draw distribution.
      learned_mass[c] += 1.0;
      const double eta = 1.0 / learned_mass[c];
      auto row = r.centers.row(c);
      shrink_row.scale(row.data(), row.size(), 1.0 - eta);
      for (const auto& [id, value] : points[i].items) {
        row[static_cast<std::size_t>(id)] += eta * value;
      }
      // Movement bound: ||c' - c||^2 = eta^2 ||x - c||^2; cheap via norms,
      // with ||c||^2 taken from the frozen centers the batch was assigned to.
      movement += eta * eta * (point_sq[i] + center_sq[c]);
    }
    // Each center's norm once per batch: the next batch's assignment is
    // the first to read it.
    for (std::size_t c = 0; c < center_sq.size(); ++c) {
      center_sq[c] = dense_row_sq(r.centers.row(c));
    }
    if (movement < opt.tol) break;
  }

  // Polish phase: a few exact weighted Lloyd steps over ALL rows.
  double prev_inertia = std::numeric_limits<double>::max();
  std::vector<int> labels(n, 0);
  std::vector<double> dists(n, 0.0);
  for (int it = 0; it <= opt.refine_iterations; ++it) {
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = nearest_center(points[i], point_sq[i], r.centers, center_sq,
                                 &dists[i]);
      inertia += weights[i] * dists[i];
    }
    r.inertia = inertia;
    // The final pass (or refine_iterations == 0) stops after assignment so
    // labels and centers stay consistent.
    if (it == opt.refine_iterations) break;
    r.refine_iterations = it + 1;

    linalg::Matrix sums(static_cast<std::size_t>(k), dims);
    std::vector<double> mass(static_cast<std::size_t>(k), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = static_cast<std::size_t>(labels[i]);
      mass[c] += weights[i];
      auto row = sums.row(c);
      for (const auto& [id, value] : points[i].items) {
        row[static_cast<std::size_t>(id)] += weights[i] * value;
      }
    }
    for (int c = 0; c < k; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      auto row = r.centers.row(cc);
      if (mass[cc] == 0.0) {
        // Empty cluster: re-seed from the row farthest from its center.
        std::size_t worst = 0;
        double worst_dist = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          if (dists[i] > worst_dist) {
            worst_dist = dists[i];
            worst = i;
          }
        }
        std::fill(row.begin(), row.end(), 0.0);
        for (const auto& [id, value] : points[worst].items) {
          row[static_cast<std::size_t>(id)] = value;
        }
      } else {
        auto srow = sums.row(cc);
        for (std::size_t j = 0; j < dims; ++j) row[j] = srow[j] / mass[cc];
      }
      center_sq[cc] = dense_row_sq(row);
    }
    if (prev_inertia - r.inertia < 1e-12) break;
    prev_inertia = r.inertia;
  }

  // Guarantee the returned labels cover all k clusters when possible:
  // re-seed each empty center from the row farthest from its assignment and
  // reassign, bounded at k rounds (each round fills at least one cluster).
  for (int round = 0; round < k; ++round) {
    std::vector<double> mass(static_cast<std::size_t>(k), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      mass[static_cast<std::size_t>(labels[i])] += weights[i];
    }
    int empty = -1;
    for (int c = 0; c < k; ++c) {
      if (mass[static_cast<std::size_t>(c)] == 0.0) {
        empty = c;
        break;
      }
    }
    if (empty < 0) break;
    std::size_t worst = 0;
    double worst_dist = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (dists[i] > worst_dist) {
        worst_dist = dists[i];
        worst = i;
      }
    }
    auto row = r.centers.row(static_cast<std::size_t>(empty));
    std::fill(row.begin(), row.end(), 0.0);
    for (const auto& [id, value] : points[worst].items) {
      row[static_cast<std::size_t>(id)] = value;
    }
    center_sq[static_cast<std::size_t>(empty)] = dense_row_sq(row);
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      labels[i] = nearest_center(points[i], point_sq[i], r.centers, center_sq,
                                 &dists[i]);
      inertia += weights[i] * dists[i];
    }
    r.inertia = inertia;
  }
  r.labels = std::move(labels);
  return r;
}

}  // namespace

MiniBatchResult minibatch_kmeans(std::span<const kernel::SparseVector> points,
                                 std::span<const double> weights,
                                 std::size_t dims, int k,
                                 const MiniBatchOptions& opt) {
  const std::size_t n = points.size();
  if (k < 1 || static_cast<std::size_t>(k) > n) {
    throw util::InvalidArgument("minibatch_kmeans: need 1 <= k <= n");
  }
  if (weights.size() != n) {
    throw util::InvalidArgument(
        "minibatch_kmeans: one weight per vector required");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(weights[i]) || weights[i] <= 0.0) {
      throw util::InvalidArgument("minibatch_kmeans: weights must be positive");
    }
    for (const auto& [id, value] : points[i].items) {
      if (id < 0 || static_cast<std::size_t>(id) >= dims) {
        throw util::InvalidArgument(
            "minibatch_kmeans: feature id out of range at vector " +
            std::to_string(i));
      }
      if (!std::isfinite(value)) {
        throw util::InvalidArgument(
            "minibatch_kmeans: non-finite feature value at vector " +
            std::to_string(i));
      }
    }
  }
  if (opt.batch_size == 0) {
    throw util::InvalidArgument("minibatch_kmeans: batch_size must be >= 1");
  }

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& batches = registry.counter("cluster.scale.minibatch.batches");
  obs::Counter& restarts = registry.counter("cluster.scale.minibatch.restarts");
  obs::Span span("cluster.minibatch_kmeans");
  span.arg("points", n);
  span.arg("k", static_cast<std::uint64_t>(k));
  // Every variant gives the same bits (RowScaleKernel); the arg tells
  // which width ran.
  const RowScaleKernel& shrink_row = row_scale_kernel();
  span.arg("vector_bytes", shrink_row.vector_bytes);

  std::vector<double> point_sq(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double norm = points[i].norm();
    point_sq[i] = norm * norm;
  }
  std::vector<double> cumulative(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += weights[i];
    cumulative[i] = acc;
  }

  // Restarts are independent, each seeded by its index; they may run in any
  // order, and the best is then picked in restart order.
  std::vector<MiniBatchResult> runs(
      static_cast<std::size_t>(std::max(1, opt.restarts)));
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t restart = lo; restart < hi; ++restart) {
      util::Xoshiro256StarStar rng(util::hash_combine(opt.seed, restart));
      runs[restart] = run_restart(points, weights, point_sq, cumulative, dims,
                                  k, opt, shrink_row, rng);
    }
  };
  if (opt.pool != nullptr) {
    util::parallel_for_chunked(*opt.pool, 0, runs.size(), 1, run_range);
  } else {
    run_range(0, runs.size());
  }

  MiniBatchResult best;
  best.inertia = std::numeric_limits<double>::max();
  std::uint64_t total_batches = 0;
  for (MiniBatchResult& r : runs) {
    restarts.add();
    batches.add(static_cast<std::uint64_t>(r.batches));
    total_batches += static_cast<std::uint64_t>(r.batches);
    if (r.inertia < best.inertia) best = std::move(r);
  }
  span.arg("batches", total_batches);
  return best;
}

}  // namespace cwgl::cluster

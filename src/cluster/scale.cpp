#include "cluster/scale.hpp"

#include <cmath>
#include <string>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {

std::string_view to_string(ScaleMethod method) noexcept {
  switch (method) {
    case ScaleMethod::MiniBatch:
      return "minibatch";
    case ScaleMethod::Landmark:
      return "landmark";
  }
  return "minibatch";
}

bool parse_scale_method(std::string_view text, ScaleMethod& out) noexcept {
  if (text == "minibatch") {
    out = ScaleMethod::MiniBatch;
    return true;
  }
  if (text == "landmark") {
    out = ScaleMethod::Landmark;
    return true;
  }
  return false;
}

namespace {

ScaleResult run_minibatch(std::span<const kernel::SparseVector> points,
                          std::span<const double> weights, std::size_t dims,
                          const ScaleOptions& opt) {
  MiniBatchOptions mb = opt.minibatch;
  mb.seed = util::hash_combine(opt.seed, 0x6d696e69ULL);  // "mini"
  MiniBatchResult r = minibatch_kmeans(points, weights, dims, opt.clusters, mb);
  ScaleResult out;
  out.labels = std::move(r.labels);
  out.method = ScaleMethod::MiniBatch;
  out.inertia = r.inertia;
  out.iterations = r.batches;
  return out;
}

ScaleResult run_landmark(std::span<const kernel::SparseVector> points,
                         std::span<const double> weights, std::size_t dims,
                         const ScaleOptions& opt) {
  LandmarkOptions lm = opt.landmark;
  lm.seed = util::hash_combine(opt.seed, 0x6c616e64ULL);  // "land"
  lm.kmeans.seed = util::hash_combine(opt.seed, 0x6b6d6e73ULL);  // "kmns"
  LandmarkResult r =
      landmark_spectral_cluster(points, weights, dims, opt.clusters, lm);
  ScaleResult out;
  out.labels = std::move(r.labels);
  out.method = ScaleMethod::Landmark;
  out.inertia = r.inertia;
  out.landmarks = r.landmarks.size();
  out.embedding_dims = r.dims;
  out.iterations = r.kmeans_iterations;
  return out;
}

}  // namespace

ScaleResult cluster_at_scale(std::span<const kernel::SparseVector> points,
                             std::span<const double> weights, std::size_t dims,
                             const ScaleOptions& opt) {
  const std::size_t n = points.size();
  if (opt.clusters < 1 || static_cast<std::size_t>(opt.clusters) > n) {
    throw util::InvalidArgument("cluster_at_scale: need 1 <= clusters <= n");
  }
  if (weights.size() != n) {
    throw util::InvalidArgument(
        "cluster_at_scale: one weight per vector required");
  }
  // Deep validation (ids, finiteness) happens in the chosen backend; both
  // raise InvalidArgument before doing any work, and those errors are NOT
  // treated as degradable — only runtime failures of the landmark solver
  // are. The checks above cover everything the backends disagree on.

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("cluster.scale.runs").add();
  registry.counter("cluster.scale.shapes").add(static_cast<std::uint64_t>(n));
  obs::Counter& degraded_counter = registry.counter("cluster.scale.degraded");
  obs::Span span("cluster.scale");
  span.arg("points", n);
  span.arg("k", static_cast<std::uint64_t>(opt.clusters));
  span.arg("landmark_method",
           static_cast<std::uint64_t>(opt.method == ScaleMethod::Landmark));

  if (opt.method == ScaleMethod::Landmark) {
    try {
      CWGL_FAILPOINT("cluster.scale");
      ScaleResult out = run_landmark(points, weights, dims, opt);
      span.arg("landmarks", out.landmarks);
      return out;
    } catch (const util::InvalidArgument&) {
      throw;  // caller bug, not a numeric failure — never mask it
    } catch (const util::Error& e) {
      // Landmark eigensolve failed (or an injected `cluster.scale` fault
      // fired): degrade to mini-batch instead of failing the whole run.
      if (opt.diagnostics != nullptr) {
        opt.diagnostics->record("cluster.scale", "landmark-degraded",
                                e.what());
      }
      degraded_counter.add();
      span.arg("degraded", std::uint64_t{1});
      ScaleResult out = run_minibatch(points, weights, dims, opt);
      out.degraded = true;
      return out;
    }
  }
  return run_minibatch(points, weights, dims, opt);
}

}  // namespace cwgl::cluster

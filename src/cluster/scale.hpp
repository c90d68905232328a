#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/landmark.hpp"
#include "cluster/minibatch_kmeans.hpp"
#include "kernel/types.hpp"
#include "util/diagnostics.hpp"

namespace cwgl::cluster {

/// Which scalable clustering backend drives a full-trace run.
enum class ScaleMethod {
  MiniBatch,  ///< mini-batch k-means directly on sparse features
  Landmark,   ///< Nystrom landmark spectral embedding + weighted k-means
};

std::string_view to_string(ScaleMethod method) noexcept;

/// Parses "minibatch" / "landmark"; returns false on anything else.
bool parse_scale_method(std::string_view text, ScaleMethod& out) noexcept;

/// Options for clustering a full trace's distinct shapes.
struct ScaleOptions {
  ScaleMethod method = ScaleMethod::MiniBatch;
  int clusters = 5;
  /// Seeds both backends (each derives its own stream from it).
  std::uint64_t seed = 11;
  MiniBatchOptions minibatch;
  LandmarkOptions landmark;
  /// Optional sink for degradation records (landmark -> minibatch falls).
  util::Diagnostics* diagnostics = nullptr;
};

/// Result of a scalable clustering run.
struct ScaleResult {
  std::vector<int> labels;   ///< cluster id per input vector, in [0, k)
  ScaleMethod method = ScaleMethod::MiniBatch;  ///< backend that produced labels
  /// True when the requested backend failed (eigensolve non-convergence,
  /// degenerate spectrum, injected `cluster.scale` fault) and the run fell
  /// back to mini-batch instead of erroring.
  bool degraded = false;
  double inertia = 0.0;
  std::size_t landmarks = 0;       ///< landmark path only
  std::size_t embedding_dims = 0;  ///< landmark path only
  int iterations = 0;              ///< batches (minibatch) / k-means iters
};

/// Clusters n weighted sparse feature vectors without ever materializing an
/// n x n Gram — the learning stage behind `cwgl characterize --full`.
/// Dispatches on `options.method`; a failing landmark run degrades to
/// mini-batch (recorded in diagnostics + `cluster.scale.degraded`) rather
/// than failing the pipeline. Failpoint: `cluster.scale` (fires before the
/// landmark attempt). Deterministic in `options.seed`. Throws
/// InvalidArgument on bad weights, ids outside [0, dims), or k outside
/// [1, n].
ScaleResult cluster_at_scale(std::span<const kernel::SparseVector> points,
                             std::span<const double> weights, std::size_t dims,
                             const ScaleOptions& options = {});

}  // namespace cwgl::cluster

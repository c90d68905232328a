#include "kernel/wl.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace cwgl::kernel {

namespace {

/// Appends an int to a byte-signature (fixed-width little-endian so
/// signatures are prefix-free).
void append_int(std::string& sig, int v) {
  for (int i = 0; i < 4; ++i) {
    sig += static_cast<char>((static_cast<unsigned>(v) >> (8 * i)) & 0xff);
  }
}

/// Shared constructor-time validation of the iteration weights (Eq. (1)).
void validate_config(const WlConfig& config) {
  if (config.iteration_weights.empty()) return;
  if (config.iteration_weights.size() !=
      static_cast<std::size_t>(config.iterations) + 1) {
    throw util::InvalidArgument(
        "WlSubtreeFeaturizer: iteration_weights must have iterations+1 entries");
  }
  for (double w : config.iteration_weights) {
    if (w < 0.0) {
      throw util::InvalidArgument(
          "WlSubtreeFeaturizer: iteration_weights must be non-negative");
    }
  }
}

/// The WL refinement loop shared by the training (interning) and frozen
/// (lookup-only) featurizers. `lookup(sig)` maps a byte-signature to its
/// feature id; the two call sites differ ONLY in that mapping, which is what
/// guarantees a fitted model's serving features are computed by the exact
/// byte-for-byte signature scheme the training pass interned.
template <typename Lookup>
SparseVector wl_featurize(const WlConfig& config, const LabeledGraph& g,
                          Lookup&& lookup) {
  // Scale features by sqrt(w_i) so the kernel contribution of iteration i
  // scales by exactly w_i.
  const auto weight = [&](int it) {
    return config.iteration_weights.empty()
               ? 1.0
               : std::sqrt(config.iteration_weights[it]);
  };

  const int n = g.graph.num_vertices();
  std::unordered_map<int, double> counts;

  // Iteration 0: intern the raw labels (namespaced by iteration).
  std::vector<int> color(n);
  std::string sig;
  for (int v = 0; v < n; ++v) {
    sig.clear();
    append_int(sig, 0);  // iteration tag
    append_int(sig, g.label(v));
    color[v] = lookup(sig);
    counts[color[v]] += weight(0);
  }

  std::vector<int> next(n);
  std::vector<int> bucket;
  for (int it = 1; it <= config.iterations; ++it) {
    for (int v = 0; v < n; ++v) {
      sig.clear();
      append_int(sig, it);  // iteration tag keeps feature spaces disjoint
      append_int(sig, color[v]);
      if (config.directed) {
        bucket.assign(g.graph.predecessors(v).begin(), g.graph.predecessors(v).end());
        for (int& b : bucket) b = color[b];
        std::sort(bucket.begin(), bucket.end());
        append_int(sig, static_cast<int>(bucket.size()));
        for (int b : bucket) append_int(sig, b);
        bucket.assign(g.graph.successors(v).begin(), g.graph.successors(v).end());
        for (int& b : bucket) b = color[b];
        std::sort(bucket.begin(), bucket.end());
        append_int(sig, static_cast<int>(bucket.size()));
        for (int b : bucket) append_int(sig, b);
      } else {
        bucket.clear();
        for (int w : g.graph.predecessors(v)) bucket.push_back(color[w]);
        for (int w : g.graph.successors(v)) bucket.push_back(color[w]);
        std::sort(bucket.begin(), bucket.end());
        append_int(sig, static_cast<int>(bucket.size()));
        for (int b : bucket) append_int(sig, b);
      }
      next[v] = lookup(sig);
      counts[next[v]] += weight(it);
    }
    color.swap(next);
  }
  return SparseVector::from_counts(counts);
}

}  // namespace

WlSubtreeFeaturizer::WlSubtreeFeaturizer(WlConfig config)
    : config_(std::move(config)) {
  validate_config(config_);
}

SparseVector WlSubtreeFeaturizer::featurize(const LabeledGraph& g) {
  SparseVector out = wl_featurize(
      config_, g, [this](const std::string& sig) { return dict_.intern(sig); });
  static obs::Counter& featurized =
      obs::MetricsRegistry::global().counter("kernel.wl.featurized");
  featurized.add();
  return out;
}

FrozenWlFeaturizer::FrozenWlFeaturizer(WlConfig config,
                                       const SignatureDictionary& dict,
                                       int oov_id)
    : config_(std::move(config)), dict_(&dict), oov_id_(oov_id) {
  validate_config(config_);
}

SparseVector FrozenWlFeaturizer::featurize(const LabeledGraph& g,
                                           std::size_t* oov_hits) const {
  std::size_t misses = 0;
  SparseVector out = wl_featurize(
      config_, g,
      [this, &misses](const std::string& sig) {
        if (const auto id = dict_->find(sig)) return *id;
        ++misses;
        return oov_id_;
      });
  static obs::Counter& featurized =
      obs::MetricsRegistry::global().counter("kernel.wl.frozen_featurized");
  featurized.add();
  if (oov_hits != nullptr) *oov_hits = misses;
  return out;
}

double wl_subtree_kernel(const LabeledGraph& a, const LabeledGraph& b,
                         WlConfig config) {
  WlSubtreeFeaturizer f(config);
  return kernel_value(f, a, b);
}

double wl_subtree_similarity(const LabeledGraph& a, const LabeledGraph& b,
                             WlConfig config) {
  WlSubtreeFeaturizer f(config);
  return normalized_kernel_value(f, a, b);
}

}  // namespace cwgl::kernel

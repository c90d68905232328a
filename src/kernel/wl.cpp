#include "kernel/wl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

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

/// One thread's WL buffers, reused from graph to graph: the colors of this
/// iteration and the next, a neighbour bucket, the signature being built,
/// each iteration's feature scale, and one key per vertex visit.
struct WlScratch {
  std::vector<int> color;
  std::vector<int> next;
  std::vector<int> bucket;
  std::string sig;
  std::vector<double> weight;
  std::vector<std::uint64_t> visits;
};

/// The WL refinement loop shared by the training (interning) and frozen
/// (lookup-only) featurizers. `lookup(sig)` maps a byte-signature to its
/// feature id; the two call sites differ ONLY in that mapping, which is what
/// guarantees a fitted model's serving features are computed by the exact
/// byte-for-byte signature scheme the training pass interned.
template <typename Lookup>
SparseVector wl_featurize(const WlConfig& config, const LabeledGraph& g,
                          Lookup&& lookup) {
  thread_local WlScratch scratch;
  auto& [color, next, bucket, sig, weight, visits] = scratch;
  // Scale features by sqrt(w_i) so the kernel contribution of iteration i
  // scales by exactly w_i.
  weight.assign(static_cast<std::size_t>(config.iterations) + 1, 1.0);
  if (!config.iteration_weights.empty()) {
    for (std::size_t it = 0; it < weight.size(); ++it) {
      weight[it] = std::sqrt(config.iteration_weights[it]);
    }
  }
  // Each visit of a vertex is one key: its feature id above its iteration.
  const auto visit = [&visits](int id, int it) {
    visits.push_back(std::uint64_t{static_cast<std::uint32_t>(id)} << 32 |
                     static_cast<std::uint32_t>(it));
  };

  const int n = g.graph.num_vertices();
  color.resize(static_cast<std::size_t>(n));
  next.resize(static_cast<std::size_t>(n));
  visits.clear();

  // Iteration 0: intern the raw labels (namespaced by iteration).
  for (int v = 0; v < n; ++v) {
    sig.clear();
    append_int(sig, 0);  // iteration tag
    append_int(sig, g.label(v));
    color[v] = lookup(sig);
    visit(color[v], 0);
  }

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
      visit(next[v], it);
    }
    color.swap(next);
  }

  // A feature's value is its visits' weights summed from 0.0 in visit
  // order. Sorting the keys groups each id's visits by iteration, ascending
  // — the visit order, up to visits within one iteration, which all add
  // the same weight. So every sum has the bits a per-id running total
  // kept during the loop would have. Only the frozen featurizer's shared
  // OOV id collects visits from several iterations.
  std::sort(visits.begin(), visits.end());
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < visits.size(); ++i) {
    if (i == 0 || visits[i] >> 32 != visits[i - 1] >> 32) ++distinct;
  }
  SparseVector out;
  out.items.reserve(distinct);
  for (std::size_t i = 0; i < visits.size();) {
    const std::uint64_t id = visits[i] >> 32;
    double sum = 0.0;
    for (; i < visits.size() && visits[i] >> 32 == id; ++i) {
      sum += weight[static_cast<std::uint32_t>(visits[i])];
    }
    out.items.emplace_back(static_cast<int>(id), sum);
  }
  return out;
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

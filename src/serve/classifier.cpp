#include "serve/classifier.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace cwgl::serve {

namespace {

struct ServeMetrics {
  obs::Counter* classified;
  obs::Counter* oov_jobs;
  obs::Counter* memo_hits;
  obs::Counter* scans;

  static const ServeMetrics& get() {
    static const ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ServeMetrics{&reg.counter("serve.classify.jobs"),
                          &reg.counter("serve.classify.oov_jobs"),
                          &reg.counter("serve.classify.memo_hits"),
                          &reg.counter("serve.classify.scans")};
    }();
    return m;
  }
};

constexpr std::uint32_t kSlotEmpty = 0;
constexpr std::uint32_t kSlotBusy = 1;
constexpr std::uint32_t kSlotReady = 2;

/// Hash of a feature vector's exact bits: one multiply per entry, then a
/// final mix so the low bits can index the table. Equal vectors hash equal;
/// a collision only lengthens a probe.
std::uint64_t bit_hash(const kernel::SparseVector& v) noexcept {
  std::uint64_t h = 0;
  for (const auto& [id, value] : v.items) {
    h = (std::rotl(h, 5) ^ std::bit_cast<std::uint64_t>(value) ^
         static_cast<std::uint32_t>(id)) *
        0x517cc1b727220a95ULL;
  }
  return util::hash_combine(h, v.items.size());
}

/// Bitwise equality: stricter than operator== (0.0 vs -0.0 differ), which
/// is what makes a memo hit return exactly what a fresh scan would.
bool bit_equal(const kernel::SparseVector& a,
               const kernel::SparseVector& b) noexcept {
  return std::equal(a.items.begin(), a.items.end(), b.items.begin(),
                    b.items.end(), [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             std::bit_cast<std::uint64_t>(x.second) ==
                                 std::bit_cast<std::uint64_t>(y.second);
                    });
}

}  // namespace

Classifier::Classifier(model::FittedModel m)
    : model_((m.validate(), std::move(m))),
      featurizer_(model_.wl, dict_, model_.oov_id()) {
  // Single-threaded interning assigns dense first-seen ids, so dictionary
  // entry i gets id i back — the exact id space the frozen feature vectors
  // were encoded in. validate() has already rejected duplicate signatures,
  // which is what makes this bijective.
  for (const std::string& signature : model_.dictionary) dict_.intern(signature);
  // Representative pointers are stable from here on: model_ is owned and
  // never mutated after construction (the serving contract).
  std::size_t reps = 0;
  for (const auto& cluster : model_.representatives) reps += cluster.size();
  scan_.reserve(reps);
  for (std::size_t c = 0; c < model_.representatives.size(); ++c) {
    for (const model::Representative& rep : model_.representatives[c]) {
      scan_.push_back(ScanEntry{&rep, static_cast<int>(c)});
    }
  }

  // Group representatives by bitwise-identical features: one memo slot per
  // distinct vector, O(total nnz) expected.
  memo_index_.assign(reps == 0 ? 0 : std::bit_ceil(reps + reps / 2 + 1), 0);
  for (std::size_t i = 0; i < scan_.size(); ++i) {
    const kernel::SparseVector& features = scan_[i].rep->features;
    const std::size_t at = probe(features, bit_hash(features));
    if (memo_index_[at] != 0) continue;  // an earlier rep holds this vector
    memo_keys_.push_back(static_cast<std::uint32_t>(i));
    memo_index_[at] = static_cast<std::uint32_t>(memo_keys_.size());
  }
  memo_ = std::vector<MemoSlot>(memo_keys_.size());
  memo_values_.assign(memo_keys_.size() * (model_.num_clusters() + 1), 0.0);
}

Prediction Classifier::classify(const core::JobDag& job) const {
  if (model_.conflated) {
    return classify_graph(make_labeled(core::conflate_job(job)));
  }
  return classify_graph(make_labeled(job));
}

kernel::LabeledGraph Classifier::make_labeled(const core::JobDag& job) const {
  kernel::LabeledGraph g;
  g.graph = job.dag;
  if (model_.use_type_labels) g.labels = job.type_labels();
  return g;
}

std::size_t Classifier::probe(const kernel::SparseVector& phi,
                              std::uint64_t h) const noexcept {
  const std::size_t mask = memo_index_.size() - 1;
  std::size_t i = h & mask;
  while (memo_index_[i] != 0 &&
         !bit_equal(scan_[memo_keys_[memo_index_[i] - 1]].rep->features, phi)) {
    i = (i + 1) & mask;
  }
  return i;
}

std::uint32_t Classifier::scan(const kernel::SparseVector& phi,
                               Prediction& out) const {
  const double norm = phi.norm();
  out.scores.assign(model_.num_clusters(), 0.0);
  double best = -std::numeric_limits<double>::infinity();
  std::uint64_t best_index = std::numeric_limits<std::uint64_t>::max();
  int best_cluster = 0;
  std::uint32_t nearest = kNone;

  // Flat scan over every representative: each similarity is one sparse dot
  // (the galloping fast path kicks in when probe and representative nnz
  // are skewed), same visit order and arithmetic as the nested loop this
  // replaced, so predictions — including ties — are unchanged.
  for (std::size_t i = 0; i < scan_.size(); ++i) {
    const model::Representative& rep = *scan_[i].rep;
    const auto c = static_cast<std::size_t>(scan_[i].cluster);
    double sim = phi.dot(rep.features);
    if (model_.normalize) {
      const double denom = norm * rep.self_norm;
      sim = denom > 0.0 ? sim / denom : 0.0;
    }
    if (sim > out.scores[c]) out.scores[c] = sim;
    if (sim > best || (sim == best && rep.training_index < best_index)) {
      best = sim;
      best_index = rep.training_index;
      best_cluster = scan_[i].cluster;
      nearest = static_cast<std::uint32_t>(i);
    }
  }
  out.cluster = best_cluster;
  out.similarity = best;
  return nearest;
}

Prediction Classifier::classify_graph(const kernel::LabeledGraph& g) const {
  Prediction out;
  const kernel::SparseVector phi = featurizer_.featurize(g, &out.oov_hits);
  const ServeMetrics& metrics = ServeMetrics::get();

  // A vector carrying the OOV id never equals a representative's, so only
  // fully in-vocabulary jobs can have a slot.
  std::uint32_t slot = kNone;
  if (out.oov_hits == 0 && !memo_index_.empty()) {
    const std::uint32_t entry = memo_index_[probe(phi, bit_hash(phi))];
    if (entry != 0) slot = entry - 1;
  }
  const std::size_t stride = model_.num_clusters() + 1;
  std::uint32_t nearest = kNone;
  if (slot != kNone &&
      memo_[slot].state.load(std::memory_order_acquire) == kSlotReady) {
    const MemoSlot& m = memo_[slot];
    nearest = m.nearest;
    out.cluster = m.cluster;
    const double* values = memo_values_.data() + slot * stride;
    out.similarity = values[0];
    out.scores.assign(values + 1, values + stride);
    metrics.memo_hits->add();
  } else {
    nearest = scan(phi, out);
    metrics.scans->add();
    std::uint32_t expected = kSlotEmpty;
    // Racing writers scanned the same key and so hold the same bits; the
    // CAS winner publishes, the others just return their own copy.
    if (slot != kNone && memo_[slot].state.compare_exchange_strong(
                             expected, kSlotBusy, std::memory_order_relaxed)) {
      MemoSlot& m = memo_[slot];
      m.nearest = nearest;
      m.cluster = out.cluster;
      double* values = memo_values_.data() + slot * stride;
      values[0] = out.similarity;
      std::copy(out.scores.begin(), out.scores.end(), values + 1);
      m.state.store(kSlotReady, std::memory_order_release);
    }
  }

  out.cluster_letter = model::FittedModel::letter(
      static_cast<std::size_t>(out.cluster));
  if (nearest != kNone) out.nearest_job = scan_[nearest].rep->job_name;
  const model::ClusterProfile& profile =
      model_.profiles[static_cast<std::size_t>(out.cluster)];
  out.predicted_critical_path = profile.median_critical_path;
  out.predicted_width = profile.median_width;

  metrics.classified->add();
  if (out.oov_hits > 0) metrics.oov_jobs->add();
  return out;
}

}  // namespace cwgl::serve

#include "serve/classifier.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
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
  obs::Counter* postings;

  static const ServeMetrics& get() {
    static const ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ServeMetrics{&reg.counter("serve.classify.jobs"),
                          &reg.counter("serve.classify.oov_jobs"),
                          &reg.counter("serve.classify.memo_hits"),
                          &reg.counter("serve.classify.scans"),
                          &reg.counter("serve.classify.postings")};
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
  // never reshaped after construction (the serving contract). The vectors
  // are inverted into the CSR index in O(total nnz): count each id's
  // postings while flattening, prefix-sum the counts into offsets, then
  // fill in scan order, which leaves every id's positions ascending.
  std::size_t reps = 0;
  for (const auto& cluster : model_.representatives) reps += cluster.size();
  scan_.reserve(reps);
  postings_begin_.assign(model_.dictionary.size() + 1, 0);
  std::size_t entries = 0;
  for (std::size_t c = 0; c < model_.representatives.size(); ++c) {
    for (const model::Representative& rep : model_.representatives[c]) {
      const std::size_t nnz = rep.features.items.size();
      scan_.push_back(ScanEntry{&rep, static_cast<int>(c),
                                static_cast<std::uint32_t>(nnz)});
      entries += nnz;
      for (const auto& [id, value] : rep.features.items) {
        ++postings_begin_[static_cast<std::size_t>(id) + 1];
      }
    }
  }
  if (reps >= kNone || entries >= kNone) {
    throw model::ModelError("model too large for the serving index");
  }
  std::partial_sum(postings_begin_.begin(), postings_begin_.end(),
                   postings_begin_.begin());
  postings_rep_.resize(entries);
  postings_value_.resize(entries);
  std::vector<std::uint32_t> next(postings_begin_.begin(),
                                  postings_begin_.end() - 1);
  for (std::size_t i = 0; i < scan_.size(); ++i) {
    for (const auto& [id, value] : scan_[i].rep->features.items) {
      const std::uint32_t at = next[static_cast<std::size_t>(id)]++;
      postings_rep_[at] = static_cast<std::uint32_t>(i);
      postings_value_[at] = value;
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

  // The index now holds every vector: free them, so a reloading daemon's
  // two Classifiers do not each carry the representatives twice. The memo
  // slots are allocated after, where they can reuse that memory.
  for (auto& cluster : model_.representatives) {
    for (model::Representative& rep : cluster) rep.features = {};
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
  while (memo_index_[i] != 0 && !holds(memo_keys_[memo_index_[i] - 1], phi)) {
    i = (i + 1) & mask;
  }
  return i;
}

bool Classifier::holds(std::uint32_t r,
                       const kernel::SparseVector& phi) const noexcept {
  // Equal counts, and every entry of phi present at r with equal bits
  // (stricter than operator==: 0.0 and -0.0 differ), is bitwise equality.
  // Highest ids first: they are the rarest signatures, so their postings
  // are short and a mismatching key is usually rejected there.
  if (scan_[r].nnz != phi.items.size()) return false;
  const std::size_t ids = postings_begin_.size() - 1;
  for (auto entry = phi.items.rbegin(); entry != phi.items.rend(); ++entry) {
    const auto& [id, value] = *entry;
    if (static_cast<std::size_t>(id) >= ids) return false;  // the OOV id
    const auto first = postings_rep_.begin() + postings_begin_[id];
    const auto last = postings_rep_.begin() + postings_begin_[id + 1];
    const auto at = std::lower_bound(first, last, r);
    if (at == last || *at != r) return false;
    const double held = postings_value_[static_cast<std::size_t>(
        at - postings_rep_.begin())];
    if (std::bit_cast<std::uint64_t>(held) !=
        std::bit_cast<std::uint64_t>(value)) {
      return false;
    }
  }
  return true;
}

std::uint32_t Classifier::scan(const kernel::SparseVector& phi,
                               Prediction& out,
                               std::uint64_t& postings) const {
  // dots[i] = <phi, features of scan_[i]>. Each accumulator starts at 0.0
  // and receives its products in ascending-id order (phi's entries are
  // walked in order, each id once) — the order SparseVector::dot sums
  // matched products in, so every dot has the exact bits it would have
  // there. The OOV id sorts last and no representative holds it.
  std::vector<double> dots(scan_.size(), 0.0);
  const std::size_t ids = postings_begin_.size() - 1;
  for (const auto& [id, value] : phi.items) {
    if (static_cast<std::size_t>(id) >= ids) break;
    const std::uint32_t end = postings_begin_[id + 1];
    for (std::uint32_t p = postings_begin_[id]; p < end; ++p) {
      dots[postings_rep_[p]] += value * postings_value_[p];
    }
    postings += end - postings_begin_[id];
  }

  const double norm = phi.norm();
  out.scores.assign(model_.num_clusters(), 0.0);
  double best = -std::numeric_limits<double>::infinity();
  std::uint64_t best_index = std::numeric_limits<std::uint64_t>::max();
  int best_cluster = 0;
  std::uint32_t nearest = kNone;

  // Ties go to the lowest training index, so the answer does not depend on
  // the scan order.
  for (std::size_t i = 0; i < scan_.size(); ++i) {
    const model::Representative& rep = *scan_[i].rep;
    const auto c = static_cast<std::size_t>(scan_[i].cluster);
    double sim = dots[i];
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
    std::uint64_t postings = 0;
    nearest = scan(phi, out, postings);
    metrics.scans->add();
    metrics.postings->add(postings);
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

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
  obs::Counter* rechecks;

  static const ServeMetrics& get() {
    static const ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ServeMetrics{&reg.counter("serve.classify.jobs"),
                          &reg.counter("serve.classify.oov_jobs"),
                          &reg.counter("serve.classify.memo_hits"),
                          &reg.counter("serve.classify.scans"),
                          &reg.counter("serve.classify.postings"),
                          &reg.counter("serve.classify.rechecks")};
    }();
    return m;
  }
};

constexpr std::uint32_t kSlotEmpty = 0;
constexpr std::uint32_t kSlotBusy = 1;
constexpr std::uint32_t kSlotReady = 2;

/// The filter re-scores every representative whose estimate is at least
/// this share of its cluster's largest. The estimate and the exact score
/// are each within two rounding errors of their real values, so the
/// estimate of an exact maximum or tie falls at most about 8 ulps short of
/// the largest; the margin is about 4,500 ulps.
constexpr double kFilterMargin = 1.0 - 1e-12;
/// That error bound needs every product and quotient involved to be a
/// normal double. It holds when the job's norm, every nonzero self norm and
/// the cluster's largest estimate lie in [2^-256, 2^256]; a cluster outside
/// it is re-scored whole.
constexpr double kFilterMin = 0x1p-256;
constexpr double kFilterMax = 0x1p256;

/// One thread's scan buffers, kept from scan to scan and grown to the
/// largest model the thread has scanned: the accumulators and the
/// positions the filter keeps.
struct ScanScratch {
  std::vector<double> dots;
  std::vector<std::uint32_t> hits;
};

ScanScratch& scan_scratch(std::size_t reps) {
  thread_local ScanScratch scratch;
  if (scratch.dots.size() < reps) {
    scratch.dots.resize(reps);
    scratch.hits.resize(reps);
  }
  return scratch;
}

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

Classifier::Classifier(model::FittedModel m, const ScanKernel& kernel)
    : model_((m.validate(), std::move(m))),
      featurizer_(model_.wl, dict_, model_.oov_id()),
      kernel_(&kernel) {
  // Single-threaded interning assigns dense first-seen ids, so dictionary
  // entry i gets id i back — the exact id space the frozen feature vectors
  // were encoded in. validate() has already rejected duplicate signatures,
  // which is what makes this bijective.
  for (const std::string& signature : model_.dictionary) dict_.intern(signature);

  // Flatten the scan order and count each id's holders. Representative
  // addresses are stable from here on: model_ is owned and never reshaped
  // after construction (the serving contract).
  std::size_t reps = 0;
  std::size_t entries = 0;
  for (const auto& cluster : model_.representatives) {
    reps += cluster.size();
    for (const model::Representative& rep : cluster) {
      entries += rep.features.items.size();
    }
  }
  if (reps >= kNone || entries >= kNone) {
    throw model::ModelError("model too large for the serving index");
  }
  const std::size_t ids = model_.dictionary.size();
  std::vector<std::uint32_t> holders(ids, 0);
  cluster_begin_.reserve(model_.representatives.size() + 1);
  self_norm_.reserve(reps);
  filter_scale_.reserve(reps);
  training_index_.reserve(reps);
  nnz_.reserve(reps);
  for (const auto& cluster : model_.representatives) {
    cluster_begin_.push_back(static_cast<std::uint32_t>(self_norm_.size()));
    for (const model::Representative& rep : cluster) {
      const double norm = rep.self_norm;
      self_norm_.push_back(norm);
      double scale = 1.0;
      if (model_.normalize) {
        scale = norm > 0.0 ? 1.0 / norm : 0.0;
        if (norm > 0.0 && (norm < kFilterMin || norm > kFilterMax)) {
          filter_norms_ = false;
        }
      }
      filter_scale_.push_back(scale);
      training_index_.push_back(rep.training_index);
      nnz_.push_back(static_cast<std::uint32_t>(rep.features.items.size()));
      for (const auto& [id, value] : rep.features.items) {
        ++holders[static_cast<std::size_t>(id)];
      }
    }
  }
  cluster_begin_.push_back(static_cast<std::uint32_t>(reps));

  // Pick the dense ids, size the CSR ranges of the rest, then fill both in
  // scan order, which leaves every sparse id's positions ascending. A
  // feature held by at least two-thirds of the representatives is dense:
  // its R doubles cost no more than its 12-byte postings.
  std::vector<std::uint32_t> column(ids, kNone);
  postings_begin_.assign(ids + 1, 0);
  for (std::size_t d = 0; d < ids; ++d) {
    if (3 * std::size_t{holders[d]} >= 2 * reps) {
      column[d] = static_cast<std::uint32_t>(dense_ids_.size());
      dense_ids_.push_back(static_cast<std::uint32_t>(d));
      dense_holders_.push_back(holders[d]);
    } else {
      postings_begin_[d + 1] = holders[d];
    }
  }
  std::partial_sum(postings_begin_.begin(), postings_begin_.end(),
                   postings_begin_.begin());
  postings_rep_.resize(postings_begin_.back());
  postings_value_.resize(postings_begin_.back());
  const std::size_t words = (reps + 63) / 64;
  dense_values_.assign(dense_ids_.size() * reps, 0.0);
  dense_present_.assign(dense_ids_.size() * words, 0);
  std::vector<std::uint32_t> next(postings_begin_.begin(),
                                  postings_begin_.end() - 1);
  std::uint32_t r = 0;
  for (const auto& cluster : model_.representatives) {
    for (const model::Representative& rep : cluster) {
      for (const auto& [id, value] : rep.features.items) {
        const auto d = static_cast<std::size_t>(id);
        if (column[d] != kNone) {
          dense_values_[column[d] * reps + r] = value;
          dense_present_[column[d] * words + r / 64] |= std::uint64_t{1}
                                                        << (r % 64);
        } else {
          const std::uint32_t at = next[d]++;
          postings_rep_[at] = r;
          postings_value_[at] = value;
        }
      }
      ++r;
    }
  }

  // Group representatives by bitwise-identical features: one memo slot per
  // distinct vector, O(total nnz) expected.
  memo_index_.assign(reps == 0 ? 0 : std::bit_ceil(reps + reps / 2 + 1), 0);
  r = 0;
  for (const auto& cluster : model_.representatives) {
    for (const model::Representative& rep : cluster) {
      const std::size_t at = probe(rep.features, bit_hash(rep.features));
      if (memo_index_[at] == 0) {  // no earlier rep holds this vector
        memo_keys_.push_back(r);
        memo_index_[at] = static_cast<std::uint32_t>(memo_keys_.size());
      }
      ++r;
    }
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

const model::Representative& Classifier::representative(
    std::uint32_t r) const noexcept {
  // The last cluster that begins at or before r holds it: an empty cluster
  // begins where the next one does.
  const auto c = static_cast<std::size_t>(
      std::upper_bound(cluster_begin_.begin(), cluster_begin_.end(), r) -
      cluster_begin_.begin() - 1);
  return model_.representatives[c][r - cluster_begin_[c]];
}

bool Classifier::holds(std::uint32_t r,
                       const kernel::SparseVector& phi) const noexcept {
  // Equal counts, and every entry of phi present at r with equal bits
  // (stricter than operator==: 0.0 and -0.0 differ), is bitwise equality.
  // Highest ids first: they are the rarest signatures, so their postings
  // are short and a mismatching key is usually rejected there.
  if (nnz_[r] != phi.items.size()) return false;
  const std::size_t reps = self_norm_.size();
  const std::size_t ids = postings_begin_.size() - 1;
  for (auto entry = phi.items.rbegin(); entry != phi.items.rend(); ++entry) {
    const auto& [id, value] = *entry;
    if (static_cast<std::size_t>(id) >= ids) return false;  // the OOV id
    const auto first = postings_rep_.begin() + postings_begin_[id];
    const auto last = postings_rep_.begin() + postings_begin_[id + 1];
    double held = 0.0;
    if (first != last) {
      const auto at = std::lower_bound(first, last, r);
      if (at == last || *at != r) return false;
      held = postings_value_[static_cast<std::size_t>(
          at - postings_rep_.begin())];
    } else {
      // A dense column holds 0.0 where r lacks the feature, and so can a
      // present entry (a zero iteration weight): its presence bit decides.
      const auto dense = std::lower_bound(dense_ids_.begin(), dense_ids_.end(),
                                          static_cast<std::uint32_t>(id));
      if (dense == dense_ids_.end() ||
          *dense != static_cast<std::uint32_t>(id)) {
        return false;  // no representative holds id
      }
      const auto k = static_cast<std::size_t>(dense - dense_ids_.begin());
      const std::size_t words = (reps + 63) / 64;
      const std::uint64_t word = dense_present_[k * words + r / 64];
      if ((word >> (r % 64) & 1) == 0) return false;
      held = dense_values_[k * reps + r];
    }
    if (std::bit_cast<std::uint64_t>(held) !=
        std::bit_cast<std::uint64_t>(value)) {
      return false;
    }
  }
  return true;
}

std::uint32_t Classifier::scan(const kernel::SparseVector& phi,
                               Prediction& out, ScanCost& cost) const {
  const std::size_t reps = self_norm_.size();
  ScanScratch& scratch = scan_scratch(reps);
  double* const dots = scratch.dots.data();
  std::uint32_t* const hits = scratch.hits.data();

  // dots[r] = <phi, features of representative r>. Each accumulator starts
  // at 0.0 and receives its products in ascending-id order (phi's entries
  // are walked in order, each id once) — the order SparseVector::dot sums
  // matched products in, so every dot has the exact bits it would have
  // there. A dense column adds v * 0.0 = +0.0 where a representative lacks
  // the id, which leaves any accumulator but -0.0 unchanged, and none is
  // -0.0: each starts at +0.0 and adds products of non-negative values.
  // The OOV id sorts last and no representative holds it.
  std::fill_n(dots, reps, 0.0);
  const std::size_t ids = postings_begin_.size() - 1;
  auto dense = dense_ids_.begin();
  for (const auto& [id, value] : phi.items) {
    if (static_cast<std::size_t>(id) >= ids) break;
    const std::uint32_t begin = postings_begin_[id];
    const std::uint32_t end = postings_begin_[id + 1];
    if (begin == end) {  // a dense id, or one nobody holds
      dense = std::lower_bound(dense, dense_ids_.end(),
                               static_cast<std::uint32_t>(id));
      if (dense == dense_ids_.end() ||
          *dense != static_cast<std::uint32_t>(id)) {
        continue;
      }
      const auto k = static_cast<std::size_t>(dense - dense_ids_.begin());
      kernel_->add_column(dots, dense_values_.data() + k * reps, value, reps);
      cost.postings += dense_holders_[k];
      continue;
    }
    for (std::uint32_t p = begin; p < end; ++p) {
      dots[postings_rep_[p]] += value * postings_value_[p];
    }
    cost.postings += end - begin;
  }

  // The filter: estimate = dot * (1 / self_norm), a multiply per
  // representative, and per cluster its largest. The exact score
  // dot / (norm * self_norm) divides the same dot by a product of the same
  // norms, so the two stay within a few ulps of proportional (norm is
  // common to the cluster): every representative whose exact score reaches
  // or ties the cluster's best has an estimate within kFilterMargin of the
  // largest. Only those are re-scored exactly, in scan order, with the
  // per-cluster score and the tie-break below. An unnormalized model's
  // score is the dot itself, so it keeps exactly the cluster's largest.
  const bool normalize = model_.normalize;
  const double norm = phi.norm();
  const bool filter =
      filter_norms_ && norm >= kFilterMin && norm <= kFilterMax;
  const double margin = normalize ? kFilterMargin : 1.0;
  out.scores.assign(model_.num_clusters(), 0.0);
  double best = -std::numeric_limits<double>::infinity();
  std::uint64_t best_index = std::numeric_limits<std::uint64_t>::max();
  int best_cluster = 0;
  std::uint32_t nearest = kNone;
  for (std::size_t c = 0; c + 1 < cluster_begin_.size(); ++c) {
    const std::uint32_t begin = cluster_begin_[c];
    const std::size_t n = cluster_begin_[c + 1] - begin;
    double top = 0.0;
    std::size_t kept = kernel_->filter(
        dots + begin, filter_scale_.data() + begin, n, margin, hits, top);
    if (normalize && !(filter && top >= kFilterMin && top <= kFilterMax)) {
      // Outside the error bound's range: re-score the whole cluster.
      std::iota(hits, hits + n, 0u);
      kept = n;
    }
    cost.rechecks += kept;
    double& score = out.scores[c];
    for (std::size_t k = 0; k < kept; ++k) {
      const std::uint32_t r = begin + hits[k];
      double sim = dots[r];
      if (normalize) {
        const double denom = norm * self_norm_[r];
        sim = denom > 0.0 ? sim / denom : 0.0;
      }
      if (sim > score) score = sim;
      // Ties go to the lowest training index, so the answer does not depend
      // on the scan order.
      if (sim > best || (sim == best && training_index_[r] < best_index)) {
        best = sim;
        best_index = training_index_[r];
        best_cluster = static_cast<int>(c);
        nearest = r;
      }
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
    ScanCost cost;
    nearest = scan(phi, out, cost);
    metrics.scans->add();
    metrics.postings->add(cost.postings);
    metrics.rechecks->add(cost.rechecks);
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
  if (nearest != kNone) out.nearest_job = representative(nearest).job_name;
  const model::ClusterProfile& profile =
      model_.profiles[static_cast<std::size_t>(out.cluster)];
  out.predicted_critical_path = profile.median_critical_path;
  out.predicted_width = profile.median_width;

  metrics.classified->add();
  if (out.oov_hits > 0) metrics.oov_jobs->add();
  return out;
}

}  // namespace cwgl::serve

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/job_dag.hpp"
#include "kernel/wl.hpp"
#include "model/model.hpp"
#include "serve/scan_kernel.hpp"

namespace cwgl::serve {

/// One classification outcome for a job DAG.
struct Prediction {
  int cluster = 0;                 ///< assigned group id (0 = 'A')
  char cluster_letter = 'A';
  double similarity = 0.0;         ///< score against the nearest representative
  std::vector<double> scores;      ///< best score per cluster, index = group
  std::string nearest_job;         ///< trace name of the nearest representative
  std::size_t oov_hits = 0;        ///< WL lookups that fell in the OOV bucket

  /// Structure forecast replayed from the assigned cluster's profile
  /// (medians — robust to the groups' heavy size tails).
  double predicted_critical_path = 0.0;
  double predicted_width = 0.0;
};

/// Classifier over a fitted model snapshot — the serving half of the
/// train/serve split.
///
/// Construction rehydrates the frozen signature dictionary (interning the
/// stored signatures in order reproduces ids 0..n-1 exactly, because
/// SignatureDictionary assigns ids in first-seen order) and wires a
/// FrozenWlFeaturizer over it. After the constructor returns the model, the
/// dictionary and the scan order never change: classify() is const, reads
/// the dictionary through its lock-free const find() (concurrent const
/// reads of a map nothing writes do not race), and maps unseen signatures
/// to the model's reserved OOV id. The one piece of mutable state is the
/// answer memo (below), whose slots are each filled at most once and
/// published with a compare-and-swap. Any number of threads may call
/// classify() concurrently — the TSan configuration holds this to account.
///
/// A job is assigned to the cluster of its most similar representative
/// (normalized kernel similarity when the model was fitted with
/// normalization, raw kernel value otherwise). A sampled fit keeps every
/// sampled training job as a representative and a full fit keeps one per
/// distinct shape, so classifying a training job scores 1 against its own
/// representative and reproduces the fit's cluster assignment. Ties break
/// toward the representative with the lowest training index, making
/// results independent of iteration order.
///
/// Representative index: the constructor inverts the representatives'
/// feature vectors into a feature-major index keyed by dictionary id. A
/// feature held by at least two-thirds of the representatives is a dense
/// column of one double per representative (0.0 where it is absent, plus a
/// presence bit); every other feature keeps CSR postings, the scan
/// positions of the representatives that hold it (ascending) and their
/// values. A scan walks the job's own entries in ascending id: a dense id
/// adds `v * column` to every accumulator at vector width, a sparse id adds
/// into the accumulators of its holders, and the OOV id has no postings.
/// Then one multiply-only pass estimates every normalized score, a
/// per-cluster maximum bounds them, and only the representatives within a
/// relative 1e-12 of their cluster's best are re-scored with the exact
/// division and tie-break. *Exactness:* every accumulator starts at 0.0
/// and receives its products in ascending-id order, the order
/// kernel::SparseVector::dot sums them in, with no fused multiply-add; an
/// absent dense entry adds +0.0 to an accumulator that is never -0.0; and
/// the estimate is a few ulps from the exact score, so every
/// representative that can reach or tie its cluster's exact best is
/// re-scored. Each similarity, score, nearest representative and tie has
/// the bits a per-representative dot would give (DESIGN.md §12).
/// *Memory:* the index replaces the vectors instead of sitting beside them
/// — the constructor releases every Representative::features once the
/// index is built. A dense column is never larger than the 12-byte
/// postings it replaces, bar its R/8 bytes of presence bits. A reloading
/// daemon holds two Classifiers at once; each thread that scans keeps one
/// scratch of 12 bytes per representative.
///
/// Answer memo: the scan is a pure function of the job's feature vector,
/// so a job whose vector bitwise-equals some representative's gets the
/// answer an earlier such job already paid for. There is one slot per
/// distinct representative vector, filled by the first scan that matches
/// it; a job's vector is matched against a slot's key through the index
/// (equal entry count, and every entry present at that representative with
/// equal bits). Memory is bounded by the model, not by traffic, and a hit
/// returns exactly the bits a fresh scan would (DESIGN.md §12 "Answer
/// memo").
class Classifier {
 public:
  /// Takes ownership of the snapshot. Throws model::ModelError if the model
  /// fails validation (a snapshot from load_model() is already validated).
  /// `kernel` runs the scan's vector loops: by default the widest variant
  /// this CPU runs; every variant gives the same bits.
  explicit Classifier(model::FittedModel m,
                      const ScanKernel& kernel = scan_kernel());

  Classifier(const Classifier&) = delete;
  Classifier& operator=(const Classifier&) = delete;

  /// Classifies one job DAG. Applies the model's own featurization recipe:
  /// conflation first when the model was fitted on conflated DAGs, task-type
  /// vertex labels when it was fitted with them. Thread-safe.
  Prediction classify(const core::JobDag& job) const;

  /// Classifies a pre-labeled graph directly (the job-independent core of
  /// classify(); exposed for kernel-level tests). Thread-safe.
  Prediction classify_graph(const kernel::LabeledGraph& g) const;

  /// Number of clusters a prediction can name (0 = 'A').
  std::size_t num_clusters() const noexcept { return model_.num_clusters(); }

  /// Size of the frozen dictionary — by the serving contract this value
  /// never changes after construction; tests assert it across heavy
  /// concurrent classify() load.
  std::size_t dictionary_size() const noexcept { return dict_.size(); }

 private:
  /// Applies the model's labeling switch to produce the kernel-form graph.
  kernel::LabeledGraph make_labeled(const core::JobDag& job) const;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// What one scan cost: the postings of the job's ids it visited (a dense
  /// column counts its holders) and the representatives it re-scored
  /// exactly.
  struct ScanCost {
    std::uint64_t postings = 0;
    std::uint64_t rechecks = 0;
  };

  /// Scores `phi` against every representative through the index, filling
  /// out.scores, out.similarity and out.cluster, and adds what it cost to
  /// `cost`. Returns the scan position of the nearest representative, or
  /// kNone when nothing beat -infinity.
  std::uint32_t scan(const kernel::SparseVector& phi, Prediction& out,
                     ScanCost& cost) const;

  /// True when `phi` bitwise-equals the feature vector of the representative
  /// at scan position `r`, as the index holds it.
  bool holds(std::uint32_t r, const kernel::SparseVector& phi) const noexcept;

  /// Position in memo_index_ of the slot whose key bitwise-equals `phi`
  /// (hash `h`), or of the empty entry where that slot would go. Requires a
  /// non-empty index.
  std::size_t probe(const kernel::SparseVector& phi,
                    std::uint64_t h) const noexcept;

  /// The representative at scan position `r`.
  const model::Representative& representative(std::uint32_t r) const noexcept;

  model::FittedModel model_;
  kernel::SignatureDictionary dict_;
  kernel::FrozenWlFeaturizer featurizer_;
  const ScanKernel* kernel_;

  /// The scan order: clusters ascending, then each cluster's
  /// representatives in model order, so cluster c holds positions
  /// [cluster_begin_[c], cluster_begin_[c + 1]). Accumulator r of a scan
  /// belongs to position r; the arrays below are indexed by it.
  std::vector<std::uint32_t> cluster_begin_;
  std::vector<double> self_norm_;
  /// What the filter multiplies a dot by: 1 / self_norm (0 for a zero
  /// vector) in a normalized model, 1 in an unnormalized one.
  std::vector<double> filter_scale_;
  std::vector<std::uint64_t> training_index_;
  std::vector<std::uint32_t> nnz_;
  /// False when some self norm lies outside the range in which the filter's
  /// error bound holds; every scan then re-scores every representative.
  bool filter_norms_ = true;

  /// The sparse features in CSR form: the postings of dictionary id d are
  /// positions [postings_begin_[d], postings_begin_[d + 1]) of
  /// postings_rep_ (scan positions, ascending) and postings_value_ (that
  /// representative's feature value for d). A dense id's range is empty.
  std::vector<std::uint32_t> postings_begin_;
  std::vector<std::uint32_t> postings_rep_;
  std::vector<double> postings_value_;

  /// The dense features, ascending by id: column k holds dense_values_
  /// [k * R, (k + 1) * R) (0.0 where a representative lacks the feature)
  /// and presence bits dense_present_[k * W, (k + 1) * W) with W = ceil(R
  /// / 64); dense_holders_[k] counts the representatives that hold it.
  std::vector<std::uint32_t> dense_ids_;
  std::vector<std::uint32_t> dense_holders_;
  std::vector<double> dense_values_;
  std::vector<std::uint64_t> dense_present_;

  /// A memo slot's answer. `state` goes empty -> busy (the one CAS, won by
  /// a single writer) -> ready (release store after the payload is written);
  /// readers touch the payload only after an acquire load sees ready.
  struct MemoSlot {
    std::atomic<std::uint32_t> state{0};
    std::uint32_t nearest = kNone;  ///< scan position of the nearest rep
    int cluster = 0;
  };
  /// Slot s's key is the feature vector of the representative at scan
  /// position memo_keys_[s], the first of the representatives sharing that
  /// bitwise-identical vector.
  std::vector<std::uint32_t> memo_keys_;
  /// Open-addressing index over the slots (slot + 1; 0 = empty), at most
  /// two-thirds full, so every probe sequence ends at an empty entry.
  std::vector<std::uint32_t> memo_index_;
  mutable std::vector<MemoSlot> memo_;
  /// Slot s's similarity, then its per-cluster scores, at
  /// [s * (num_clusters + 1), (s + 1) * (num_clusters + 1)).
  mutable std::vector<double> memo_values_;
};

}  // namespace cwgl::serve

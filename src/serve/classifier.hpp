#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/job_dag.hpp"
#include "kernel/wl.hpp"
#include "model/model.hpp"

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
/// feature vectors into a feature-major (CSR) index keyed by dictionary id —
/// for each id, the scan positions of the representatives that hold it
/// (ascending) and their values. A scan walks the job's own entries in
/// ascending id and adds each product into one accumulator per
/// representative, so its cost is the postings those ids carry
/// (`serve.classify.postings`) plus one pass over the accumulators, not
/// representatives × a sparse merge; the OOV id has no postings. *Exactness:* every accumulator starts at 0.0 and
/// receives its products in ascending-id order, the order
/// kernel::SparseVector::dot sums them in, so each similarity, score,
/// nearest representative and tie has the bits a per-representative dot
/// would give. *Memory:* the index replaces the vectors instead of sitting
/// beside them — the constructor releases every Representative::features
/// once the index is built, and 12 bytes per posting plus 4 per dictionary
/// id undercut the 16 bytes per entry (and one allocation per vector) the
/// vectors held. This matters because a reloading daemon holds two
/// Classifiers at once.
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
  explicit Classifier(model::FittedModel m);

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

  /// Scores `phi` against every representative through the index, filling
  /// out.scores, out.similarity and out.cluster, and adds the number of
  /// postings it visited to `postings`. Returns the scan_ index of the
  /// nearest representative, or kNone when nothing beat -infinity.
  std::uint32_t scan(const kernel::SparseVector& phi, Prediction& out,
                     std::uint64_t& postings) const;

  /// True when `phi` bitwise-equals the feature vector of the representative
  /// at scan position `r`, as the index holds it.
  bool holds(std::uint32_t r, const kernel::SparseVector& phi) const noexcept;

  /// Position in memo_index_ of the slot whose key bitwise-equals `phi`
  /// (hash `h`), or of the empty entry where that slot would go. Requires a
  /// non-empty index.
  std::size_t probe(const kernel::SparseVector& phi,
                    std::uint64_t h) const noexcept;

  /// One representative in the flattened scan order (clusters ascending,
  /// then each cluster's reps in model order — exactly the order the old
  /// nested loop visited, so the tie-break outcome is unchanged). `rep`'s
  /// features are released after construction; `nnz` keeps their count.
  struct ScanEntry {
    const model::Representative* rep;
    int cluster;
    std::uint32_t nnz;
  };

  model::FittedModel model_;
  kernel::SignatureDictionary dict_;
  kernel::FrozenWlFeaturizer featurizer_;
  /// Flattened over model_.representatives at construction; accumulator i
  /// of a scan belongs to scan_[i].
  std::vector<ScanEntry> scan_;

  /// The representative index in CSR form: the postings of dictionary id d
  /// are positions [postings_begin_[d], postings_begin_[d + 1]) of
  /// postings_rep_ (scan_ indices, ascending) and postings_value_ (that
  /// representative's feature value for d).
  std::vector<std::uint32_t> postings_begin_;
  std::vector<std::uint32_t> postings_rep_;
  std::vector<double> postings_value_;

  /// A memo slot's answer. `state` goes empty -> busy (the one CAS, won by
  /// a single writer) -> ready (release store after the payload is written);
  /// readers touch the payload only after an acquire load sees ready.
  struct MemoSlot {
    std::atomic<std::uint32_t> state{0};
    std::uint32_t nearest = kNone;  ///< scan_ index of the nearest rep
    int cluster = 0;
  };
  /// Slot s's key is the feature vector of representative
  /// scan_[memo_keys_[s]], the first of the representatives sharing that
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

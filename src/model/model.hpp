#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/types.hpp"
#include "kernel/wl.hpp"
#include "util/error.hpp"

namespace cwgl::model {

/// Raised when a model snapshot cannot be decoded or fails validation —
/// truncated files, bad magic/version, CRC mismatches, and semantic
/// violations (non-dense dictionary ids, non-finite norms, ...). Derives
/// from util::Error so `catch (const util::Error&)` intercepts it like any
/// other library failure; it is its own type so tests can assert that a
/// corrupt model is rejected by the FORMAT layer, not by some downstream
/// accident.
class ModelError : public util::Error {
 public:
  explicit ModelError(const std::string& what) : util::Error(what) {}
};

/// Per-cluster aggregate profile, frozen from the fit-time
/// core::ClusterGroupStats. Serving returns these as the *predicted*
/// structure statistics of a newly classified job (the paper's Fig. 9 view
/// of each group, replayed as a forecast).
struct ClusterProfile {
  std::uint64_t population = 0;        ///< training jobs in the group
  double population_fraction = 0.0;    ///< share of the training set
  double mean_size = 0.0;              ///< tasks per job
  double median_size = 0.0;
  double mean_critical_path = 0.0;     ///< vertices on the longest path
  double median_critical_path = 0.0;
  double mean_width = 0.0;             ///< max level population
  double median_width = 0.0;
  double chain_fraction = 0.0;         ///< share of straight-chain jobs
  double short_job_fraction = 0.0;     ///< share of jobs with < 3 tasks
  /// Index into this cluster's representative list of the most central
  /// member (the Fig. 8 representative DAG).
  std::uint64_t medoid = 0;

  friend bool operator==(const ClusterProfile&, const ClusterProfile&) = default;
};

/// One frozen training job: its WL feature vector in the frozen dictionary's
/// id space plus the precomputed self-kernel norm sqrt(<phi,phi>), so
/// serving computes a normalized similarity with one sparse dot product.
struct Representative {
  std::string job_name;            ///< trace job id, for explainability
  std::uint64_t training_index = 0;  ///< row in the fit-time Gram matrix
  double self_norm = 0.0;          ///< Euclidean norm of `features`
  kernel::SparseVector features;   ///< raw (pre-normalization) WL vector
  /// Training jobs this representative stands for. 1 on a direct fit (one
  /// rep per training job); the shape multiplicity on a shape-interned fit,
  /// where one rep stands for every job sharing its DAG shape. Per-cluster
  /// counts sum to the profile's population.
  std::uint64_t count = 1;

  friend bool operator==(const Representative&, const Representative&) = default;
};

/// The most WL iterations a snapshot may record; `validate` rejects more.
inline constexpr int kMaxWlIterations = 64;

/// A fitted characterization snapshot: everything `serve::Classifier` needs
/// to assign a cluster to a never-before-seen job DAG, decoupled from the
/// trace and the pipeline that produced it.
///
/// By default every training job is kept as a representative of its cluster
/// (the experiment set is 100 jobs — a few hundred KB). That choice is what
/// makes the train/serve round trip EXACT: a training job scores normalized
/// similarity 1 against itself, so nearest-representative classification
/// reproduces the pipeline's own cluster assignment.
struct FittedModel {
  /// WL kernel configuration the dictionary was built under. Serving must
  /// featurize with exactly these settings or ids would be meaningless.
  kernel::WlConfig wl;
  bool use_type_labels = true;   ///< vertices labeled by task type (M/R/J)
  bool normalize = true;         ///< cosine-normalized similarity scores
  bool conflated = false;        ///< classify conflated DAGs (ablation A3 fit)

  /// Frozen signature dictionary: entry i is the byte-signature interned
  /// with id i. Serving maps unseen signatures to `oov_id()` instead of
  /// growing this.
  std::vector<std::string> dictionary;

  /// Per-cluster aggregates, index = group id (0 = 'A', the most populous).
  std::vector<ClusterProfile> profiles;

  /// representatives[c] are the frozen members of cluster c.
  std::vector<std::vector<Representative>> representatives;

  std::size_t num_clusters() const noexcept { return profiles.size(); }

  /// Total frozen representatives across all clusters.
  std::size_t training_jobs() const noexcept;

  /// Total training jobs the representatives stand for (sum of counts).
  /// Equals training_jobs() on a direct fit; >= it on a shape-interned fit.
  std::uint64_t training_weight() const noexcept;

  /// The reserved out-of-vocabulary feature id: one past the last real id.
  int oov_id() const noexcept { return static_cast<int>(dictionary.size()); }

  /// Letter name of cluster `c` as the paper uses ('A' = largest).
  static char letter(std::size_t c) noexcept {
    return static_cast<char>('A' + c);
  }

  /// Checks every semantic invariant (dense unique dictionary, ascending
  /// in-vocabulary feature ids, finite norms consistent with the vectors,
  /// medoids in range, unique training indices, profile sanity). Throws
  /// ModelError naming the first violation. load_model() always runs this;
  /// fit runs it before writing so a bad model is never persisted.
  void validate() const;

  friend bool operator==(const FittedModel&, const FittedModel&) = default;
};

}  // namespace cwgl::model

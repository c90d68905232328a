#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/job_dag.hpp"
#include "kernel/wl.hpp"
#include "linalg/matrix.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

/// Options for the similarity-map stage (Figure 7).
struct SimilarityOptions {
  /// WL kernel configuration. The pipeline defaults to ONE refinement
  /// iteration: job DAGs are shallow (critical paths 2..8), and h = 1 is
  /// what reproduces the paper's Fig. 7/9 observations — small jobs score
  /// systematically higher pairwise similarity, and the dominant cluster
  /// group is the small-chain group. Deeper refinement (see ablation A1)
  /// drives tiny jobs of different sizes apart instead. The kernel
  /// library's own default stays at the literature-standard h = 3.
  kernel::WlConfig wl = [] {
    kernel::WlConfig c;
    c.iterations = 1;
    return c;
  }();
  bool normalize = true;   ///< cosine-normalize into [0,1]
  bool use_type_labels = true;  ///< label vertices by task type (M/R/J)
};

/// The fitted state of a similarity run, exported for the model store: the
/// raw (pre-normalization) WL feature vector of every analyzed job plus the
/// frozen signature dictionary that gives those vectors meaning.
///
/// Featurization is serial, so dictionary ids are dense in first-seen order
/// and a model's bytes are a pure function of the input trace and config.
struct FittedFeatures {
  /// vectors[i] belongs to jobs[i]; ids index into `dictionary`.
  std::vector<kernel::SparseVector> vectors;
  /// Entry i is the signature interned with id i (dense, first-seen order).
  std::vector<std::string> dictionary;
};

/// WL-featurizes `jobs` in order through one fresh dictionary, under
/// `options.wl`, with task-type vertex labels when
/// `options.use_type_labels`. The one featurize step of the sampled and
/// full-trace pipelines.
FittedFeatures featurize_jobs(std::span<const JobDag> jobs,
                              const SimilarityOptions& options);

/// The pairwise WL similarity analysis over an experiment set.
struct SimilarityAnalysis {
  linalg::Matrix gram;                 ///< n x n similarity scores
  std::vector<std::string> job_names;  ///< row/column identities

  /// Aggregates quoted in the paper's Fig. 7 discussion: small jobs with
  /// short tails score systematically higher pairwise similarity.
  struct Stats {
    double mean_offdiag = 0.0;
    double min_offdiag = 0.0;
    double max_offdiag = 0.0;
    /// Mean pairwise similarity among jobs with <= small_threshold tasks.
    double small_pair_mean = 0.0;
    /// Mean pairwise similarity among jobs with > small_threshold tasks.
    double large_pair_mean = 0.0;
    int small_threshold = 5;
  };

  /// Featurizes serially (featurize_jobs); `pool` runs the Gram dot
  /// products. When `fitted` is non-null it receives the fitted state (see
  /// FittedFeatures); Gram values are identical either way.
  static SimilarityAnalysis compute(std::span<const JobDag> jobs,
                                    const SimilarityOptions& options = {},
                                    util::ThreadPool* pool = nullptr,
                                    FittedFeatures* fitted = nullptr);

  Stats stats(std::span<const JobDag> jobs, int small_threshold = 5) const;
};

}  // namespace cwgl::core

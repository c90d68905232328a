#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "cluster/agreement.hpp"
#include "cluster/scale.hpp"
#include "core/characterization.hpp"
#include "core/clustering.hpp"
#include "core/ingest.hpp"
#include "core/job_dag.hpp"
#include "core/similarity.hpp"
#include "trace/filter.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

/// How the experiment set is drawn from the filtered workload.
enum class SamplingMode {
  /// Size-coverage first, then natural fill (the paper's Variability
  /// criterion: "17 different size types").
  VariabilityStratified,
  /// Plain uniform draw — preserves the workload's bottom-heavy population,
  /// which drives the cluster-group shares of Fig. 9.
  Natural,
};

/// End-to-end configuration of the paper's analysis pipeline.
struct PipelineConfig {
  /// Sampling filters (Integrity + Availability + DAG, Section IV-B).
  trace::SamplingCriteria criteria;
  /// Experiment-set size (the paper samples 100 jobs).
  std::size_t sample_size = 100;
  std::uint64_t sample_seed = 7;
  SamplingMode sampling = SamplingMode::VariabilityStratified;
  /// Similarity stage (Fig. 7).
  SimilarityOptions similarity;
  /// Clustering stage (Figs. 8-9).
  ClusteringOptions clustering;
  /// Run the similarity/clustering stages on conflated DAGs instead of the
  /// raw ones (ablation A3); structural reports always cover both.
  bool analyze_conflated = false;
  /// Full-trace runs (run_full) only: scalable clustering backend.
  cluster::ScaleMethod full_method = cluster::ScaleMethod::MiniBatch;
  /// Full-trace runs only: jobs sampled (uniformly, seeded by sample_seed)
  /// to validate full-trace labels against the exact spectral pipeline.
  /// Clamped to the dense-path guard; 0 skips validation.
  std::size_t full_validation_sample = 200;
};

/// The experiment set's distinct shapes, which the costly stages of a
/// sampled run (featurize, Gram, eigensolve, k-means, silhouette, medoid)
/// run once each.
struct InternedAnalysis {
  /// Distinct raw shapes of the experiment set, first-seen order.
  ShapeTable table;
  /// table row of each sample job (parallel to PipelineResult::sample).
  std::vector<std::uint32_t> shape_of;
  /// Intern-table hit/miss/probe counters.
  ShapeStore::Stats stats;
};

/// Result of clustering EVERY eligible job of a trace (run_full): the
/// learning stage runs once per distinct shape, count-weighted, through
/// cluster::cluster_at_scale — no n x n Gram is ever materialized, so the
/// learning stage's memory is bounded by distinct shapes, not jobs;
/// `shape_of` (4 bytes a job) is the result's one per-job term.
struct FullTraceResult {
  /// Distinct shapes of the whole eligible workload, first-seen order.
  ShapeTable table;
  /// Shape id of every built job, in trace order.
  std::vector<std::uint32_t> shape_of;
  ShapeStore::Stats stats;            ///< intern hit/miss/probe counters
  /// Cluster id per distinct shape, relabeled by descending weighted mass
  /// (group 0 = 'A' = most jobs, matching the paper's naming). A job's
  /// label is shape_labels[shape_of[i]].
  std::vector<int> shape_labels;
  /// Count-weighted per-group statistics. Unlike the sampled pipeline's
  /// groups, `medoid` here is a SHAPE id (index into table), not a job
  /// index: the member shape nearest the group's weighted feature mean.
  std::vector<ClusterGroupStats> groups;
  cluster::ScaleMethod method = cluster::ScaleMethod::MiniBatch;
  bool degraded = false;              ///< landmark fell back to mini-batch
  double inertia = 0.0;
  std::size_t landmarks = 0;          ///< landmark path only
  std::size_t embedding_dims = 0;     ///< landmark path only
  /// Full-trace labels vs the exact spectral pipeline on a shared uniform
  /// job subsample (items == 0 when validation was skipped).
  cluster::AgreementReport agreement;

  std::uint64_t total_jobs() const noexcept { return table.total_jobs; }

  /// Expanded per-job labels (trace order) — convenience for consumers
  /// that need one label per job rather than per shape.
  std::vector<int> job_labels() const;
};

/// Everything the paper's evaluation reports, computed in one pass. Every
/// report is per job, in sample order.
struct PipelineResult {
  TraceCensus census;                    ///< Section II-B statistics
  std::vector<JobDag> sample;            ///< the experiment set (raw DAGs)
  ConflationReport conflation;           ///< Fig. 3
  StructuralReport structure_before;     ///< Fig. 4
  StructuralReport structure_after;      ///< Fig. 5
  TaskTypeReport task_types;             ///< Fig. 6
  PatternCensus patterns;                ///< Section V-B frequencies
  SimilarityAnalysis similarity;         ///< Fig. 7
  ClusteringAnalysis clustering;         ///< Figs. 8-9
  InternedAnalysis interned;             ///< the sample's distinct shapes
};

/// Orchestrates trace -> filters -> variability sample -> DAGs -> reports.
class CharacterizationPipeline {
 public:
  explicit CharacterizationPipeline(PipelineConfig config = {});

  const PipelineConfig& config() const noexcept { return config_; }

  /// Builds the filtered, variability-stratified experiment set.
  std::vector<JobDag> build_sample(const trace::Trace& trace) const;

  /// Streams a `batch_task.csv` and builds every DAG job passing this
  /// pipeline's criteria, without materializing the trace. With a pool,
  /// every worker reads, parses and builds its own chunks of the file
  /// (see core::stream_dag_jobs).
  std::vector<JobDag> build_all_dags(std::istream& task_csv,
                                     util::ThreadPool* pool = nullptr,
                                     IngestStats* stats = nullptr) const;

  /// Full analysis of a trace. The sample is interned and the similarity
  /// and clustering stages run once per distinct shape; the result equals
  /// the per-job analysis of the sample (see ClusteringAnalysis::compute).
  /// `pool` parallelizes conflation and the Gram matrix. When `fitted` is
  /// non-null the similarity stage additionally exports its fitted state
  /// (one feature vector per distinct shape of the analysis set — conflated
  /// when `analyze_conflated` — plus the frozen dictionary); this is the
  /// train-side hook the model store builds a serving snapshot from.
  PipelineResult run(const trace::Trace& trace,
                     util::ThreadPool* pool = nullptr,
                     FittedFeatures* fitted = nullptr) const;

  /// Clusters EVERY eligible job of the trace (no sampling): intern all
  /// shapes, featurize once per distinct shape, cluster count-weighted
  /// sparse features via cluster_at_scale (config().full_method), and
  /// validate against the exact spectral pipeline on a shared uniform
  /// subsample (config().full_validation_sample jobs). With a pool of 2 or
  /// more workers that exact side runs on a worker while the caller
  /// clusters; the result is the same either way. When `fitted` is
  /// non-null the per-shape feature vectors + frozen dictionary are
  /// exported — the train-side hook `cwgl fit --full` builds snapshots
  /// from. Throws InvalidArgument when no eligible DAG jobs exist.
  FullTraceResult run_full(const trace::Trace& trace,
                           util::ThreadPool* pool = nullptr,
                           FittedFeatures* fitted = nullptr) const;

  /// Streaming overload: same result straight from a `batch_task.csv`
  /// stream (core::stream_shape_jobs machinery — with a pool every worker
  /// parses, builds and interns its own chunks). Each job is interned as
  /// soon as its rows are grouped, so no task row outlives its job. A
  /// job's rows must be contiguous: a stream whose jobs reappear after
  /// their group closed (stats->stream.fragmented > 0) throws ParseError,
  /// and a stream that went bad mid-read throws Error, both before
  /// anything is clustered.
  FullTraceResult run_full(std::istream& task_csv,
                           util::ThreadPool* pool = nullptr,
                           FittedFeatures* fitted = nullptr,
                           IngestStats* stats = nullptr) const;

 private:
  /// The learning stage both run_full overloads share; puts
  /// `validate_wait_us` on their `pipeline.run_full` span.
  FullTraceResult run_full_table(ShapeTable table,
                                 std::vector<std::uint32_t> shape_of,
                                 ShapeStore::Stats stats,
                                 util::ThreadPool* pool,
                                 FittedFeatures* fitted,
                                 obs::Span& run_span) const;

  PipelineConfig config_;
};

/// Builds every valid DAG job in a trace (no sampling) — used by the
/// census-scale figures (Fig. 3 runs over the full filtered workload).
std::vector<JobDag> build_all_dag_jobs(const trace::Trace& trace,
                                       const trace::SamplingCriteria& criteria);

/// Streaming overload: same result on sorted (non-fragmented) traces, but
/// reads straight from a `batch_task.csv` stream with bounded memory —
/// this is the entry point sized for the real 270 GB file.
std::vector<JobDag> build_all_dag_jobs(std::istream& task_csv,
                                       const trace::SamplingCriteria& criteria,
                                       util::ThreadPool* pool = nullptr,
                                       IngestStats* stats = nullptr);

}  // namespace cwgl::core

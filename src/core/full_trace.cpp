#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <istream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cluster/spectral.hpp"
#include "core/pipeline.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

namespace {

/// The validation's exact side: the shape of every sampled job, and the
/// exact spectral pipeline's labels for those jobs.
struct ExactReference {
  std::vector<std::size_t> sample_shape;
  std::vector<int> labels;
};

/// Runs `work` on a pool worker beside the caller's own work, or, without
/// a pool, on a 1-worker pool or when the submission fails, inline at
/// join(). The work may read the caller's locals: declare this after them,
/// and the destructor waits for it on every exit path.
class Overlapped {
 public:
  Overlapped(util::ThreadPool* pool, std::function<ExactReference()> work)
      : pool_(pool), work_(std::move(work)) {
    if (pool_ == nullptr || pool_->size() <= 1) return;
    try {
      pending_ = pool_->submit([this] { return work_(); });
    } catch (const std::exception&) {
      // Not queued: join() runs it inline.
    }
  }
  Overlapped(const Overlapped&) = delete;
  Overlapped& operator=(const Overlapped&) = delete;
  ~Overlapped() { settle(); }

  /// The work's result, or its exception.
  ExactReference join() {
    if (!pending_.valid()) return work_();
    settle();
    return pending_.get();
  }

 private:
  /// Waits for the submitted work, running queued pool tasks meanwhile
  /// (util::parallel_for_chunked's rule), so a caller that is itself a
  /// pool task cannot starve it of a worker.
  void settle() {
    if (!pending_.valid()) return;
    while (pending_.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!pool_->run_pending_task()) pending_.wait();
    }
  }

  util::ThreadPool* pool_;
  std::function<ExactReference()> work_;
  std::future<ExactReference> pending_;
};

}  // namespace

std::vector<int> FullTraceResult::job_labels() const {
  std::vector<int> out;
  out.reserve(shape_of.size());
  for (std::uint32_t s : shape_of) out.push_back(shape_labels[s]);
  return out;
}

FullTraceResult CharacterizationPipeline::run_full(const trace::Trace& trace,
                                                   util::ThreadPool* pool,
                                                   FittedFeatures* fitted) const {
  obs::Span span("pipeline.run_full");
  ShapeStore store;
  std::vector<const ShapeStore::Node*> handles;
  {
    obs::Span intern_span("pipeline.full_intern");
    const trace::TraceIndex index(trace);
    const auto eligible = trace::select_jobs(index, config_.criteria);
    handles.reserve(eligible.size());
    std::uint64_t seq = 0;
    // One JobDag in flight at a time: each build is interned immediately,
    // so live DAG memory stays bounded by distinct shapes even when every
    // job of the trace is eligible (the trace itself is the caller's).
    for (std::size_t g : eligible) {
      const trace::JobGroup& group = index.jobs()[g];
      std::vector<trace::TaskRecord> records;
      records.reserve(group.tasks.size());
      for (std::size_t i : group.tasks) records.push_back(trace.tasks[i]);
      if (auto job = build_job_dag(group.job_name, records)) {
        handles.push_back(store.intern(std::move(*job), seq++));
      }
    }
    intern_span.arg("jobs", handles.size());
  }
  ShapeStore::FrozenView view = store.freeze_with_ids();
  std::vector<std::uint32_t> shape_of;
  shape_of.reserve(handles.size());
  for (const ShapeStore::Node* node : handles) {
    shape_of.push_back(view.id_of.at(node));
  }
  return run_full_table(std::move(view.table), std::move(shape_of),
                        store.stats(), pool, fitted, span);
}

FullTraceResult CharacterizationPipeline::run_full(std::istream& task_csv,
                                                   util::ThreadPool* pool,
                                                   FittedFeatures* fitted,
                                                   IngestStats* stats) const {
  obs::Span span("pipeline.run_full");
  IngestOptions options;
  options.criteria = config_.criteria;
  InternedIngest ingest;
  {
    obs::Span intern_span("pipeline.full_intern");
    ingest = stream_shape_jobs(task_csv, options, pool);
    intern_span.arg("jobs", ingest.shape_of.size());
  }
  if (stats != nullptr) *stats = ingest.stats;
  // Both failures would otherwise cluster a silently smaller workload: a
  // stream that died mid-read ends like a short file, and a job whose rows
  // reappear after its group closed is interned as two separate jobs.
  if (task_csv.bad()) {
    throw util::Error("run_full: I/O error while reading the task stream");
  }
  if (const std::size_t fragmented = ingest.stats.stream.fragmented) {
    throw util::ParseError(
        "run_full: " + std::to_string(fragmented) +
        " job group(s) reappear after their job's rows ended; a job's "
        "task rows must be contiguous (sort batch_task.csv by job)");
  }
  return run_full_table(std::move(ingest.table), std::move(ingest.shape_of),
                        ingest.intern, pool, fitted, span);
}

FullTraceResult CharacterizationPipeline::run_full_table(
    ShapeTable table, std::vector<std::uint32_t> shape_of,
    ShapeStore::Stats stats, util::ThreadPool* pool, FittedFeatures* fitted,
    obs::Span& run_span) const {
  FullTraceResult result;
  result.table = std::move(table);
  result.shape_of = std::move(shape_of);
  result.stats = stats;
  const std::size_t m = result.table.size();
  if (m == 0) {
    throw util::InvalidArgument("run_full: no eligible DAG jobs in trace");
  }
  if (config_.clustering.clusters < 1) {
    throw util::InvalidArgument("run_full: need at least 1 cluster");
  }

  const std::vector<JobDag>& exemplars = result.table.exemplars;
  std::vector<JobDag> conflated;
  if (config_.analyze_conflated) {
    conflated.resize(m);
    const auto conflate_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        conflated[i] = conflate_job(exemplars[i]);
      }
    };
    if (pool != nullptr) {
      util::parallel_for_chunked(*pool, 0, m, 16, conflate_range);
    } else {
      conflate_range(0, m);
    }
  }
  const std::vector<JobDag>& analysis_shapes =
      config_.analyze_conflated ? conflated : exemplars;

  // Featurize once per distinct shape, through the sampled pipeline's step.
  FittedFeatures local_features;
  FittedFeatures& features = fitted != nullptr ? *fitted : local_features;
  {
    obs::Span span("pipeline.full_featurize");
    span.arg("shapes", m);
    features = featurize_jobs(analysis_shapes, config_.similarity);
  }
  const std::size_t dims = features.dictionary.size();

  // Cosine-normalized copies: the scalable backends cluster on the unit
  // sphere, where squared distance is 2 - 2 * (normalized kernel value) —
  // the same geometry the exact pipeline's normalized Gram encodes.
  std::vector<kernel::SparseVector> normalized = features.vectors;
  for (kernel::SparseVector& v : normalized) {
    const double norm = v.norm();
    if (norm > 0.0) {
      for (auto& [id, value] : v.items) value /= norm;
    }
  }

  const std::vector<double> weights = result.table.weights();
  const std::vector<std::uint64_t> counts = result.table.counts();
  const std::uint64_t total_jobs = result.table.total_jobs;
  const int k_eff = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(config_.clustering.clusters), m));

  // Validation: the exact spectral pipeline on a shared uniform job
  // subsample. Same-shape jobs have bitwise-identical feature vectors, so
  // the v x v Gram is assembled from shape-level dots — exactly what the
  // sampled pipeline would compute on those jobs. That exact side reads
  // only the normalized vectors and the counts, so it runs on the pool
  // beside the clustering below (the default 3 mini-batch restarts leave a
  // worker of 4 idle; the landmark backend's row loops share the pool with
  // it) and is joined only to compare labels.
  std::size_t v = std::min<std::size_t>(config_.full_validation_sample,
                                        static_cast<std::size_t>(total_jobs));
  v = std::min<std::size_t>(v, cluster::SpectralOptions{}.max_dense_items);
  const auto exact_reference = [&]() -> ExactReference {
    obs::Span span("pipeline.full_validate");
    span.arg("jobs", v);
    CWGL_FAILPOINT("pipeline.full_validate");
    util::Xoshiro256StarStar rng(
        util::hash_combine(config_.sample_seed, 0x66756c6cULL));  // "full"
    std::vector<std::size_t> positions = rng.sample_without_replacement(
        static_cast<std::size_t>(total_jobs), v);
    std::sort(positions.begin(), positions.end());
    // Map expanded job positions to shapes via cumulative counts: position
    // p belongs to the shape whose cumulative range contains p.
    std::vector<std::uint64_t> cumulative(m);
    std::uint64_t acc = 0;
    for (std::size_t t = 0; t < m; ++t) {
      acc += counts[t];
      cumulative[t] = acc;
    }
    ExactReference reference;
    reference.sample_shape.resize(v);
    for (std::size_t i = 0; i < v; ++i) {
      const auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                       static_cast<std::uint64_t>(positions[i]));
      reference.sample_shape[i] =
          static_cast<std::size_t>(it - cumulative.begin());
    }
    const std::vector<std::size_t>& sample_shape = reference.sample_shape;
    linalg::Matrix gram(v, v);
    for (std::size_t i = 0; i < v; ++i) {
      gram(i, i) = 1.0;
      for (std::size_t j = i + 1; j < v; ++j) {
        const double value =
            normalized[sample_shape[i]].dot(normalized[sample_shape[j]]);
        gram(i, j) = value;
        gram(j, i) = value;
      }
    }
    cluster::SpectralOptions spectral_options;
    spectral_options.kmeans.seed = config_.clustering.seed;
    reference.labels =
        cluster::spectral_cluster(gram, k_eff, spectral_options).labels;
    return reference;
  };
  std::optional<Overlapped> reference;
  if (v >= 2 && static_cast<std::size_t>(k_eff) <= v) {
    reference.emplace(pool, exact_reference);
  }

  cluster::ScaleOptions scale_options;
  scale_options.method = config_.full_method;
  scale_options.clusters = k_eff;
  scale_options.seed = config_.clustering.seed;
  scale_options.minibatch.pool = pool;
  scale_options.landmark.pool = pool;
  cluster::ScaleResult scaled =
      cluster::cluster_at_scale(normalized, weights, dims, scale_options);
  result.method = scaled.method;
  result.degraded = scaled.degraded;
  result.inertia = scaled.inertia;
  result.landmarks = scaled.landmarks;
  result.embedding_dims = scaled.embedding_dims;

  // Group 'A' is the largest by job count; the per-group statistics are the
  // sampled pipeline's, and the medoid is the member shape nearest the
  // group's weighted feature mean (no m x m kernel needed).
  result.shape_labels = relabel_by_mass(scaled.labels, counts);
  result.groups =
      group_statistics(exemplars, result.shape_labels, k_eff, counts);
  std::vector<double> point_sq(m);
  for (std::size_t t = 0; t < m; ++t) {
    const double norm = normalized[t].norm();
    point_sq[t] = norm * norm;
  }
  for (ClusterGroupStats& group_stats : result.groups) {
    const int g = group_stats.group;
    std::vector<double> center(dims, 0.0);
    double mass = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      if (result.shape_labels[t] != g) continue;
      const double w = weights[t];
      mass += w;
      for (const auto& [id, value] : normalized[t].items) {
        center[static_cast<std::size_t>(id)] += w * value;
      }
    }
    if (mass > 0.0) {
      for (double& c : center) c /= mass;
    }
    double center_sq = 0.0;
    for (double c : center) center_sq += c * c;
    double best = std::numeric_limits<double>::max();
    std::size_t medoid = m;
    for (std::size_t t = 0; t < m; ++t) {
      if (result.shape_labels[t] != g) continue;
      double dot = 0.0;
      for (const auto& [id, value] : normalized[t].items) {
        dot += value * center[static_cast<std::size_t>(id)];
      }
      const double d = point_sq[t] + center_sq - 2.0 * dot;
      if (d < best) {  // strict: ties keep the first-seen (lower-id) shape
        best = d;
        medoid = t;
      }
    }
    if (medoid < m) group_stats.medoid = medoid;
  }

  // The caller's wait at the join is what the overlap failed to hide (all
  // of the validation when it ran inline).
  std::uint64_t validate_wait_us = 0;
  if (reference) {
    const obs::Stopwatch wait;
    const ExactReference exact = reference->join();
    validate_wait_us = wait.micros();
    std::vector<int> full_labels(v);
    for (std::size_t i = 0; i < v; ++i) {
      full_labels[i] = result.shape_labels[exact.sample_shape[i]];
    }
    result.agreement = cluster::measure_agreement(full_labels, exact.labels);
  }
  run_span.arg("validate_wait_us", validate_wait_us);
  return result;
}

}  // namespace cwgl::core

#include "core/pipeline.hpp"

#include "obs/tracer.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

namespace {

std::vector<JobDag> build_jobs_from_groups(
    const trace::Trace& trace, const trace::TraceIndex& index,
    std::span<const std::size_t> group_indices) {
  std::vector<JobDag> jobs;
  jobs.reserve(group_indices.size());
  for (std::size_t g : group_indices) {
    const trace::JobGroup& group = index.jobs()[g];
    std::vector<trace::TaskRecord> records;
    records.reserve(group.tasks.size());
    for (std::size_t i : group.tasks) records.push_back(trace.tasks[i]);
    if (auto job = build_job_dag(group.job_name, records)) {
      jobs.push_back(std::move(*job));
    }
  }
  return jobs;
}

/// Interns the sample's job shapes: the distinct shapes in first-seen
/// order, each exemplar a copy of its first job, plus every job's shape.
InternedAnalysis intern_sample(std::span<const JobDag> sample) {
  obs::Span span("pipeline.intern");
  ShapeStore store;
  std::vector<const ShapeStore::Node*> handles;
  handles.reserve(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    handles.push_back(store.intern(sample[i], i));
  }
  ShapeStore::FrozenView view = store.freeze_with_ids();
  InternedAnalysis interned;
  interned.table = std::move(view.table);
  interned.shape_of.reserve(handles.size());
  for (const ShapeStore::Node* node : handles) {
    interned.shape_of.push_back(view.id_of.at(node));
  }
  interned.stats = store.stats();
  span.arg("jobs", sample.size());
  span.arg("shapes", interned.table.size());
  return interned;
}

}  // namespace

CharacterizationPipeline::CharacterizationPipeline(PipelineConfig config)
    : config_(std::move(config)) {}

std::vector<JobDag> CharacterizationPipeline::build_sample(
    const trace::Trace& trace) const {
  const trace::TraceIndex index(trace);
  const auto eligible = trace::select_jobs(index, config_.criteria);
  const auto picked =
      config_.sampling == SamplingMode::Natural
          ? trace::natural_sample(eligible, config_.sample_size,
                                  config_.sample_seed)
          : trace::variability_sample(index, eligible, config_.sample_size,
                                      config_.sample_seed);
  return build_jobs_from_groups(trace, index, picked);
}

PipelineResult CharacterizationPipeline::run(const trace::Trace& trace,
                                             util::ThreadPool* pool,
                                             FittedFeatures* fitted) const {
  obs::Span pipeline_span("pipeline.run");
  PipelineResult result;
  {
    obs::Span span("pipeline.census");
    result.census = TraceCensus::compute(trace);
  }
  {
    obs::Span span("pipeline.sample");
    result.sample = build_sample(trace);
    span.arg("jobs", result.sample.size());
  }
  result.interned = intern_sample(result.sample);
  const InternedAnalysis& interned = result.interned;

  // The reports read every job of the sample, in order.
  {
    obs::Span span("pipeline.structure");
    result.conflation = ConflationReport::compute(result.sample);
    result.structure_before = StructuralReport::compute(result.sample);
  }

  // Conflation is pure per job, so it runs on the pool.
  std::vector<JobDag> conflated(result.sample.size());
  {
    obs::Span span("pipeline.conflation");
    span.arg("jobs", conflated.size());
    const auto conflate_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        conflated[i] = conflate_job(result.sample[i]);
      }
    };
    if (pool != nullptr) {
      util::parallel_for_chunked(*pool, 0, conflated.size(), 16, conflate_range);
    } else {
      conflate_range(0, conflated.size());
    }
    result.structure_after = StructuralReport::compute(conflated);
  }

  {
    obs::Span span("pipeline.task_types");
    result.task_types = TaskTypeReport::compute(result.sample);
    result.patterns = PatternCensus::compute(result.sample);
  }

  // The learning stages run once per distinct shape of the analysis set. A
  // shape's conflated exemplar is the conflation of its first job.
  std::vector<JobDag> conflated_shapes;
  if (config_.analyze_conflated) {
    conflated_shapes.reserve(interned.table.size());
    for (const ShapeTable::ShapeInfo& shape : interned.table.shapes) {
      conflated_shapes.push_back(conflated[shape.first_seq]);
    }
  }
  const std::span<const JobDag> analysis_jobs =
      config_.analyze_conflated ? std::span<const JobDag>(conflated)
                                : result.sample;
  const std::span<const JobDag> analysis_shapes =
      config_.analyze_conflated ? std::span<const JobDag>(conflated_shapes)
                                : interned.table.exemplars;
  linalg::Matrix shape_gram;
  {
    obs::Span span("pipeline.similarity");
    span.arg("shapes", analysis_shapes.size());
    SimilarityAnalysis shapes = SimilarityAnalysis::compute(
        analysis_shapes, config_.similarity, pool, fitted);
    shape_gram = std::move(shapes.gram);
  }
  {
    obs::Span span("pipeline.clustering");
    result.clustering =
        ClusteringAnalysis::compute(shape_gram, analysis_jobs,
                                    config_.clustering, interned.shape_of);
  }

  // Fig. 7 is per job: same-shape jobs have bitwise-identical WL feature
  // vectors, so expanding the shape kernel is the per-job Gram exactly.
  const std::size_t n = result.sample.size();
  result.similarity.gram = linalg::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result.similarity.gram(i, j) =
          shape_gram(interned.shape_of[i], interned.shape_of[j]);
    }
  }
  result.similarity.job_names.reserve(n);
  for (const JobDag& job : result.sample) {
    result.similarity.job_names.push_back(job.job_name);
  }
  pipeline_span.arg("sampled_jobs", n);
  pipeline_span.arg("distinct_shapes", interned.table.size());
  return result;
}

std::vector<JobDag> CharacterizationPipeline::build_all_dags(
    std::istream& task_csv, util::ThreadPool* pool, IngestStats* stats) const {
  return build_all_dag_jobs(task_csv, config_.criteria, pool, stats);
}

std::vector<JobDag> build_all_dag_jobs(const trace::Trace& trace,
                                       const trace::SamplingCriteria& criteria) {
  const trace::TraceIndex index(trace);
  const auto eligible = trace::select_jobs(index, criteria);
  return build_jobs_from_groups(trace, index, eligible);
}

std::vector<JobDag> build_all_dag_jobs(std::istream& task_csv,
                                       const trace::SamplingCriteria& criteria,
                                       util::ThreadPool* pool,
                                       IngestStats* stats) {
  IngestOptions options;
  options.criteria = criteria;
  return stream_dag_jobs(task_csv, options, pool, stats);
}

}  // namespace cwgl::core

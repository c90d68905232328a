#include "core/ingest.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace cwgl::core {

namespace {

/// A worker's counts, on their own cache lines.
struct alignas(64) SlotCounts {
  std::size_t eligible = 0;
  std::size_t built = 0;
};

/// Applies the ingest's failure posture to a job the build rejected:
/// corruption kinds (duplicate index, missing dependency, cycle) throw
/// GraphError under strict and are quarantined into the diagnostics under
/// lenient; filtering kinds (non-DAG names, empty jobs) are skipped quietly
/// in both modes, with only a count kept so reports can show how much the
/// eligibility rules removed.
void apply_posture(const std::vector<BuildIssue>& issues,
                   const IngestOptions& options, trace::GroupLog& log) {
  for (const BuildIssue& issue : issues) {
    if (is_corruption(issue.kind)) {
      if (options.strict) {
        throw util::GraphError("job " + issue.job_name + ": " + issue.message);
      }
      log.record("dag", to_string(issue.kind),
                 issue.job_name + ": " + issue.message);
    } else {
      log.count("dag", to_string(issue.kind));
    }
  }
}

}  // namespace

namespace detail {

void stream_built_dags(std::istream& task_csv, const IngestOptions& options,
                       util::ThreadPool* pool, IngestStats& stats,
                       const DagSink& sink) {
  stats = IngestStats{};
  std::vector<SlotCounts> counts(trace::group_stream_slots(pool));
  trace::GroupStreamOptions stream;
  stream.read = trace::TraceReadOptions{!options.strict, options.diagnostics};
  stream.chunk_bytes = options.chunk_bytes;
  stats.stream = trace::stream_job_groups(
      task_csv, stream, pool,
      [&](std::size_t slot, const trace::StreamedGroup& group,
          trace::GroupLog& log) {
        std::vector<BuildIssue> issues;
        bool eligible = false;
        auto dag = build_eligible_dag(group.job_name, group.rows,
                                      options.criteria, eligible, &issues);
        if (!eligible) return true;
        ++counts[slot].eligible;
        if (dag) {
          ++counts[slot].built;
          sink(slot, group.seq, std::move(*dag));
        } else {
          apply_posture(issues, options, log);
        }
        return true;
      });
  for (const SlotCounts& c : counts) {
    stats.eligible += c.eligible;
    stats.dags += c.built;
  }
}

void publish_stream_metrics(obs::Span& span, const IngestStats& stats) {
  span.arg("rows", stats.stream.rows);
  span.arg("jobs", stats.stream.jobs);
  span.arg("quarantined", stats.stream.malformed);
  span.arg("dags", stats.dags);
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("ingest.stream.rows").add(stats.stream.rows);
  registry.counter("ingest.stream.jobs").add(stats.stream.jobs);
  registry.counter("ingest.stream.malformed").add(stats.stream.malformed);
  registry.counter("ingest.stream.fragmented").add(stats.stream.fragmented);
  registry.counter("ingest.dag.eligible").add(stats.eligible);
  registry.counter("ingest.dag.built").add(stats.dags);
}

}  // namespace detail

std::vector<JobDag> stream_dag_jobs(std::istream& task_csv,
                                    const IngestOptions& options,
                                    util::ThreadPool* pool,
                                    IngestStats* stats) {
  IngestStats local;
  std::vector<JobDag> out = stream_transformed(
      task_csv, options, pool, local,
      [](std::size_t /*seq*/, JobDag&& dag) { return std::move(dag); });
  if (stats) *stats = local;
  return out;
}

InternedIngest stream_shape_jobs(std::istream& task_csv,
                                 const IngestOptions& options,
                                 util::ThreadPool* pool,
                                 ShapeStore::Options shape_options) {
  obs::Span span("ingest.intern");
  InternedIngest out;
  ShapeStore store(shape_options);
  const std::vector<const ShapeStore::Node*> handles = stream_transformed(
      task_csv, options, pool, out.stats,
      [&store](std::size_t seq, JobDag&& dag) {
        return store.intern(std::move(dag), static_cast<std::uint64_t>(seq));
      });
  // freeze_with_ids also publishes the store's intern.* counters.
  ShapeStore::FrozenView view = store.freeze_with_ids();
  out.table = std::move(view.table);
  out.shape_of.reserve(handles.size());
  for (const ShapeStore::Node* node : handles) {
    out.shape_of.push_back(view.id_of.at(node));
  }
  out.intern = store.stats();
  span.arg("shapes", out.intern.distinct_shapes);
  return out;
}

}  // namespace cwgl::core

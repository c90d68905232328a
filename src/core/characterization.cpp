#include "core/characterization.hpp"

#include <algorithm>
#include <map>

#include "graph/algorithms.hpp"
#include "trace/filter.hpp"
#include "trace/taskname.hpp"

namespace cwgl::core {

StructuralReport StructuralReport::compute(std::span<const JobDag> jobs) {
  StructuralReport report;
  std::map<int, SizeGroupFeatures> groups;
  for (const JobDag& job : jobs) {
    const int size = job.size();
    report.size_histogram.add(size);
    SizeGroupFeatures& g = groups[size];
    g.size = size;
    ++g.count;
    g.max_critical_path =
        std::max(g.max_critical_path, graph::critical_path_length(job.dag));
    g.max_width = std::max(g.max_width, graph::max_width(job.dag));
  }
  for (const auto& [size, features] : groups) report.groups.push_back(features);
  report.distinct_sizes = report.groups.size();
  return report;
}

ConflationReport ConflationReport::compute(std::span<const JobDag> jobs) {
  ConflationReport report;
  double reduction_sum = 0.0;
  for (const JobDag& job : jobs) {
    const JobDag merged = conflate_job(job);
    report.before.add(job.size());
    report.after.add(merged.size());
    reduction_sum += static_cast<double>(job.size()) /
                     static_cast<double>(std::max(1, merged.size()));
  }
  report.mean_reduction =
      jobs.empty() ? 1.0 : reduction_sum / static_cast<double>(jobs.size());
  return report;
}

namespace {

/// Builds the Fig. 6 row for one job and bumps the matching model counter.
void add_task_type_row(TaskTypeReport& report, const JobDag& job) {
  TaskTypeRow row;
  row.job_name = job.job_name;
  row.size = job.size();
  for (const TaskMeta& t : job.tasks) {
    switch (t.type) {
      case 'M': ++row.m_tasks; break;
      case 'J': ++row.j_tasks; break;
      case 'R': ++row.r_tasks; break;
      default: ++row.other_tasks; break;
    }
  }
  row.critical_path = graph::critical_path_length(job.dag);
  // Model inference per Section V-C. A Merge stage is an 'M'-typed task
  // consuming a Reduce's output (the trace types Map and Merge alike, so
  // position in the dataflow is what identifies it). A Join stage marks
  // Map-Join-Reduce; depth <= 2 is the fundamental Map-Reduce; deeper
  // J-free merge-free jobs are multi-stage (pipelined) Map-Reduce.
  bool has_merge = false;
  for (int v = 0; v < job.dag.num_vertices() && !has_merge; ++v) {
    if (job.tasks[v].type != 'M') continue;
    for (int p : job.dag.predecessors(v)) {
      if (job.tasks[p].type == 'R') {
        has_merge = true;
        break;
      }
    }
  }
  if (has_merge && row.j_tasks == 0) {
    row.model = "map-reduce-merge";
    ++report.map_reduce_merge_jobs;
  } else if (row.j_tasks > 0) {
    row.model = "map-join-reduce";
    ++report.map_join_reduce_jobs;
  } else if (row.critical_path <= 2) {
    row.model = "map-reduce";
    ++report.map_reduce_jobs;
  } else {
    row.model = "multi-stage map-reduce";
    ++report.multi_stage_jobs;
  }
  report.rows.push_back(std::move(row));
}

}  // namespace

TaskTypeReport TaskTypeReport::compute(std::span<const JobDag> jobs) {
  TaskTypeReport report;
  report.rows.reserve(jobs.size());
  for (const JobDag& job : jobs) add_task_type_row(report, job);
  return report;
}

PatternCensus PatternCensus::compute(std::span<const JobDag> jobs) {
  PatternCensus census;
  std::map<graph::ShapePattern, std::size_t> tally;
  for (const JobDag& job : jobs) ++tally[graph::classify_shape(job.dag)];
  census.total = jobs.size();
  for (const auto& [pattern, count] : tally) {
    census.rows.push_back(
        {pattern, count,
         census.total ? static_cast<double>(count) / static_cast<double>(census.total)
                      : 0.0});
  }
  std::sort(census.rows.begin(), census.rows.end(),
            [](const Row& a, const Row& b) { return a.count > b.count; });
  return census;
}

double PatternCensus::fraction(graph::ShapePattern p) const noexcept {
  for (const Row& row : rows) {
    if (row.pattern == p) return row.fraction;
  }
  return 0.0;
}

TraceCensus TraceCensus::compute(const trace::Trace& trace) {
  TraceCensus census;
  const trace::TraceIndex index(trace);
  double dag_resource = 0.0;
  double total_resource = 0.0;
  for (const trace::JobGroup& job : index.jobs()) {
    ++census.total_jobs;
    const bool dag = trace::is_dag_job(trace, job);
    census.dag_jobs += dag;
    double resource = 0.0;
    for (std::size_t i : job.tasks) {
      const trace::TaskRecord& t = trace.tasks[i];
      const double duration =
          t.end_time > t.start_time && t.start_time > 0
              ? static_cast<double>(t.end_time - t.start_time)
              : 0.0;
      resource += t.plan_cpu * t.instance_num * duration;
    }
    total_resource += resource;
    if (dag) dag_resource += resource;
  }
  census.dag_job_fraction =
      census.total_jobs
          ? static_cast<double>(census.dag_jobs) / static_cast<double>(census.total_jobs)
          : 0.0;
  census.dag_resource_fraction =
      total_resource > 0.0 ? dag_resource / total_resource : 0.0;
  return census;
}

}  // namespace cwgl::core

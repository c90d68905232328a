#include "core/report_json.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "graph/patterns.hpp"
#include "util/json.hpp"

namespace cwgl::core {

namespace {

using util::JsonWriter;

void histogram_json(JsonWriter& j, const util::IntHistogram& h) {
  j.begin_array();
  for (const auto& [key, count] : h.items()) {
    j.begin_object();
    j.field("size", static_cast<long long>(key));
    j.field("count", count);
    j.end_object();
  }
  j.end_array();
}

void distribution_json(JsonWriter& j, const util::Distribution& d) {
  j.begin_object();
  j.field("count", d.count);
  j.field("mean", d.mean);
  j.field("min", d.min);
  j.field("p25", d.p25);
  j.field("median", d.median);
  j.field("p75", d.p75);
  j.field("max", d.max);
  j.end_object();
}

void census_body(JsonWriter& j, const TraceCensus& census) {
  j.begin_object();
  j.field("total_jobs", census.total_jobs);
  j.field("dag_jobs", census.dag_jobs);
  j.field("dag_job_fraction", census.dag_job_fraction);
  j.field("dag_resource_fraction", census.dag_resource_fraction);
  j.end_object();
}

void conflation_body(JsonWriter& j, const ConflationReport& report) {
  j.begin_object();
  j.key("before");
  histogram_json(j, report.before);
  j.key("after");
  histogram_json(j, report.after);
  j.field("mean_reduction", report.mean_reduction);
  j.end_object();
}

void structural_body(JsonWriter& j, const StructuralReport& report) {
  j.begin_object();
  j.field("distinct_sizes", report.distinct_sizes);
  j.key("groups");
  j.begin_array();
  for (const auto& g : report.groups) {
    j.begin_object();
    j.field("size", g.size);
    j.field("count", g.count);
    j.field("max_critical_path", g.max_critical_path);
    j.field("max_width", g.max_width);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

void task_types_body(JsonWriter& j, const TaskTypeReport& report) {
  j.begin_object();
  j.field("map_reduce_jobs", report.map_reduce_jobs);
  j.field("map_join_reduce_jobs", report.map_join_reduce_jobs);
  j.field("map_reduce_merge_jobs", report.map_reduce_merge_jobs);
  j.field("multi_stage_jobs", report.multi_stage_jobs);
  j.key("rows");
  j.begin_array();
  for (const auto& row : report.rows) {
    j.begin_object();
    j.field("job", row.job_name);
    j.field("size", row.size);
    j.field("m", row.m_tasks);
    j.field("j", row.j_tasks);
    j.field("r", row.r_tasks);
    j.field("critical_path", row.critical_path);
    j.field("model", row.model);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

void patterns_body(JsonWriter& j, const PatternCensus& census) {
  j.begin_object();
  j.field("total", census.total);
  j.key("rows");
  j.begin_array();
  for (const auto& row : census.rows) {
    j.begin_object();
    j.field("pattern", graph::to_string(row.pattern));
    j.field("count", row.count);
    j.field("fraction", row.fraction);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

void similarity_body(JsonWriter& j, const SimilarityAnalysis& analysis) {
  j.begin_object();
  j.key("jobs");
  j.begin_array();
  for (const auto& name : analysis.job_names) j.value(name);
  j.end_array();
  j.key("matrix");
  j.begin_array();
  for (std::size_t r = 0; r < analysis.gram.rows(); ++r) {
    j.begin_array();
    for (std::size_t c = 0; c < analysis.gram.cols(); ++c) {
      j.value(analysis.gram(r, c));
    }
    j.end_array();
  }
  j.end_array();
  j.end_object();
}

void clustering_body(JsonWriter& j, const ClusteringAnalysis& analysis) {
  j.begin_object();
  j.field("silhouette", analysis.silhouette);
  j.field("suggested_k", analysis.suggested_k);
  j.key("labels");
  j.begin_array();
  for (int label : analysis.labels) j.value(label);
  j.end_array();
  j.key("groups");
  j.begin_array();
  for (const auto& g : analysis.groups) {
    j.begin_object();
    j.field("group", std::string(1, g.letter()));
    j.field("population", g.population);
    j.field("population_fraction", g.population_fraction);
    j.field("chain_fraction", g.chain_fraction);
    j.field("short_job_fraction", g.short_job_fraction);
    j.field("medoid", g.medoid);
    j.key("size");
    distribution_json(j, g.size);
    j.key("critical_path");
    distribution_json(j, g.critical_path);
    j.key("parallelism");
    distribution_json(j, g.parallelism);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

void topology_body(JsonWriter& j, const TopologyCensus& census) {
  j.begin_object();
  j.field("total_jobs", census.total_jobs);
  j.field("distinct_topologies", census.distinct_topologies);
  j.field("recurring_fraction", census.recurring_fraction);
  j.key("top");
  j.begin_array();
  const std::size_t limit = std::min<std::size_t>(census.rows.size(), 20);
  for (std::size_t i = 0; i < limit; ++i) {
    j.begin_object();
    j.field("count", census.rows[i].count);
    j.field("size", census.rows[i].size);
    j.field("exemplar", census.rows[i].exemplar);
    j.end_object();
  }
  j.end_array();
  j.end_object();
}

void resource_body(JsonWriter& j, const ResourceUsageReport& report) {
  j.begin_object();
  j.key("by_type");
  j.begin_array();
  for (const auto& row : report.by_type) {
    j.begin_object();
    j.field("type", std::string(1, row.type));
    j.field("tasks", row.tasks);
    j.key("duration");
    distribution_json(j, row.duration);
    j.key("instances");
    distribution_json(j, row.instances);
    j.key("plan_cpu");
    distribution_json(j, row.plan_cpu);
    j.key("plan_mem");
    distribution_json(j, row.plan_mem);
    j.end_object();
  }
  j.end_array();
  j.key("by_level");
  j.begin_array();
  for (const auto& row : report.by_level) {
    j.begin_object();
    j.field("level", row.level);
    j.field("tasks", row.tasks);
    j.field("mean_cpu", row.mean_cpu);
    j.field("mean_duration", row.mean_duration);
    j.field("total_work", row.total_work);
    j.end_object();
  }
  j.end_array();
  j.field("corr_size_work", report.corr_size_work);
  j.field("corr_width_instances", report.corr_width_instances);
  j.field("corr_depth_duration", report.corr_depth_duration);
  j.end_object();
}

}  // namespace

void write_json(std::ostream& out, const TraceCensus& census) {
  JsonWriter j(out);
  census_body(j, census);
}

void write_json(std::ostream& out, const ConflationReport& report) {
  JsonWriter j(out);
  conflation_body(j, report);
}

void write_json(std::ostream& out, const StructuralReport& report) {
  JsonWriter j(out);
  structural_body(j, report);
}

void write_json(std::ostream& out, const TaskTypeReport& report) {
  JsonWriter j(out);
  task_types_body(j, report);
}

void write_json(std::ostream& out, const PatternCensus& census) {
  JsonWriter j(out);
  patterns_body(j, census);
}

void write_json(std::ostream& out, const SimilarityAnalysis& analysis) {
  JsonWriter j(out);
  similarity_body(j, analysis);
}

void write_json(std::ostream& out, const ClusteringAnalysis& analysis) {
  JsonWriter j(out);
  clustering_body(j, analysis);
}

void write_json(std::ostream& out, const TopologyCensus& census) {
  JsonWriter j(out);
  topology_body(j, census);
}

void write_json(std::ostream& out, const ResourceUsageReport& report) {
  JsonWriter j(out);
  resource_body(j, report);
}

namespace {

void pipeline_members(JsonWriter& j, const PipelineResult& result) {
  j.key("census");
  census_body(j, result.census);
  j.key("fig3");
  conflation_body(j, result.conflation);
  j.key("fig4");
  structural_body(j, result.structure_before);
  j.key("fig5");
  structural_body(j, result.structure_after);
  j.key("fig6");
  task_types_body(j, result.task_types);
  j.key("patterns");
  patterns_body(j, result.patterns);
  j.key("fig7");
  similarity_body(j, result.similarity);
  j.key("fig9");
  clustering_body(j, result.clustering);
}

}  // namespace

void write_json(std::ostream& out, const PipelineResult& result) {
  JsonWriter j(out);
  j.begin_object();
  pipeline_members(j, result);
  j.end_object();
}

void write_json(std::ostream& out, const PipelineResult& result,
                const ReportExtras& extras) {
  JsonWriter j(out);
  j.begin_object();
  pipeline_members(j, result);
  if (!extras.timings_ms.empty()) {
    j.key("timings");
    j.begin_object();
    for (const auto& [name, ms] : extras.timings_ms) j.field(name, ms);
    j.end_object();
  }
  if (!extras.metrics_json.empty()) {
    j.key("metrics");
    j.raw(extras.metrics_json);
  }
  j.end_object();
}

}  // namespace cwgl::core

#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/job_dag.hpp"
#include "graph/patterns.hpp"
#include "trace/schema.hpp"
#include "util/stats.hpp"

namespace cwgl::core {

/// One row of Figures 4/5: per size group, the population and the extreme
/// structural features.
struct SizeGroupFeatures {
  int size = 0;                ///< tasks per job in this group
  std::size_t count = 0;       ///< jobs of this size
  int max_critical_path = 0;   ///< deepest job of this size (in vertices)
  int max_width = 0;           ///< most parallel job of this size
};

/// Structural quantification (Section V-A): job sizes, critical paths and
/// maximum widths across an experiment set.
struct StructuralReport {
  util::IntHistogram size_histogram;      ///< jobs per size
  std::vector<SizeGroupFeatures> groups;  ///< ascending by size
  std::size_t distinct_sizes = 0;         ///< "17 different size types"

  static StructuralReport compute(std::span<const JobDag> jobs);
};

/// Figure 3: size distributions before vs after node conflation.
struct ConflationReport {
  util::IntHistogram before;
  util::IntHistogram after;
  /// Mean size reduction factor achieved by conflation.
  double mean_reduction = 1.0;

  static ConflationReport compute(std::span<const JobDag> jobs);
};

/// One row of Figure 6: the task-type composition of a job and the inferred
/// programming model.
struct TaskTypeRow {
  std::string job_name;
  int size = 0;
  int m_tasks = 0;  ///< Map / Merge
  int j_tasks = 0;  ///< Join
  int r_tasks = 0;  ///< Reduce
  int other_tasks = 0;
  int critical_path = 0;
  std::string model;  ///< "map-reduce", "map-join-reduce", "multi-stage map-reduce"
};

/// Exploratory task-type investigation (Section V-C). The paper observes
/// three programming modes: map-reduce, map-join-reduce, and
/// map-reduce-merge (an 'M'-typed stage consuming a Reduce's output).
struct TaskTypeReport {
  std::vector<TaskTypeRow> rows;
  std::size_t map_reduce_jobs = 0;
  std::size_t map_join_reduce_jobs = 0;
  std::size_t map_reduce_merge_jobs = 0;
  std::size_t multi_stage_jobs = 0;

  /// One row per job, in order.
  static TaskTypeReport compute(std::span<const JobDag> jobs);
};

/// Shape-pattern census (Section V-B): which fraction of jobs is a chain /
/// inverted triangle / etc.
struct PatternCensus {
  struct Row {
    graph::ShapePattern pattern;
    std::size_t count = 0;
    double fraction = 0.0;
  };
  std::vector<Row> rows;  ///< descending by count
  std::size_t total = 0;

  static PatternCensus compute(std::span<const JobDag> jobs);

  /// Fraction for one pattern (0 when absent).
  double fraction(graph::ShapePattern p) const noexcept;
};

/// Whole-trace statistics backing the Section II-B claims: the share of
/// batch jobs with dependencies and the share of batch resources they
/// consume (resource = plan_cpu x instance_num x duration, summed per job).
struct TraceCensus {
  std::size_t total_jobs = 0;
  std::size_t dag_jobs = 0;
  double dag_job_fraction = 0.0;
  double dag_resource_fraction = 0.0;

  static TraceCensus compute(const trace::Trace& trace);
};

}  // namespace cwgl::core

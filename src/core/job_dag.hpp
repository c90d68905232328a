#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"
#include "kernel/types.hpp"
#include "trace/filter.hpp"
#include "trace/schema.hpp"

namespace cwgl::core {

/// Per-task attributes carried alongside each DAG vertex (Section IV-A:
/// "we take account the resource usage ... and instances information ... as
/// attributes to the running tasks").
struct TaskMeta {
  std::string name;            ///< original task_name
  char type = '?';             ///< 'M', 'R', 'J', ...
  int index = 0;               ///< 1-based index from the task name
  int instance_num = 0;
  std::int64_t start_time = 0;
  std::int64_t end_time = 0;
  double plan_cpu = 0.0;
  double plan_mem = 0.0;

  /// Task duration in seconds (0 when timestamps are unusable).
  std::int64_t duration() const noexcept {
    return end_time > start_time && start_time > 0 ? end_time - start_time : 0;
  }
};

/// A batch job as a task-dependency DAG: vertex i of `dag` is `tasks[i]`.
struct JobDag {
  std::string job_name;
  graph::Digraph dag;
  std::vector<TaskMeta> tasks;

  int size() const noexcept { return dag.num_vertices(); }

  /// Task-type labels as ints ('M' -> 77, ...), the vertex labeling used by
  /// every kernel in this library.
  std::vector<int> type_labels() const;

  /// View of this job in kernel form (copies the graph + labels).
  kernel::LabeledGraph to_labeled() const;

  /// Per-vertex display labels ("M1", "R2_1", ...) for DOT export.
  std::vector<std::string> vertex_names() const;
};

/// Why a job was rejected by `build_job_dag`.
///
/// The split matters for the pipeline's failure posture: `NonDagName` and
/// `EmptyJob` are *normal filtering* (the trace contains plenty of
/// independent-task jobs the paper excludes), while `DuplicateIndex`,
/// `MissingDependency`, and `Cycle` indicate a *corrupt or inconsistent*
/// job — strict ingest escalates only the latter group.
enum class BuildIssueKind {
  EmptyJob,            ///< no task rows (filtering)
  NonDagName,          ///< task name outside the DAG grammar (filtering)
  DuplicateIndex,      ///< two tasks claim the same index (corruption)
  MissingDependency,   ///< dependency on an index with no task (corruption)
  Cycle,               ///< dependencies are not acyclic (corruption)
};

/// True for kinds that indicate damaged data rather than routine filtering.
constexpr bool is_corruption(BuildIssueKind kind) noexcept {
  return kind == BuildIssueKind::DuplicateIndex ||
         kind == BuildIssueKind::MissingDependency ||
         kind == BuildIssueKind::Cycle;
}

/// Stable lowercase tag for diagnostics keys ("non-dag-name", "cycle", ...).
const char* to_string(BuildIssueKind kind) noexcept;

/// A problem encountered while building a job DAG from trace rows.
struct BuildIssue {
  std::string job_name;
  std::string message;
  BuildIssueKind kind = BuildIssueKind::NonDagName;
};

/// Builds a JobDag from one job's task rows.
///
/// Returns nullopt — recording why into `issues` when provided — if the job
/// is not a well-formed dependency DAG: any non-grammar task name, duplicate
/// task indices, a dependency on a missing index, or (pathological names) a
/// dependency cycle. This mirrors the paper's restriction to DAG batch jobs.
/// Each name is parsed once into per-thread scratch, which is freed again
/// after a job of more than a few thousand tasks; the JobDag's own vectors
/// are the only allocations of a successful build.
std::optional<JobDag> build_job_dag(std::string_view job_name,
                                    std::span<const trace::TaskRecord> tasks,
                                    std::vector<BuildIssue>* issues = nullptr);

/// The row-level half of the streaming ingest's eligibility test: the task
/// count and, as `criteria` asks, integrity and availability. These read
/// columns other than the task names, so two jobs with the same names can
/// differ here; build_eligible_dag's answer depends on the names alone.
bool passes_row_criteria(std::span<const trace::TaskRecord> tasks,
                         const trace::SamplingCriteria& criteria);

/// The name-level half, for a job that passes_row_criteria: the DAG test
/// of `criteria` and build_job_dag over one parse of the task names.
/// `eligible` says whether the job passes the DAG test; a job that does
/// not is skipped with nothing in `issues`, and one that does gets
/// build_job_dag's result. Together the halves equal select_jobs' criteria
/// followed by build_job_dag.
std::optional<JobDag> build_eligible_dag(
    std::string_view job_name, std::span<const trace::TaskRecord> tasks,
    const trace::SamplingCriteria& criteria, bool& eligible,
    std::vector<BuildIssue>* issues = nullptr);

/// Conflates a job's interchangeable sibling tasks (Section IV-C), merging
/// metadata: instance counts and planned resources sum; the time window is
/// the union; the representative task's name/type/index are kept.
JobDag conflate_job(const JobDag& job);

}  // namespace cwgl::core

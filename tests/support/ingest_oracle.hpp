#pragma once

// Test oracle for the streaming ingest: the serial row reader
// (`TaskRowReader`), `consume_jobs_in_task_csv`, `build_job_dag` and the
// per-job criteria (`passes_criteria`) as they stood before chunked
// reading and the one-pass DAG build, plus the serial
// ingest loop over them (criteria, build, failure posture). The reader
// reads one row at a time through util::CsvScanner and closes a group when
// the next group's first row arrives, and that is when the ingest builds
// it. The code is kept as it was, except that the closed-name table is a
// plain std::unordered_set. tests/core/chunk_edge_test.cpp holds
// core::stream_dag_jobs and trace::consume_jobs_in_task_csv to it at every
// chunk size, serial and pooled.

#include <cstddef>
#include <functional>
#include <istream>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/ingest.hpp"
#include "core/job_dag.hpp"
#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "trace/filter.hpp"
#include "trace/io.hpp"
#include "trace/taskname.hpp"
#include "util/csv_scanner.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace cwgl::oracle {

/// Reads `batch_task.csv` one well-formed row at a time and tracks the job
/// groups the rows form.
class TaskRowReader {
 public:
  enum class Row { kEnd, kSameJob, kNewJob };

  explicit TaskRowReader(std::istream& in,
                         const trace::TraceReadOptions& options = {})
      : scanner_(in, util::CsvScanner::kDefaultBlockSize,
                 util::CsvScanPolicy{options.lenient, options.diagnostics}),
        options_(options) {}

  Row next(trace::TaskRecord& rec) {
    while (const auto fields = scanner_.next()) {
      if (!rec.assign_fields(*fields)) {
        ++stats_.malformed;
        if (!options_.lenient) {
          throw util::ParseError("batch_task.csv record " +
                                 std::to_string(scanner_.record_number()) +
                                 ": malformed row: " +
                                 trace::detail::row_preview(*fields));
        }
        if (options_.diagnostics != nullptr) {
          options_.diagnostics->record("ingest", "malformed-row",
                                       trace::detail::row_preview(*fields));
        }
        continue;
      }
      ++stats_.rows;
      if (open_ && rec.job_name == open_job_) return Row::kSameJob;
      close_group();
      open_job_.assign(rec.job_name);
      open_ = true;
      return Row::kNewJob;
    }
    close_group();
    return Row::kEnd;
  }

  trace::StreamStats stats() const noexcept {
    trace::StreamStats out = stats_;
    out.malformed += scanner_.quarantined();
    return out;
  }

 private:
  void close_group() {
    if (!open_) return;
    open_ = false;
    ++stats_.jobs;
    if (!closed_.insert(open_job_).second) ++stats_.fragmented;
  }

  util::CsvScanner scanner_;
  trace::TraceReadOptions options_;
  trace::StreamStats stats_;
  std::unordered_set<std::string> closed_;
  std::string open_job_;
  bool open_ = false;
};

inline trace::StreamStats consume_jobs_in_task_csv(
    std::istream& in,
    const std::function<bool(std::string&& job_name,
                             std::vector<trace::TaskRecord>&& tasks)>& fn,
    const trace::TraceReadOptions& options = {}) {
  TaskRowReader reader(in, options);
  std::vector<trace::TaskRecord> group;
  trace::TaskRecord row;
  for (;;) {
    const TaskRowReader::Row kind = reader.next(row);
    if (kind != TaskRowReader::Row::kSameJob && !group.empty()) {
      std::string job = group.front().job_name;
      if (!fn(std::move(job), std::move(group))) break;
      group.clear();
    }
    if (kind == TaskRowReader::Row::kEnd) break;
    group.push_back(row);
  }
  return reader.stats();
}

inline std::optional<core::JobDag> build_job_dag(
    std::string job_name, std::span<const trace::TaskRecord> tasks,
    std::vector<core::BuildIssue>* issues = nullptr) {
  using core::BuildIssueKind;
  const auto note = [&](const std::string& job, std::string message,
                        BuildIssueKind kind) {
    if (issues) issues->push_back({job, std::move(message), kind});
  };
  if (tasks.empty()) {
    note(job_name, "job has no tasks", BuildIssueKind::EmptyJob);
    return std::nullopt;
  }

  std::vector<trace::TaskName> parsed;
  parsed.reserve(tasks.size());
  for (const trace::TaskRecord& t : tasks) {
    auto p = trace::parse_task_name(t.task_name);
    if (!p) {
      note(job_name, "non-DAG task name: " + t.task_name,
           BuildIssueKind::NonDagName);
      return std::nullopt;
    }
    parsed.push_back(std::move(*p));
  }

  std::unordered_map<int, int> index_to_vertex;
  index_to_vertex.reserve(tasks.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto [it, inserted] =
        index_to_vertex.emplace(parsed[i].index, static_cast<int>(i));
    if (!inserted) {
      note(job_name, "duplicate task index " + std::to_string(parsed[i].index),
           BuildIssueKind::DuplicateIndex);
      return std::nullopt;
    }
  }

  std::vector<graph::Edge> edges;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    for (int dep : parsed[i].deps) {
      const auto it = index_to_vertex.find(dep);
      if (it == index_to_vertex.end()) {
        note(job_name,
             "task " + tasks[i].task_name + " depends on missing index " +
                 std::to_string(dep),
             BuildIssueKind::MissingDependency);
        return std::nullopt;
      }
      edges.push_back({it->second, static_cast<int>(i)});
    }
  }

  core::JobDag job;
  job.job_name = std::move(job_name);
  job.dag = graph::Digraph(static_cast<int>(tasks.size()), edges);
  if (!graph::topological_sort(job.dag).has_value()) {
    note(job.job_name, "task dependencies form a cycle", BuildIssueKind::Cycle);
    return std::nullopt;
  }
  job.tasks.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    core::TaskMeta m;
    m.name = tasks[i].task_name;
    m.type = parsed[i].type;
    m.index = parsed[i].index;
    m.instance_num = tasks[i].instance_num;
    m.start_time = tasks[i].start_time;
    m.end_time = tasks[i].end_time;
    m.plan_cpu = tasks[i].plan_cpu;
    m.plan_mem = tasks[i].plan_mem;
    job.tasks.push_back(std::move(m));
  }
  return job;
}

inline bool is_dag_job(std::span<const trace::TaskRecord> tasks) {
  if (tasks.size() < 2) return false;
  bool any_dep = false;
  for (const trace::TaskRecord& t : tasks) {
    const auto parsed = trace::parse_task_name(t.task_name);
    if (!parsed) return false;
    any_dep = any_dep || !parsed->deps.empty();
  }
  return any_dep;
}

inline bool passes_criteria(std::span<const trace::TaskRecord> tasks,
                            const trace::SamplingCriteria& criteria) {
  const int size = static_cast<int>(tasks.size());
  if (size < criteria.min_tasks || size > criteria.max_tasks) return false;
  if (criteria.require_integrity && !trace::passes_integrity(tasks)) return false;
  if (criteria.require_availability && !trace::passes_availability(tasks)) {
    return false;
  }
  if (criteria.require_dag && !oracle::is_dag_job(tasks)) return false;
  return true;
}

/// The serial ingest: each group filtered and built as soon as the row
/// after it is read, with the lenient/strict posture of core::IngestOptions.
struct Ingest {
  std::vector<core::JobDag> dags;
  core::IngestStats stats;
};

inline Ingest stream_dag_jobs(std::istream& in,
                              const core::IngestOptions& options = {}) {
  Ingest out;
  out.stats.stream = oracle::consume_jobs_in_task_csv(
      in,
      [&](std::string&& job, std::vector<trace::TaskRecord>&& rows) {
        if (!oracle::passes_criteria(rows, options.criteria)) return true;
        ++out.stats.eligible;
        std::vector<core::BuildIssue> issues;
        if (auto dag = oracle::build_job_dag(std::move(job), rows, &issues)) {
          out.dags.push_back(std::move(*dag));
          return true;
        }
        for (const core::BuildIssue& issue : issues) {
          if (core::is_corruption(issue.kind)) {
            if (options.strict) {
              throw util::GraphError("job " + issue.job_name + ": " +
                                     issue.message);
            }
            if (options.diagnostics != nullptr) {
              options.diagnostics->record("dag", core::to_string(issue.kind),
                                          issue.job_name + ": " + issue.message);
            }
          } else if (options.diagnostics != nullptr) {
            options.diagnostics->count("dag", core::to_string(issue.kind));
          }
        }
        return true;
      },
      trace::TraceReadOptions{!options.strict, options.diagnostics});
  out.stats.dags = out.dags.size();
  return out;
}

}  // namespace cwgl::oracle

#include "core/job_dag.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/conflation.hpp"
#include "trace/filter.hpp"
#include "trace/taskname.hpp"

namespace cwgl::core {

std::vector<int> JobDag::type_labels() const {
  std::vector<int> labels;
  labels.reserve(tasks.size());
  for (const TaskMeta& t : tasks) labels.push_back(static_cast<int>(t.type));
  return labels;
}

kernel::LabeledGraph JobDag::to_labeled() const {
  return kernel::LabeledGraph{dag, type_labels()};
}

std::vector<std::string> JobDag::vertex_names() const {
  std::vector<std::string> names;
  names.reserve(tasks.size());
  for (const TaskMeta& t : tasks) names.push_back(t.name);
  return names;
}

const char* to_string(BuildIssueKind kind) noexcept {
  switch (kind) {
    case BuildIssueKind::EmptyJob: return "empty-job";
    case BuildIssueKind::NonDagName: return "non-dag-name";
    case BuildIssueKind::DuplicateIndex: return "duplicate-index";
    case BuildIssueKind::MissingDependency: return "missing-dependency";
    case BuildIssueKind::Cycle: return "cycle";
  }
  return "unknown";
}

namespace {

void note(std::vector<BuildIssue>* issues, std::string_view job,
          std::string message, BuildIssueKind kind) {
  if (issues) issues->push_back({std::string(job), std::move(message), kind});
}

/// A thread's scratch for building DAGs: every task name of the job being
/// built, parsed once. Task i is `type[i]`, `index[i]` and dependency
/// indices `deps[dep_end[i - 1] .. dep_end[i])`. Kept across jobs, so a
/// build allocates only what the JobDag it returns owns; trim() frees it
/// after a job past kScratchCap, so a huge job leaves no huge scratch
/// behind on a long-lived thread.
struct BuildScratch {
  static constexpr std::size_t kScratchCap = std::size_t{1} << 12;

  std::vector<char> type;
  std::vector<int> index;
  std::vector<int> dep_end;
  std::vector<int> deps;
  std::vector<std::pair<int, int>> by_index;  ///< (index, vertex), sorted
  std::vector<int> kahn;                      ///< is_dag's work space

  /// Parses every name of `tasks`; returns the row of the first name
  /// outside the DAG grammar, or tasks.size().
  std::size_t parse(std::span<const trace::TaskRecord> tasks) {
    type.clear();
    index.clear();
    dep_end.clear();
    deps.clear();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      char t = '?';
      int idx = 0;
      if (!trace::parse_task_name(tasks[i].task_name, t, idx, deps)) return i;
      type.push_back(t);
      index.push_back(idx);
      dep_end.push_back(static_cast<int>(deps.size()));
    }
    return tasks.size();
  }

  std::span<const int> deps_of(std::size_t i) const {
    const int begin = i == 0 ? 0 : dep_end[i - 1];
    return {deps.data() + begin, static_cast<std::size_t>(dep_end[i] - begin)};
  }

  /// The vertex of task index `idx`, or -1.
  int vertex_of(int idx) const {
    const auto it = std::lower_bound(
        by_index.begin(), by_index.end(), std::pair<int, int>{idx, -1});
    return it != by_index.end() && it->first == idx ? it->second : -1;
  }

  void trim() {
    if (type.capacity() > kScratchCap || deps.capacity() > kScratchCap ||
        kahn.capacity() > 2 * kScratchCap) {
      *this = BuildScratch{};
    }
  }
};

BuildScratch& scratch() {
  thread_local BuildScratch s;
  return s;
}

/// build_job_dag once `s` holds the parsed names of `tasks`, all in the
/// grammar: the index, dependency and cycle checks, then the JobDag.
std::optional<JobDag> build_parsed(std::string_view job_name,
                                   std::span<const trace::TaskRecord> tasks,
                                   BuildScratch& s,
                                   std::vector<BuildIssue>* issues) {
  const std::size_t n = tasks.size();
  s.by_index.clear();
  for (std::size_t i = 0; i < n; ++i) {
    s.by_index.emplace_back(s.index[i], static_cast<int>(i));
  }
  std::sort(s.by_index.begin(), s.by_index.end());
  // The duplicate reported is the first row, in row order, whose index an
  // earlier row already holds: the lowest second vertex of any run.
  std::size_t dup = n;
  for (std::size_t k = 1; k < n; ++k) {
    if (s.by_index[k].first == s.by_index[k - 1].first &&
        (k == 1 || s.by_index[k - 2].first != s.by_index[k].first)) {
      dup = std::min(dup, static_cast<std::size_t>(s.by_index[k].second));
    }
  }
  if (dup < n) {
    note(issues, job_name, "duplicate task index " + std::to_string(s.index[dup]),
         BuildIssueKind::DuplicateIndex);
    return std::nullopt;
  }

  std::vector<int> offsets(n + 1, 0);
  std::vector<int> sources(s.deps.size());
  for (std::size_t i = 0; i < n; ++i) {
    int at = i == 0 ? 0 : s.dep_end[i - 1];
    for (const int dep : s.deps_of(i)) {
      const int v = s.vertex_of(dep);
      if (v < 0) {
        note(issues, job_name,
             "task " + tasks[i].task_name + " depends on missing index " +
                 std::to_string(dep),
             BuildIssueKind::MissingDependency);
        return std::nullopt;
      }
      sources[static_cast<std::size_t>(at++)] = v;
    }
    offsets[i + 1] = at;
  }

  graph::Digraph dag = graph::Digraph::from_predecessors(
      static_cast<int>(n), std::move(offsets), std::move(sources));
  if (!graph::is_dag(dag, s.kahn)) {
    note(issues, job_name, "task dependencies form a cycle",
         BuildIssueKind::Cycle);
    return std::nullopt;
  }
  JobDag job;
  job.job_name = job_name;
  job.dag = std::move(dag);
  job.tasks.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    TaskMeta& m = job.tasks[i];
    m.name = tasks[i].task_name;
    m.type = s.type[i];
    m.index = s.index[i];
    m.instance_num = tasks[i].instance_num;
    m.start_time = tasks[i].start_time;
    m.end_time = tasks[i].end_time;
    m.plan_cpu = tasks[i].plan_cpu;
    m.plan_mem = tasks[i].plan_mem;
  }
  return job;
}

/// The shared tail of both builds once the names are parsed.
std::optional<JobDag> finish_build(std::string_view job_name,
                                   std::span<const trace::TaskRecord> tasks,
                                   std::size_t bad_name, BuildScratch& s,
                                   std::vector<BuildIssue>* issues) {
  std::optional<JobDag> out;
  if (tasks.empty()) {
    note(issues, job_name, "job has no tasks", BuildIssueKind::EmptyJob);
  } else if (bad_name < tasks.size()) {
    note(issues, job_name, "non-DAG task name: " + tasks[bad_name].task_name,
         BuildIssueKind::NonDagName);
  } else {
    out = build_parsed(job_name, tasks, s, issues);
  }
  s.trim();
  return out;
}

}  // namespace

std::optional<JobDag> build_job_dag(std::string_view job_name,
                                    std::span<const trace::TaskRecord> tasks,
                                    std::vector<BuildIssue>* issues) {
  BuildScratch& s = scratch();
  return finish_build(job_name, tasks, s.parse(tasks), s, issues);
}

bool passes_row_criteria(std::span<const trace::TaskRecord> tasks,
                         const trace::SamplingCriteria& criteria) {
  const auto size = static_cast<long long>(tasks.size());
  return size >= criteria.min_tasks && size <= criteria.max_tasks &&
         (!criteria.require_integrity || trace::passes_integrity(tasks)) &&
         (!criteria.require_availability || trace::passes_availability(tasks));
}

std::optional<JobDag> build_eligible_dag(
    std::string_view job_name, std::span<const trace::TaskRecord> tasks,
    const trace::SamplingCriteria& criteria, bool& eligible,
    std::vector<BuildIssue>* issues) {
  eligible = false;
  BuildScratch& s = scratch();
  const std::size_t bad_name = s.parse(tasks);
  // trace::is_dag_job over the parse: two or more tasks, every name in the
  // grammar, and at least one dependency.
  if (criteria.require_dag &&
      (tasks.size() < 2 || bad_name < tasks.size() || s.deps.empty())) {
    s.trim();
    return std::nullopt;
  }
  eligible = true;
  return finish_build(job_name, tasks, bad_name, s, issues);
}

JobDag conflate_job(const JobDag& job) {
  const auto labels = job.type_labels();
  const auto result = graph::conflate(job.dag, labels);

  JobDag out;
  out.job_name = job.job_name;
  out.dag = result.graph;
  out.tasks.resize(result.representative.size());
  for (std::size_t c = 0; c < result.representative.size(); ++c) {
    out.tasks[c] = job.tasks[result.representative[c]];
    out.tasks[c].instance_num = 0;  // re-aggregate below
    out.tasks[c].plan_cpu = 0.0;
    out.tasks[c].plan_mem = 0.0;
  }
  for (std::size_t v = 0; v < job.tasks.size(); ++v) {
    TaskMeta& m = out.tasks[result.mapping[v]];
    const TaskMeta& src = job.tasks[v];
    m.instance_num += src.instance_num;
    m.plan_cpu += src.plan_cpu;
    m.plan_mem += src.plan_mem;
    if (src.start_time > 0) {
      m.start_time = m.start_time > 0 ? std::min(m.start_time, src.start_time)
                                      : src.start_time;
    }
    m.end_time = std::max(m.end_time, src.end_time);
  }
  return out;
}

}  // namespace cwgl::core

#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwgl::trace {

/// Decoded form of a dependency-encoded batch task name.
///
/// The Alibaba v2018 trace encodes each DAG task's direct dependencies in
/// its name: `<TYPE><IDX>[_<DEP>]*`, e.g.
///   "M1"         — Map task 1, no dependencies
///   "R2_1"       — Reduce task 2, depends on task 1
///   "J4_2_3"     — Join task 4, depends on tasks 2 and 3
///   "R5_4_3_2_1" — Reduce task 5, depends on tasks 4, 3, 2 and 1
/// Names that do not follow this grammar (e.g. "task_Zxg3Fh", independent
/// single-task jobs) carry no dependency information.
struct TaskName {
  char type = '?';         ///< leading letter: 'M' (Map/Merge), 'R', 'J', ...
  int index = 0;           ///< the task's own 1-based index within the job
  std::vector<int> deps;   ///< direct dependency indices, in name order

  friend bool operator==(const TaskName&, const TaskName&) = default;
};

/// Decodes a DAG task name; nullopt if the name does not match the grammar
/// (which is how non-DAG tasks are recognized, per Section IV-A).
///
/// Grammar accepted: one or more ASCII letters (the FIRST letter is the
/// type), then a positive integer index, then zero or more "_<positive
/// integer>" dependency suffixes. Anything else — including the trace's
/// "task_..." independent tasks — returns nullopt.
std::optional<TaskName> parse_task_name(std::string_view name);

/// parse_task_name into caller-owned storage, so a caller that keeps
/// `deps` parses a job's names without allocating: on a match, sets `type`
/// and `index`, appends the dependency indices to `deps` and returns true;
/// otherwise returns false with all three as they were.
bool parse_task_name(std::string_view name, char& type, int& index,
                     std::vector<int>& deps);

/// Re-encodes a TaskName into trace spelling. Inverse of parse_task_name
/// for all names produced by this library.
std::string encode_task_name(const TaskName& t);

/// Convenience: encode from parts.
std::string encode_task_name(char type, int index, std::span<const int> deps);

/// True if the name parses as a DAG task name.
bool is_dag_task_name(std::string_view name);

}  // namespace cwgl::trace

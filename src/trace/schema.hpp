#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwgl::trace {

/// Task/instance lifecycle states used by the Alibaba cluster-trace-v2018.
enum class Status {
  Waiting,      ///< submitted, not yet scheduled
  Running,      ///< executing when the trace window closed
  Terminated,   ///< finished successfully
  Failed,       ///< finished unsuccessfully
  Cancelled,    ///< killed before completion (e.g. resource competition)
  Interrupted,  ///< preempted by higher-priority (online) services
  Unknown,      ///< anything the parser does not recognize
};

/// Parses the trace's status spelling ("Terminated", ...); unknown text maps
/// to Status::Unknown rather than throwing, matching the tolerant way trace
/// consumers must treat production data. Inline with first-character
/// dispatch: this sits on the per-row hot path of the streaming CSV ingest.
inline Status parse_status(std::string_view text) noexcept {
  if (text.empty()) return Status::Unknown;
  switch (text.front()) {
    case 'W': return text == "Waiting" ? Status::Waiting : Status::Unknown;
    case 'R': return text == "Running" ? Status::Running : Status::Unknown;
    case 'T':
      return text == "Terminated" ? Status::Terminated : Status::Unknown;
    case 'F': return text == "Failed" ? Status::Failed : Status::Unknown;
    case 'C':
      return text == "Cancelled" ? Status::Cancelled : Status::Unknown;
    case 'I':
      return text == "Interrupted" ? Status::Interrupted : Status::Unknown;
    default: return Status::Unknown;
  }
}

/// Canonical trace spelling of a status.
std::string_view to_string(Status s) noexcept;

/// One row of `batch_task.csv` (Alibaba cluster-trace-v2018 column order:
/// task_name, instance_num, job_name, task_type, status, start_time,
/// end_time, plan_cpu, plan_mem).
struct TaskRecord {
  std::string task_name;     ///< dependency-encoded name, e.g. "R5_4_3_2_1"
  int instance_num = 0;      ///< number of instances fanned out for the task
  std::string job_name;      ///< parent job id, e.g. "j_1001388"
  int task_type = 1;         ///< opaque numeric type tag from the trace
  Status status = Status::Terminated;
  std::int64_t start_time = 0;  ///< seconds since trace epoch; 0 = missing
  std::int64_t end_time = 0;    ///< seconds since trace epoch; 0 = missing
  double plan_cpu = 0.0;     ///< requested CPU, 100 == one core
  double plan_mem = 0.0;     ///< requested memory, normalized percentage

  /// Serializes to the nine CSV fields in trace column order.
  std::vector<std::string> to_fields() const;

  /// Parses CSV fields into this record in place, reusing the capacity of
  /// its strings: the streaming ingest parses every row into a record it
  /// recycles. Returns false, leaving the record unchanged, if the row has
  /// the wrong arity or un-parseable numerics (malformed rows exist in
  /// production traces and are skipped, not fatal). The views need only
  /// outlive the call.
  bool assign_fields(std::span<const std::string_view> f);

  /// assign_fields into a new record; nullopt on a malformed row.
  static std::optional<TaskRecord> from_fields(
      std::span<const std::string_view> f);
  static std::optional<TaskRecord> from_fields(const std::vector<std::string>& f);
};

/// One row of `batch_instance.csv` (column order: instance_name, task_name,
/// job_name, task_type, status, start_time, end_time, machine_id, seq_no,
/// total_seq_no, cpu_avg, cpu_max, mem_avg, mem_max).
struct InstanceRecord {
  std::string instance_name;
  std::string task_name;
  std::string job_name;
  int task_type = 1;
  Status status = Status::Terminated;
  std::int64_t start_time = 0;
  std::int64_t end_time = 0;
  std::string machine_id;   ///< e.g. "m_1932"
  int seq_no = 1;           ///< retry sequence number of this instance
  int total_seq_no = 1;     ///< total retries observed
  double cpu_avg = 0.0;     ///< average CPU used, 100 == one core
  double cpu_max = 0.0;
  double mem_avg = 0.0;     ///< average memory used, normalized percentage
  double mem_max = 0.0;

  /// Serializes to the fourteen CSV fields in trace column order.
  std::vector<std::string> to_fields() const;

  /// Parses from CSV fields; nullopt on malformed rows. The span overload
  /// is the zero-copy hot path.
  static std::optional<InstanceRecord> from_fields(
      std::span<const std::string_view> f);
  static std::optional<InstanceRecord> from_fields(const std::vector<std::string>& f);
};

/// An in-memory trace: the two batch files of the v2018 release.
struct Trace {
  std::vector<TaskRecord> tasks;
  std::vector<InstanceRecord> instances;
};

}  // namespace cwgl::trace

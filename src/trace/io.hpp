#pragma once

#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <span>
#include <vector>

#include "trace/schema.hpp"

namespace cwgl::util {
class Diagnostics;
}

namespace cwgl::trace {

/// How trace readers treat damaged input.
///
/// Strict (lenient == false) raises a typed util::ParseError at the first
/// structurally damaged record — the validation posture. Lenient quarantines
/// the record into `diagnostics` (when provided) and keeps going — the
/// production posture, because real cluster traces contain truncated files,
/// unterminated quotes, and shuffled columns.
struct TraceReadOptions {
  bool lenient = true;
  util::Diagnostics* diagnostics = nullptr;
};

/// Writes `batch_task.csv` rows (no header, like the real trace).
void write_batch_task_csv(std::ostream& out, std::span<const TaskRecord> tasks);

/// Writes `batch_instance.csv` rows (no header).
void write_batch_instance_csv(std::ostream& out,
                              std::span<const InstanceRecord> instances);

/// Reads batch_task rows; malformed rows are counted into `*skipped` (when
/// non-null) and dropped, mirroring how production traces must be consumed.
/// Under `options.lenient` CSV-level damage (unterminated quotes) is also
/// quarantined; strict mode throws util::ParseError on it.
std::vector<TaskRecord> read_batch_task_csv(std::istream& in,
                                            std::size_t* skipped = nullptr,
                                            const TraceReadOptions& options = {});

/// Reads batch_instance rows with the same tolerance.
std::vector<InstanceRecord> read_batch_instance_csv(
    std::istream& in, std::size_t* skipped = nullptr,
    const TraceReadOptions& options = {});

/// Writes `<dir>/batch_task.csv` and `<dir>/batch_instance.csv`
/// (creates `dir` if needed). Throws util::Error on I/O failure.
void write_trace(const Trace& trace, const std::filesystem::path& dir);

/// Reads a trace directory written by `write_trace` (the instance file is
/// optional, matching partial downloads of the real trace). `*skipped`
/// counts malformed rows plus (lenient mode) quarantined CSV records.
Trace read_trace(const std::filesystem::path& dir, std::size_t* skipped = nullptr,
                 const TraceReadOptions& options = {});

/// Statistics of a streaming pass.
struct StreamStats {
  std::size_t rows = 0;          ///< well-formed task rows visited
  std::size_t malformed = 0;     ///< rows dropped
  std::size_t jobs = 0;          ///< job groups emitted
  std::size_t fragmented = 0;    ///< jobs whose rows were NOT contiguous
};

/// Streams batch_task rows grouped by job WITHOUT materializing the trace —
/// required for the real 270 GB files. Ownership of each job group
/// transfers to `fn`, so a consumer can forward groups to worker threads
/// without copying (the streaming ingest's reader thread does). Rows of one
/// job are assumed contiguous (true of the released trace); if a job name
/// reappears after its group was emitted, the re-occurrence is emitted as a
/// separate group and counted in `StreamStats::fragmented` so callers can
/// detect unsorted input; spotting it means keeping every job name seen,
/// packed at about 30-50 bytes a short name, the stream's one per-job
/// cost. `fn` returning false stops the stream early.
///
/// Failure posture follows `options`: lenient (default) quarantines
/// malformed rows and CSV damage into `options.diagnostics`; strict throws
/// util::ParseError naming the first offending record.
StreamStats consume_jobs_in_task_csv(
    std::istream& in,
    const std::function<bool(std::string&& job_name,
                             std::vector<TaskRecord>&& tasks)>& fn,
    const TraceReadOptions& options = {});

}  // namespace cwgl::trace

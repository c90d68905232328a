#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/schema.hpp"
#include "util/csv_scanner.hpp"

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

namespace detail {

/// A row reassembled for messages and samples ("f0,f1,...", clipped after
/// 120 bytes): the preview of every reader's malformed-row path.
std::string row_preview(std::span<const std::string_view> fields);

}  // namespace detail

/// Statistics of a streaming pass.
struct StreamStats {
  std::size_t rows = 0;          ///< well-formed task rows visited
  std::size_t malformed = 0;     ///< rows dropped
  std::size_t jobs = 0;          ///< job groups emitted
  std::size_t fragmented = 0;    ///< jobs whose rows were NOT contiguous
};

/// Streams batch_task rows grouped by job WITHOUT materializing the trace —
/// required for the real 270 GB files. Rows of one job are assumed
/// contiguous (true of the released trace); a job name that reappears after
/// its group closed opens a separate group, counted in
/// `StreamStats::fragmented`. Malformed rows never split a group. A serial
/// stream_job_groups (trace/group_stream.hpp) with its failure posture;
/// ownership of each job group, copied out of the stream, transfers to
/// `fn`, on the calling thread and in trace order. `fn` returning false
/// stops the stream early; the stats then count through the row that
/// closed that group.
StreamStats consume_jobs_in_task_csv(
    std::istream& in,
    const std::function<bool(std::string&& job_name,
                             std::vector<TaskRecord>&& tasks)>& fn,
    const TraceReadOptions& options = {});

}  // namespace cwgl::trace

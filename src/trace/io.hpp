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

/// Statistics of a streaming pass.
struct StreamStats {
  std::size_t rows = 0;          ///< well-formed task rows visited
  std::size_t malformed = 0;     ///< rows dropped
  std::size_t jobs = 0;          ///< job groups emitted
  std::size_t fragmented = 0;    ///< jobs whose rows were NOT contiguous
};

/// Reads `batch_task.csv` one well-formed row at a time into a record the
/// caller owns, so a caller that recycles its records parses every row in
/// place, and tracks the job groups the rows form. Rows of one job are
/// assumed contiguous (true of the released trace); if a job name reappears
/// after its group closed, the re-occurrence opens a separate group, counted
/// in `StreamStats::fragmented` so callers can detect unsorted input.
/// Spotting it means keeping every closed job name, packed at about 30-50
/// bytes a short name, the stream's one per-job cost. consume_jobs_in_task_csv
/// and the streaming ingest's reader (core/ingest.cpp) are loops over it.
///
/// Failure posture follows `options`: lenient (default) quarantines
/// malformed rows and CSV damage into `options.diagnostics`; strict throws
/// util::ParseError naming the first offending record.
class TaskRowReader {
 public:
  /// What next() read.
  enum class Row {
    kEnd,      ///< nothing: the input is exhausted and its last group closed
    kSameJob,  ///< a row of the open job group
    kNewJob,   ///< a row that opens a job group, closing the open one
  };

  explicit TaskRowReader(std::istream& in, const TraceReadOptions& options = {});

  /// Parses the next well-formed row into `rec`, reusing the capacity of its
  /// strings, and says whether it opens a job group. Malformed rows before
  /// it are counted and handled per the options. `rec` is unchanged on kEnd.
  Row next(TaskRecord& rec);

  /// Counts so far: rows parsed, groups closed (a group closes when the row
  /// after it opens the next, or at the end), and malformed rows, scanner
  /// quarantines included.
  StreamStats stats() const noexcept;

 private:
  /// The names of the closed job groups, to spot a job whose rows reappear.
  /// It holds one entry per job of the file, so it is packed: the names sit
  /// in one arena, each behind its 4-byte length, and an open-addressing
  /// table at most half full holds their arena offsets. That is about
  /// 30-50 B a short name, where a node-based set of strings takes about 75.
  class ClosedJobs {
   public:
    /// Records `name`; false when it was recorded before.
    bool insert(std::string_view name);

   private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    std::string_view name_at(std::uint64_t offset) const;
    /// The slot holding `name`, or the empty slot where it belongs.
    std::size_t find(std::string_view name) const;
    /// Doubles the table and re-indexes every name from the arena.
    void grow();

    std::string arena_;
    std::vector<std::uint64_t> slots_;  ///< arena offsets; size a power of two
    std::size_t count_ = 0;
  };

  /// Counts the open group, if any, as closed.
  void close_group();

  util::CsvScanner scanner_;
  TraceReadOptions options_;
  StreamStats stats_;
  ClosedJobs closed_;
  std::string open_job_;  ///< the open group's job name
  bool open_ = false;
};

/// Streams batch_task rows grouped by job WITHOUT materializing the trace —
/// required for the real 270 GB files. A loop over TaskRowReader, with its
/// grouping rule, stats and failure posture. Ownership of each job group
/// transfers to `fn`; `fn` returning false stops the stream early.
StreamStats consume_jobs_in_task_csv(
    std::istream& in,
    const std::function<bool(std::string&& job_name,
                             std::vector<TaskRecord>&& tasks)>& fn,
    const TraceReadOptions& options = {});

}  // namespace cwgl::trace

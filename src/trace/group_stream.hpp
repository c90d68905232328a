#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/io.hpp"
#include "trace/schema.hpp"

namespace cwgl::util {
class Diagnostics;
class ThreadPool;
}  // namespace cwgl::util

namespace cwgl::trace {

/// Bytes a worker of the job-group stream reads at a time.
inline constexpr std::size_t kDefaultChunkBytes = std::size_t{64} << 10;

/// Tuning and posture of stream_job_groups.
struct GroupStreamOptions {
  /// Failure posture and diagnostics sink, as for every trace reader.
  TraceReadOptions read;
  /// Bytes a worker reads at a time; a chunk then runs to the last '\n' in
  /// it. Any size from 1 byte up yields the same groups, stats and errors.
  std::size_t chunk_bytes = kDefaultChunkBytes;
};

/// The diagnostics a group handler reports, delivered to the stream's sink
/// in trace order whichever worker handled the group: straight through
/// when the handler runs in order, otherwise buffered with the chunk and
/// replayed when its turn comes.
class GroupLog {
 public:
  GroupLog(util::Diagnostics* sink, bool buffered) noexcept
      : sink_(sink), buffered_(buffered) {}

  /// Diagnostics::record, in trace order.
  void record(std::string_view stage, std::string_view kind,
              std::string_view sample);

  /// Diagnostics::count, in trace order.
  void count(std::string_view stage, std::string_view kind);

  /// Hands everything buffered to the sink, in order, and forgets it.
  void replay();

  /// Forgets everything buffered.
  void clear() noexcept;

 private:
  struct Event {
    std::string stage;
    std::string kind;
    std::string sample;
    bool counted_only = false;
  };

  util::Diagnostics* sink_;
  bool buffered_;
  std::vector<Event> events_;
  std::size_t used_ = 0;  ///< events_ past this are spare, kept for reuse
};

/// One complete job group: a maximal run of consecutive well-formed rows
/// that name the same job.
struct StreamedGroup {
  /// Orders the groups in trace order: the stream offset of the group's
  /// first row.
  std::uint64_t seq = 0;
  std::string_view job_name;
  std::span<const TaskRecord> rows;
};

/// Called once per complete group on the worker that completed it; `slot`
/// is that worker's, in [0, group_stream_slots(pool)). The views in the
/// group are valid during the call only. Returning false stops the
/// stream after this group. An exception ranks as an offense at the row
/// that closed the group (see stream_job_groups).
using GroupHandler = std::function<bool(std::size_t slot,
                                        const StreamedGroup& group,
                                        GroupLog& log)>;

/// Slots of stream_job_groups: one per pool worker with two or more, one
/// otherwise.
std::size_t group_stream_slots(const util::ThreadPool* pool);

/// Streams `batch_task.csv`, grouped by job, through `handler` — the one
/// reader loop of the tree. With a pool of two or more workers every
/// worker runs it; otherwise the caller does. A worker takes the next
/// chunk under an input lock (`chunk_bytes` read, cut after its last
/// '\n'), then scans, parses and groups it unlocked, hands every group
/// that cannot continue past the chunk's edges to `handler`, and takes a
/// turn at an ordered stitch. The stitch joins the first group of a chunk
/// to the last one before it when they name the same job, across any
/// number of chunks, exactly as a serial reader groups rows: malformed
/// rows are invisible to grouping. A chunk that holds a quote, or a run of
/// max(chunk_bytes, 256 KiB) bytes without a '\n', hands the rest of the
/// stream to one exact util::CsvScanner on the worker that read it.
///
/// Results equal a serial read at every chunk size: the same groups, rows
/// and StreamStats (`fragmented` counts completed groups whose name had
/// already closed), diagnostics in file order, and under strict posture
/// the first offense in file order: a malformed row at its own record, a
/// handler's exception at the row that closed its group (or the end), CSV
/// damage where the scanner meets it. Strict `ParseError`s name absolute
/// record numbers. A worker that runs ahead of the stitch waits only on
/// chunks that running workers hold, so memory is bounded by workers x
/// chunk. Each worker allocates and frees its own buffers and rows. On a
/// pool each worker records an `ingest.worker` span (args `chunks`,
/// `groups`, `cpu_us`, `input_wait_us`, `stitch_wait_us`). Failpoints:
/// `ingest.read_block`, `ingest.worker_chunk`, `ingest.stitch`. Must not
/// be called from inside a task running on `pool`.
StreamStats stream_job_groups(std::istream& in,
                              const GroupStreamOptions& options,
                              util::ThreadPool* pool,
                              const GroupHandler& handler);

}  // namespace cwgl::trace

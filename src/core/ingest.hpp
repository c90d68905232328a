#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/job_dag.hpp"
#include "core/shape_store.hpp"
#include "obs/tracer.hpp"
#include "trace/filter.hpp"
#include "trace/group_stream.hpp"
#include "trace/io.hpp"
#include "util/diagnostics.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

/// Tuning knobs for the streaming DAG ingest.
struct IngestOptions {
  /// Job eligibility (same Section IV-B semantics as build_all_dag_jobs).
  trace::SamplingCriteria criteria;
  /// Bytes a worker reads at a time (trace::GroupStreamOptions): memory is
  /// bounded by workers x chunk on a 270 GB input, and any size from 1
  /// byte up yields the same result.
  std::size_t chunk_bytes = trace::kDefaultChunkBytes;
  /// Failure posture. Lenient (default, the production posture) quarantines
  /// damaged input — malformed rows, unterminated quotes, corrupt jobs
  /// (duplicate indices, missing dependencies, cycles) — into `diagnostics`
  /// and keeps going. Strict raises at the first offense: util::ParseError
  /// for CSV-level damage, util::GraphError for a corrupt job. Jobs that are
  /// merely *filtered* (non-DAG task names, the paper's eligibility rules)
  /// are skipped in both modes, never escalated.
  bool strict = false;
  /// Optional sink for quarantine counts and samples, delivered in file
  /// order on both paths.
  util::Diagnostics* diagnostics = nullptr;
};

/// What the ingest saw, for throughput/quality reporting.
struct IngestStats {
  trace::StreamStats stream;   ///< rows/jobs/malformed/fragmented
  std::size_t eligible = 0;    ///< job groups passing the criteria
  /// Eligible jobs that make a DAG: built, or answered by the stream's
  /// repeat hook as a repeat of one built before (stream_shape_jobs).
  std::size_t dags = 0;
};

namespace detail {

/// Receives every built DAG on the thread that built it: `slot` is that
/// thread's slot in [0, trace::group_stream_slots(pool)), `seq` orders the
/// jobs in trace order (trace::StreamedGroup::seq). Within one slot, jobs
/// cut by a chunk edge can arrive after later ones: the worker that holds
/// the stitch builds them.
using DagSink =
    std::function<void(std::size_t slot, std::size_t seq, JobDag&& dag)>;

/// Asked about every job group that passes_row_criteria, on the thread
/// and slot that hold it (DagSink's), before its task names are parsed.
/// True when the hook answered the job itself: it then counts as eligible
/// and built, and no JobDag is made for it. False has it built and handed
/// to the DagSink as usual.
using RepeatHook =
    std::function<bool(std::size_t slot, const trace::StreamedGroup& group)>;

/// The worker loop behind stream_transformed: trace::stream_job_groups
/// with the row-level criteria, the optional `repeat` hook, then the
/// name-level criteria and the DAG build per group; fills `stats`.
void stream_built_dags(std::istream& task_csv, const IngestOptions& options,
                       util::ThreadPool* pool, IngestStats& stats,
                       const DagSink& sink, const RepeatHook& repeat = {});

/// Puts a finished stream's counts on its span and into the
/// `ingest.stream.*` and `ingest.dag.*` counters.
void publish_stream_metrics(obs::Span& span, const IngestStats& stats);

/// A stream's per-job results, kept per slot as the slot's thread makes
/// them and merged into trace order once the stream ends.
template <typename Out>
class SlotResults {
 public:
  explicit SlotResults(std::size_t slots) : slots_(slots) {}

  /// Adds the result of job `seq`; only `slot`'s thread calls this.
  void push(std::size_t slot, std::size_t seq, Out item) {
    Slot& s = slots_[slot];
    s.items.push_back(std::move(item));
    s.seqs.push_back(seq);
    // A job cut by a chunk edge can follow later ones (DagSink): move it
    // back past the few that belong after it.
    for (std::size_t i = s.seqs.size() - 1; i > 0 && s.seqs[i - 1] > seq;
         --i) {
      std::swap(s.seqs[i - 1], s.seqs[i]);
      std::swap(s.items[i - 1], s.items[i]);
    }
  }

  /// Every result in trace order; `total` is their number.
  std::vector<Out> merge(std::size_t total) && {
    // Each slot is in trace order. One (the serial path) is the result;
    // several are merged by sequence. A worker's chunk yields a run of
    // consecutive jobs, so the lowest head's slot is drained while its seq
    // stays below the lowest of the other heads: one comparison a job, and
    // a scan of the heads (one per worker) only where the run ends.
    if (slots_.size() == 1) return std::move(slots_.front().items);
    std::vector<Out> out;
    out.reserve(total);
    constexpr std::size_t kDrained = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> head(slots_.size(), 0);
    const auto head_seq = [&](std::size_t s) {
      return head[s] < slots_[s].seqs.size() ? slots_[s].seqs[head[s]]
                                             : kDrained;
    };
    for (;;) {
      std::size_t next = 0;
      std::size_t next_seq = kDrained;
      std::size_t others = kDrained;  // lowest head of the other slots
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        const std::size_t seq = head_seq(s);
        if (seq < next_seq) {
          others = next_seq;
          next_seq = seq;
          next = s;
        } else if (seq < others) {
          others = seq;
        }
      }
      if (next_seq == kDrained) break;
      Slot& s = slots_[next];
      std::size_t& h = head[next];
      do {
        out.push_back(std::move(s.items[h++]));
      } while (h < s.seqs.size() && s.seqs[h] < others);
    }
    return out;
  }

 private:
  struct Slot {
    std::vector<std::size_t> seqs;
    std::vector<Out> items;
  };
  std::vector<Slot> slots_;
};

}  // namespace detail

/// What `transform(seq, JobDag&&)` returns, per job.
template <typename Transform>
using transformed_t =
    std::decay_t<std::invoke_result_t<Transform&, std::size_t, JobDag&&>>;

/// The streaming ingest: builds every eligible DAG job straight from a
/// `batch_task.csv` stream without materializing a Trace, and applies
/// `transform(seq, JobDag&&)` to each on the thread that built it. `seq`
/// orders the jobs in trace order: the stream offset of the job's first
/// row. Returns the results in trace order, and fills `stats`.
/// stream_dag_jobs collects the DAGs and `cwgl predict` classifies and
/// renders each job; `cwgl ingest` passes a transform that returns void
/// (the overload below). stream_shape_jobs runs the same worker loop
/// (detail::stream_built_dags) with a repeat hook in front of the build.
///
/// With `pool == nullptr` (or a single-thread pool) everything runs inline
/// on the calling thread. Otherwise every pool worker reads, scans, parses
/// and groups its own chunk of whole rows, filters and builds the jobs
/// that open and close inside it and runs the transform on them, and
/// takes an ordered turn to stitch the jobs cut by chunk edges
/// (trace::stream_job_groups). The transform must then be safe to call
/// concurrently. The result equals the serial path's at every chunk size.
///
/// Unlike the TraceIndex-based build_all_dag_jobs, a job whose rows
/// re-occur after its group was emitted yields separate groups (counted in
/// stats.stream.fragmented) — true of both paths only for sorted traces,
/// which the released trace is. Must not be called from inside a task
/// running on `pool` (the caller blocks on pool results).
///
/// Failure posture follows `options.strict` (see IngestOptions); both
/// paths rethrow the first offense in file order, a corrupt job ranking
/// at the row that closes its group, after every worker stopped. Records
/// an `ingest.stream` span ⊃ one `ingest.worker` per pool thread (args
/// `chunks`, `groups`, `cpu_us`, `input_wait_us`, `stitch_wait_us`), and
/// the `ingest.stream.*` and `ingest.dag.*` counters.
template <typename Transform>
  requires(!std::is_void_v<transformed_t<Transform>>)
std::vector<transformed_t<Transform>> stream_transformed(
    std::istream& task_csv, const IngestOptions& options,
    util::ThreadPool* pool, IngestStats& stats, Transform transform) {
  obs::Span span("ingest.stream");
  detail::SlotResults<transformed_t<Transform>> results(
      trace::group_stream_slots(pool));
  detail::stream_built_dags(
      task_csv, options, pool, stats,
      [&](std::size_t slot, std::size_t seq, JobDag&& dag) {
        results.push(slot, seq, transform(seq, std::move(dag)));
      });
  std::vector<transformed_t<Transform>> out =
      std::move(results).merge(stats.dags);
  detail::publish_stream_metrics(span, stats);
  return out;
}

/// stream_transformed with a transform that returns void: it keeps
/// nothing, so each DAG is freed on the thread that built it and memory
/// does not grow with the stream's jobs. `stats.dags` counts them.
template <typename Transform>
  requires std::is_void_v<transformed_t<Transform>>
void stream_transformed(std::istream& task_csv, const IngestOptions& options,
                        util::ThreadPool* pool, IngestStats& stats,
                        Transform transform) {
  obs::Span span("ingest.stream");
  detail::stream_built_dags(
      task_csv, options, pool, stats,
      [&](std::size_t /*slot*/, std::size_t seq, JobDag&& dag) {
        transform(seq, std::move(dag));
      });
  detail::publish_stream_metrics(span, stats);
}

/// stream_transformed collecting the DAGs themselves: every eligible DAG
/// job of the stream, in trace order.
std::vector<JobDag> stream_dag_jobs(std::istream& task_csv,
                                    const IngestOptions& options = {},
                                    util::ThreadPool* pool = nullptr,
                                    IngestStats* stats = nullptr);

/// Result of a shape-interned ingest: instead of one JobDag per eligible
/// job, the trace collapses to its distinct shapes plus a per-job mapping.
struct InternedIngest {
  /// Distinct shapes in first-seen order (deterministic across pooled and
  /// serial ingest of the same stream).
  ShapeTable table;
  /// Dense shape id of every built job, in trace order; size == stats.dags.
  std::vector<std::uint32_t> shape_of;
  IngestStats stats;
  ShapeStore::Stats intern;
};

/// stream_transformed interning every built JobDag into a sharded
/// ShapeStore instead of accumulating it, so memory and downstream work
/// scale with *distinct shapes*, not jobs.
///
/// Each slot keeps a memo of the task-name sequences it built (row order;
/// lock-free, since a slot belongs to one worker). A job whose names equal
/// an entry's, and which comes after the entry's job in the trace, has
/// that job's shape: it is counted against the entry (detail::RepeatHook)
/// with no parse, DAG, hash or probe. Any other job is built and interned,
/// so the exemplar is still the earliest job of its shape. After the
/// stream ShapeStore::add_repeats folds the counts in, one hit and one
/// probe each, and `intern.repeats` counts them; the result equals an
/// ingest without the memo, bar `intern.repeats` (and, where two shapes
/// share a key, the probes a repeat would have spent on the other).
/// Records an `ingest.intern` span ⊃ `ingest.stream`, with args `shapes`
/// and `repeats`. Failpoints: the stream_dag_jobs set plus `shape.intern`.
InternedIngest stream_shape_jobs(std::istream& task_csv,
                                 const IngestOptions& options = {},
                                 util::ThreadPool* pool = nullptr,
                                 ShapeStore::Options shape_options = {});

}  // namespace cwgl::core

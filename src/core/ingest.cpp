#include "core/ingest.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"
#include "util/bounded_queue.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace cwgl::core {

namespace {

/// A run of consecutive job groups, packed flat: group i is rows
/// [ends[i - 1], ends[i]) of `rows` (from 0 for i = 0), and its name is
/// those rows' job name. The records outlive clear(): only the first `used`
/// hold this batch's rows, and the reader parses each new row into the
/// next record in place, reusing its strings. first_seq restores trace
/// order at the end.
struct Batch {
  std::size_t first_seq = 0;
  std::vector<std::size_t> ends;
  std::vector<trace::TaskRecord> rows;
  std::size_t used = 0;

  std::size_t jobs() const noexcept { return ends.size(); }

  std::span<const trace::TaskRecord> rows_of(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {rows.data() + begin, ends[i] - begin};
  }

  const std::string& name_of(std::size_t i) const {
    return rows[i == 0 ? 0 : ends[i - 1]].job_name;
  }

  /// The record the next row is parsed into.
  trace::TaskRecord& slot() {
    if (used == rows.size()) rows.emplace_back();
    return rows[used];
  }

  /// True when rows after the last closed group are held.
  bool open() const noexcept {
    return used > (ends.empty() ? 0 : ends.back());
  }

  void close_group() { ends.push_back(used); }

  void clear() noexcept {
    ends.clear();
    used = 0;
  }
};

/// Spent batches on their way from the workers back to the reader. The
/// reader clears and refills them, so every batch buffer, and every string
/// the parser allocated into its rows, is allocated and freed on the
/// reader; freeing them on the workers stalled the reader (DESIGN.md §9).
/// A plain mutex-guarded list, not a second BoundedQueue, so recycling
/// adds no `queue.*` counts and no queue failpoint hits.
class SpentBatches {
 public:
  /// `most` bounds the batches alive at once, so put() never reallocates.
  explicit SpentBatches(std::size_t most) { spent_.reserve(most); }

  void put(Batch&& batch) {
    std::lock_guard lock(mutex_);
    spent_.push_back(std::move(batch));
  }

  /// A spent batch, cleared, or a new one when none is back yet.
  Batch take() {
    Batch batch;
    {
      std::lock_guard lock(mutex_);
      if (spent_.empty()) return batch;
      batch = std::move(spent_.back());
      spent_.pop_back();
    }
    batch.clear();
    ++recycled_;
    return batch;
  }

  /// Batches take() handed out again (read on the reader only).
  std::size_t recycled() const noexcept { return recycled_; }

 private:
  std::mutex mutex_;
  std::vector<Batch> spent_;
  std::size_t recycled_ = 0;
};

trace::TraceReadOptions read_options(const IngestOptions& options) {
  return trace::TraceReadOptions{!options.strict, options.diagnostics};
}

/// Builds one job DAG applying the ingest's failure posture: corruption
/// kinds (duplicate index, missing dependency, cycle) throw GraphError under
/// strict and are quarantined into diagnostics under lenient; filtering
/// kinds (non-DAG names) are skipped quietly in both modes, with only a
/// count kept so reports can show how much the eligibility rules removed.
std::optional<JobDag> build_with_posture(std::string job,
                                         std::span<const trace::TaskRecord> tasks,
                                         const IngestOptions& options) {
  std::vector<BuildIssue> issues;
  auto dag = build_job_dag(std::move(job), tasks, &issues);
  if (dag) return dag;
  for (const BuildIssue& issue : issues) {
    if (is_corruption(issue.kind)) {
      if (options.strict) {
        throw util::GraphError("job " + issue.job_name + ": " + issue.message);
      }
      if (options.diagnostics != nullptr) {
        options.diagnostics->record("dag", to_string(issue.kind),
                                    issue.job_name + ": " + issue.message);
      }
    } else if (options.diagnostics != nullptr) {
      options.diagnostics->count("dag", to_string(issue.kind));
    }
  }
  return std::nullopt;
}

bool runs_pooled(const util::ThreadPool* pool) {
  return pool != nullptr && pool->size() >= 2;
}

struct WorkerCounts {
  std::size_t eligible = 0;
  std::size_t built = 0;
};

/// Filters the groups of `batch`, builds the DAGs of the eligible ones and
/// hands each to `sink` as slot `slot`.
void build_batch(const Batch& batch, const IngestOptions& options,
                 std::size_t slot, const detail::DagSink& sink,
                 WorkerCounts& counts) {
  for (std::size_t i = 0; i < batch.jobs(); ++i) {
    const auto rows = batch.rows_of(i);
    if (!trace::passes_criteria(rows, options.criteria)) continue;
    ++counts.eligible;
    // The name is copied: the batch's own goes back to the reader.
    if (auto dag = build_with_posture(batch.name_of(i), rows, options)) {
      ++counts.built;
      sink(slot, batch.first_seq + i, std::move(*dag));
    }
  }
}

/// The reader loop of both paths. It parses each row straight into the
/// next record of the batch being filled. Once the batch holds `batch_jobs`
/// complete groups, `take()` supplies the batch to fill next and `emit`
/// receives the full one; `emit` returning false stops the stream. Only
/// the row that opens the next batch's first group moves, swapped into
/// that batch. The last batch is emitted at the end, however full.
template <typename Take, typename Emit>
trace::StreamStats read_batches(std::istream& in, const IngestOptions& options,
                                std::size_t batch_jobs, Take&& take,
                                Emit&& emit) {
  using Row = trace::TaskRowReader::Row;
  trace::TaskRowReader reader(in, read_options(options));
  Batch batch = take();
  batch.first_seq = 0;
  std::size_t groups = 0;  // closed so far
  for (;;) {
    const Row row = reader.next(batch.slot());
    if (row == Row::kEnd) break;
    if (row == Row::kNewJob && batch.open()) {
      batch.close_group();
      CWGL_FAILPOINT("ingest.reader_group");
      ++groups;
      if (batch.jobs() == batch_jobs) {
        Batch next = take();
        next.first_seq = groups;
        std::swap(next.slot(), batch.slot());
        if (!emit(std::move(batch))) return reader.stats();
        batch = std::move(next);
      }
    }
    ++batch.used;
  }
  if (batch.open()) {
    batch.close_group();
    CWGL_FAILPOINT("ingest.reader_group");
  }
  if (batch.jobs() > 0) emit(std::move(batch));
  return reader.stats();
}

/// One group a batch: each group is built as soon as the row after it is
/// read, the order in which the reader reports its diagnostics.
void stream_serial(std::istream& in, const IngestOptions& options,
                   IngestStats& stats, const detail::DagSink& sink) {
  WorkerCounts counts;
  Batch spare;
  stats.stream = read_batches(
      in, options, 1,
      [&] {
        Batch batch = std::move(spare);
        batch.clear();
        return batch;
      },
      [&](Batch&& batch) {
        build_batch(batch, options, 0, sink, counts);
        spare = std::move(batch);
        return true;
      });
  stats.eligible = counts.eligible;
  stats.dags = counts.built;
}

void stream_pooled(std::istream& in, const IngestOptions& options,
                   util::ThreadPool& pool, IngestStats& stats,
                   const detail::DagSink& sink) {
  util::BoundedQueue<Batch> queue(options.queue_capacity);
  // Alive at once: the reader's, the queued ones, and one per worker.
  SpentBatches spent(queue.capacity() + pool.size() + 1);
  const std::size_t batch_jobs = std::max<std::size_t>(1, options.batch_jobs);

  std::vector<std::future<WorkerCounts>> futures;
  futures.reserve(pool.size());
  try {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      futures.push_back(pool.submit([&queue, &spent, &options, &sink, w] {
        try {
          obs::Span span("ingest.worker");
          const std::uint64_t cpu_start =
              span.active() ? obs::thread_cpu_us() : 0;
          WorkerCounts counts;
          std::size_t batches = 0;
          while (auto batch = queue.pop()) {
            CWGL_FAILPOINT("ingest.worker_batch");
            ++batches;
            build_batch(*batch, options, w, sink, counts);
            spent.put(std::move(*batch));
          }
          span.arg("batches", batches);
          span.arg("eligible", counts.eligible);
          span.arg("built", counts.built);
          if (span.active()) {
            span.arg("cpu_us", obs::thread_cpu_us() - cpu_start);
          }
          return counts;
        } catch (...) {
          // Close *before* the exception reaches the future: the reader's
          // next push fails immediately instead of blocking until the main
          // thread happens to reach future.get() on this worker.
          queue.close();
          throw;
        }
      }));
    }
  } catch (...) {
    // A mid-loop submission failure must not unwind while already-running
    // workers still reference the local queue: close it, settle every
    // submitted future, then rethrow the submission error.
    queue.close();
    for (auto& future : futures) {
      try {
        future.get();
      } catch (...) {  // NOLINT(bugprone-empty-catch): submit error wins
      }
    }
    throw;
  }

  // The reader owns the stream: scan, parse, and group on a dedicated
  // thread so I/O and parsing overlap DAG construction on the workers. A
  // rejected push means the queue was closed below us (a worker failed) —
  // returning false early-stops the CSV stream.
  std::exception_ptr reader_error;
  std::thread reader([&] {
    obs::Span span("ingest.reader");
    const std::uint64_t cpu_start = span.active() ? obs::thread_cpu_us() : 0;
    std::size_t pushed = 0;
    try {
      stats.stream = read_batches(
          in, options, batch_jobs, [&] { return spent.take(); },
          [&](Batch&& batch) {
            const bool accepted = queue.push(std::move(batch));
            pushed += accepted ? 1 : 0;
            return accepted;
          });
    } catch (...) {
      reader_error = std::current_exception();
    }
    queue.close();
    span.arg("batches", pushed);
    span.arg("recycled", spent.recycled());
    if (span.active()) span.arg("cpu_us", obs::thread_cpu_us() - cpu_start);
  });

  std::exception_ptr worker_error;
  for (auto& future : futures) {
    try {
      const WorkerCounts counts = future.get();
      stats.eligible += counts.eligible;
      stats.dags += counts.built;
    } catch (...) {
      if (!worker_error) worker_error = std::current_exception();
      queue.close();  // belt-and-braces: the worker already closed on throw
    }
  }
  // Shutdown ordering on failure: with the queue closed, drain abandoned
  // batches non-blockingly so the reader's blocked push (if any) has already
  // been released and nothing oversized lingers, THEN join the reader.
  if (worker_error) {
    while (queue.try_pop()) {
    }
  }
  reader.join();
  if (reader_error) std::rethrow_exception(reader_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

}  // namespace

namespace detail {

std::size_t stream_slots(const util::ThreadPool* pool) {
  return runs_pooled(pool) ? pool->size() : 1;
}

void stream_built_dags(std::istream& task_csv, const IngestOptions& options,
                       util::ThreadPool* pool, IngestStats& stats,
                       const DagSink& sink) {
  stats = IngestStats{};
  if (runs_pooled(pool)) {
    stream_pooled(task_csv, options, *pool, stats, sink);
  } else {
    stream_serial(task_csv, options, stats, sink);
  }
}

void publish_stream_metrics(obs::Span& span, const IngestStats& stats) {
  span.arg("rows", stats.stream.rows);
  span.arg("jobs", stats.stream.jobs);
  span.arg("quarantined", stats.stream.malformed);
  span.arg("dags", stats.dags);
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("ingest.stream.rows").add(stats.stream.rows);
  registry.counter("ingest.stream.jobs").add(stats.stream.jobs);
  registry.counter("ingest.stream.malformed").add(stats.stream.malformed);
  registry.counter("ingest.stream.fragmented").add(stats.stream.fragmented);
  registry.counter("ingest.dag.eligible").add(stats.eligible);
  registry.counter("ingest.dag.built").add(stats.dags);
}

}  // namespace detail

std::vector<JobDag> stream_dag_jobs(std::istream& task_csv,
                                    const IngestOptions& options,
                                    util::ThreadPool* pool,
                                    IngestStats* stats) {
  IngestStats local;
  std::vector<JobDag> out = stream_transformed(
      task_csv, options, pool, local,
      [](std::size_t /*seq*/, JobDag&& dag) { return std::move(dag); });
  if (stats) *stats = local;
  return out;
}

InternedIngest stream_shape_jobs(std::istream& task_csv,
                                 const IngestOptions& options,
                                 util::ThreadPool* pool,
                                 ShapeStore::Options shape_options) {
  obs::Span span("ingest.intern");
  InternedIngest out;
  ShapeStore store(shape_options);
  const std::vector<const ShapeStore::Node*> handles = stream_transformed(
      task_csv, options, pool, out.stats,
      [&store](std::size_t seq, JobDag&& dag) {
        return store.intern(std::move(dag), static_cast<std::uint64_t>(seq));
      });
  // freeze_with_ids also publishes the store's intern.* counters.
  ShapeStore::FrozenView view = store.freeze_with_ids();
  out.table = std::move(view.table);
  out.shape_of.reserve(handles.size());
  for (const ShapeStore::Node* node : handles) {
    out.shape_of.push_back(view.id_of.at(node));
  }
  out.intern = store.stats();
  span.arg("shapes", out.intern.distinct_shapes);
  return out;
}

}  // namespace cwgl::core

#include "core/ingest.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/bounded_queue.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace cwgl::core {

namespace {

/// A run of consecutive job groups, packed flat: group i is `names[i]`
/// with rows [ends[i - 1], ends[i]) of `rows` (from 0 for i = 0).
/// first_seq restores trace order at the end.
struct Batch {
  std::size_t first_seq = 0;
  std::vector<std::string> names;
  std::vector<std::size_t> ends;
  std::vector<trace::TaskRecord> rows;

  std::size_t jobs() const noexcept { return names.size(); }

  std::span<const trace::TaskRecord> rows_of(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {rows.data() + begin, ends[i] - begin};
  }

  /// Appends one group. Its rows are moved out one by one, so `tasks`
  /// keeps its capacity for the stream's next group.
  void add(std::string&& job, std::vector<trace::TaskRecord>& tasks) {
    names.push_back(std::move(job));
    rows.insert(rows.end(), std::make_move_iterator(tasks.begin()),
                std::make_move_iterator(tasks.end()));
    ends.push_back(rows.size());
  }

  void clear() noexcept {
    names.clear();
    ends.clear();
    rows.clear();
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

void stream_serial(std::istream& in, const IngestOptions& options,
                   IngestStats& stats, const detail::DagSink& sink) {
  std::size_t seq = 0;
  stats.stream = trace::consume_jobs_in_task_csv(
      in,
      [&](std::string&& job, std::vector<trace::TaskRecord>&& tasks) {
        CWGL_FAILPOINT("ingest.reader_group");
        const std::size_t s = seq++;
        if (!trace::passes_criteria(tasks, options.criteria)) return true;
        ++stats.eligible;
        if (auto dag = build_with_posture(std::move(job), tasks, options)) {
          ++stats.dags;
          sink(0, s, std::move(*dag));
        }
        return true;
      },
      read_options(options));
}

void stream_pooled(std::istream& in, const IngestOptions& options,
                   util::ThreadPool& pool, IngestStats& stats,
                   const detail::DagSink& sink) {
  struct WorkerCounts {
    std::size_t eligible = 0;
    std::size_t built = 0;
  };
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
          WorkerCounts counts;
          std::size_t batches = 0;
          while (auto batch = queue.pop()) {
            CWGL_FAILPOINT("ingest.worker_batch");
            ++batches;
            for (std::size_t i = 0; i < batch->jobs(); ++i) {
              const auto rows = batch->rows_of(i);
              if (!trace::passes_criteria(rows, options.criteria)) continue;
              ++counts.eligible;
              // The name is copied: the batch's own goes back to the reader.
              if (auto dag =
                      build_with_posture(batch->names[i], rows, options)) {
                ++counts.built;
                sink(w, batch->first_seq + i, std::move(*dag));
              }
            }
            spent.put(std::move(*batch));
          }
          span.arg("batches", batches);
          span.arg("eligible", counts.eligible);
          span.arg("built", counts.built);
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
    std::size_t pushed = 0;
    try {
      Batch batch = spent.take();
      std::size_t seq = 0;
      stats.stream = trace::consume_jobs_in_task_csv(
          in,
          [&](std::string&& job, std::vector<trace::TaskRecord>&& tasks) {
            CWGL_FAILPOINT("ingest.reader_group");
            if (batch.jobs() == 0) batch.first_seq = seq;
            ++seq;
            batch.add(std::move(job), tasks);
            if (batch.jobs() < batch_jobs) return true;
            const bool accepted = queue.push(std::move(batch));
            pushed += accepted ? 1 : 0;
            batch = spent.take();
            return accepted;
          },
          read_options(options));
      if (batch.jobs() > 0 && queue.push(std::move(batch))) ++pushed;
    } catch (...) {
      reader_error = std::current_exception();
    }
    queue.close();
    span.arg("batches", pushed);
    span.arg("recycled", spent.recycled());
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

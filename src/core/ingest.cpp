#include "core/ingest.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace cwgl::core {

namespace {

/// A worker's counts, on their own cache lines.
struct alignas(64) SlotCounts {
  std::size_t eligible = 0;
  std::size_t built = 0;
};

/// Applies the ingest's failure posture to a job the build rejected:
/// corruption kinds (duplicate index, missing dependency, cycle) throw
/// GraphError under strict and are quarantined into the diagnostics under
/// lenient; filtering kinds (non-DAG names, empty jobs) are skipped quietly
/// in both modes, with only a count kept so reports can show how much the
/// eligibility rules removed.
void apply_posture(const std::vector<BuildIssue>& issues,
                   const IngestOptions& options, trace::GroupLog& log) {
  for (const BuildIssue& issue : issues) {
    if (is_corruption(issue.kind)) {
      if (options.strict) {
        throw util::GraphError("job " + issue.job_name + ": " + issue.message);
      }
      log.record("dag", to_string(issue.kind),
                 issue.job_name + ": " + issue.message);
    } else {
      log.count("dag", to_string(issue.kind));
    }
  }
}

/// One worker's memo of the task-name sequences it built, for
/// stream_shape_jobs: a job whose names, in row order, equal those of a
/// job built earlier in the trace has that job's shape. A key is the
/// job's names, each behind its length as a varint (a quoted name may hold
/// ',' or '\n', so joined names would not be exact). The memo holds an
/// entry per distinct name sequence, so it is packed: keys sit back to
/// back in 64 KiB blocks, a 32-byte entry holds a key's place, its shape,
/// the sequence of the job that made it and the repeats pending on it,
/// and an open-addressing table at most half full holds entry numbers.
/// Nothing is copied as it grows, and it costs about 100 bytes an entry.
class NameMemo {
 public:
  /// The shape of `group` when an entry holds its names and was made by
  /// a job earlier in the trace: the group then counts as a repeat pending
  /// on it. Otherwise nullptr, and the group's key is kept for remember().
  const ShapeStore::Node* repeat(const trace::StreamedGroup& group) {
    key_.clear();
    for (const trace::TaskRecord& row : group.rows) {
      std::size_t length = row.task_name.size();
      for (; length >= 0x80; length >>= 7) {
        key_.push_back(static_cast<char>(0x80 | (length & 0x7f)));
      }
      key_.push_back(static_cast<char>(length));
      key_.append(row.task_name);
    }
    keyed_ = key_.size() <= std::numeric_limits<std::uint32_t>::max();
    if (!keyed_) return nullptr;
    found_ = table_.empty() ? 0 : table_[find(key_)];
    if (found_ == 0) return nullptr;
    Entry& entry = entries_[found_ - 1];
    // An entry made by a later job (this one was cut by a chunk edge and
    // stitched after it): build and intern, so the store keeps the
    // earliest job as exemplar.
    if (entry.seq > group.seq ||
        entry.pending == std::numeric_limits<std::uint32_t>::max()) {
      return nullptr;
    }
    ++entry.pending;
    return entry.node;
  }

  /// Enters the key of the group last passed to repeat(), now interned as
  /// `node` at `seq`.
  void remember(const ShapeStore::Node* node, std::uint64_t seq) {
    if (!keyed_) return;
    if (found_ != 0) {
      Entry& entry = entries_[found_ - 1];
      entry.seq = std::min(entry.seq, seq);
      return;
    }
    if (2 * (entries_.size() + 1) > table_.size()) grow();
    table_[find(key_)] = static_cast<std::uint32_t>(entries_.size() + 1);
    entries_.push_back(
        {store_key(), node, seq, static_cast<std::uint32_t>(key_.size()), 0});
  }

  /// Calls `fn(node, repeats)` for every entry with repeats pending.
  template <typename Fn>
  void for_each_pending(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      if (entry.pending > 0) fn(entry.node, entry.pending);
    }
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

  struct Entry {
    const char* key;
    const ShapeStore::Node* node;
    std::uint64_t seq;
    std::uint32_t key_size;
    std::uint32_t pending;
  };

  static std::string_view key_of(const Entry& entry) {
    return {entry.key, entry.key_size};
  }

  /// The slot holding `key`, or the empty slot where it belongs.
  std::size_t find(std::string_view key) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = std::hash<std::string_view>{}(key) & mask;
    while (table_[slot] != 0 && key_of(entries_[table_[slot] - 1]) != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Doubles the table and re-enters every entry.
  void grow() {
    table_.assign(std::max<std::size_t>(64, 2 * table_.size()), 0);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      table_[find(key_of(entries_[e]))] = static_cast<std::uint32_t>(e + 1);
    }
  }

  /// Copies key_ behind the last key, or into a new block (of its own
  /// when it is longer than a block).
  const char* store_key() {
    if (blocks_.empty() || key_.size() > kBlockBytes - block_used_) {
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(
          std::max(kBlockBytes, key_.size())));
      block_used_ = 0;
    }
    char* at = blocks_.back().get() + block_used_;
    std::memcpy(at, key_.data(), key_.size());
    block_used_ += key_.size();
    return at;
  }

  std::string key_;  ///< the key of the group last passed to repeat()
  bool keyed_ = false;
  std::uint32_t found_ = 0;  ///< entry number of key_, 0 for none
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_used_ = 0;
  std::deque<Entry> entries_;
  std::vector<std::uint32_t> table_;  ///< entry numbers; size a power of two
};

}  // namespace

namespace detail {

void stream_built_dags(std::istream& task_csv, const IngestOptions& options,
                       util::ThreadPool* pool, IngestStats& stats,
                       const DagSink& sink, const RepeatHook& repeat) {
  stats = IngestStats{};
  std::vector<SlotCounts> counts(trace::group_stream_slots(pool));
  trace::GroupStreamOptions stream;
  stream.read = trace::TraceReadOptions{!options.strict, options.diagnostics};
  stream.chunk_bytes = options.chunk_bytes;
  stats.stream = trace::stream_job_groups(
      task_csv, stream, pool,
      [&](std::size_t slot, const trace::StreamedGroup& group,
          trace::GroupLog& log) {
        if (!passes_row_criteria(group.rows, options.criteria)) return true;
        if (repeat && repeat(slot, group)) {
          ++counts[slot].eligible;
          ++counts[slot].built;
          return true;
        }
        std::vector<BuildIssue> issues;
        bool eligible = false;
        auto dag = build_eligible_dag(group.job_name, group.rows,
                                      options.criteria, eligible, &issues);
        if (!eligible) return true;
        ++counts[slot].eligible;
        if (dag) {
          ++counts[slot].built;
          sink(slot, group.seq, std::move(*dag));
        } else {
          apply_posture(issues, options, log);
        }
        return true;
      });
  for (const SlotCounts& c : counts) {
    stats.eligible += c.eligible;
    stats.dags += c.built;
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
  const std::size_t slots = trace::group_stream_slots(pool);
  std::vector<NameMemo> memos(slots);
  std::vector<const ShapeStore::Node*> handles;
  {
    obs::Span stream_span("ingest.stream");
    detail::SlotResults<const ShapeStore::Node*> results(slots);
    detail::stream_built_dags(
        task_csv, options, pool, out.stats,
        [&](std::size_t slot, std::size_t seq, JobDag&& dag) {
          const ShapeStore::Node* node =
              store.intern(std::move(dag), static_cast<std::uint64_t>(seq));
          memos[slot].remember(node, seq);
          results.push(slot, seq, node);
        },
        [&](std::size_t slot, const trace::StreamedGroup& group) {
          const ShapeStore::Node* node = memos[slot].repeat(group);
          if (node == nullptr) return false;
          results.push(slot, group.seq, node);
          return true;
        });
    handles = std::move(results).merge(out.stats.dags);
    detail::publish_stream_metrics(stream_span, out.stats);
  }
  for (const NameMemo& memo : memos) {
    memo.for_each_pending(
        [&store](const ShapeStore::Node* node, std::uint64_t repeats) {
          store.add_repeats(node, repeats);
        });
  }
  // freeze_with_ids also publishes the store's intern.* counters.
  ShapeStore::FrozenView view = store.freeze_with_ids();
  out.table = std::move(view.table);
  out.shape_of.reserve(handles.size());
  for (const ShapeStore::Node* node : handles) {
    out.shape_of.push_back(view.id_of.at(node));
  }
  out.intern = store.stats();
  span.arg("shapes", out.intern.distinct_shapes);
  span.arg("repeats", out.intern.repeats);
  return out;
}

}  // namespace cwgl::core

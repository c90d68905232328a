#include "trace/group_stream.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <future>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"
#include "util/csv_scanner.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::trace {

void GroupLog::record(std::string_view stage, std::string_view kind,
                      std::string_view sample) {
  if (sink_ == nullptr) return;
  if (!buffered_) {
    sink_->record(stage, kind, sample);
    return;
  }
  if (used_ == events_.size()) events_.emplace_back();
  Event& e = events_[used_++];
  e.stage.assign(stage);
  e.kind.assign(kind);
  e.sample.assign(sample);
  e.counted_only = false;
}

void GroupLog::count(std::string_view stage, std::string_view kind) {
  if (sink_ == nullptr) return;
  if (!buffered_) {
    sink_->count(stage, kind);
    return;
  }
  if (used_ == events_.size()) events_.emplace_back();
  Event& e = events_[used_++];
  e.stage.assign(stage);
  e.kind.assign(kind);
  e.counted_only = true;
}

void GroupLog::replay() {
  for (std::size_t i = 0; i < used_; ++i) {
    const Event& e = events_[i];
    if (e.counted_only) {
      sink_->count(e.stage, e.kind);
    } else {
      sink_->record(e.stage, e.kind, e.sample);
    }
  }
  used_ = 0;
}

void GroupLog::clear() noexcept { used_ = 0; }

namespace {

constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();

/// The names of the groups one worker completed, to count fragmented jobs
/// once the stream ends. It holds a name per job group, so it is packed:
/// the names sit in one arena, each behind its 4-byte length, and an
/// open-addressing table at most half full holds their arena offsets.
/// That is about 30-50 B a short name; an insert allocates only when the
/// arena or the table doubles.
class JobNameSet {
 public:
  /// Records `name`, whose std::hash is `hash`; false when it was
  /// recorded before.
  bool insert(std::string_view name, std::size_t hash) {
    if (name.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw util::ParseError("batch_task.csv: job name longer than 4 GiB");
    }
    if (2 * (count_ + 1) > slots_.size()) grow();
    const std::size_t slot = find(name, hash);
    if (slots_[slot] != kEmpty) return false;
    slots_[slot] = arena_.size();
    const auto length = static_cast<std::uint32_t>(name.size());
    arena_.append(reinterpret_cast<const char*>(&length), sizeof length);
    arena_.append(name);
    ++count_;
    return true;
  }

  bool contains(std::string_view name, std::size_t hash) const {
    return !slots_.empty() && slots_[find(name, hash)] != kEmpty;
  }

  std::size_t size() const noexcept { return count_; }

  /// Calls `fn(name)` for every name, in insertion order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t offset = 0; offset < arena_.size();) {
      const std::string_view name = name_at(offset);
      fn(name);
      offset += sizeof(std::uint32_t) + name.size();
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  std::string_view name_at(std::uint64_t offset) const {
    std::uint32_t length = 0;
    std::memcpy(&length, arena_.data() + offset, sizeof length);
    return {arena_.data() + offset + sizeof length, length};
  }

  /// The slot holding `name`, or the empty slot where it belongs.
  std::size_t find(std::string_view name, std::size_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    while (slots_[slot] != kEmpty && name_at(slots_[slot]) != name) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Doubles the table and re-indexes every name from the arena.
  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
    for_each([this](std::string_view name) {
      slots_[find(name, std::hash<std::string_view>{}(name))] =
          static_cast<std::uint64_t>(name.data() - sizeof(std::uint32_t) -
                                     arena_.data());
    });
  }

  std::string arena_;
  std::vector<std::uint64_t> slots_;  ///< arena offsets; size a power of two
  std::size_t count_ = 0;
};

/// A chunk as its worker holds it: whole rows, in the worker's own buffer.
struct Chunk {
  std::size_t index = 0;
  std::uint64_t offset = 0;  ///< stream offset of its first byte
  std::vector<char> buffer;  ///< bytes [0, size); capacity kept across chunks
  std::size_t size = 0;
  bool final = false;     ///< the stream ends with it
  bool fallback = false;  ///< the rest of the stream goes to a CsvScanner
  std::exception_ptr read_error;

  std::string_view bytes() const { return {buffer.data(), size}; }
};

/// What a worker found in its chunk, and what became of its groups. The
/// records outlive reset(): a chunk's rows are parsed in place into them.
struct ChunkWork {
  enum class Offense { kNone, kRow, kError, kStop };

  struct Group {
    std::size_t begin = 0;  ///< its first row
    std::uint64_t seq = 0;
  };

  std::vector<TaskRecord> rows;  ///< the first `used` hold this chunk's rows
  std::size_t used = 0;
  std::vector<std::size_t> row_record;  ///< each row's record in the chunk
  std::vector<Group> groups;
  std::size_t records = 0;    ///< records scanned
  std::size_t malformed = 0;  ///< of them, not a well-formed row
  std::size_t bytes = 0;      ///< scanned
  std::size_t handled = 0;    ///< groups handed to the handler

  /// The chunk's first offense: a record, or records() for the end.
  std::size_t offense_rank = kNoRank;
  Offense offense = Offense::kNone;
  std::string offense_row;  ///< the malformed row's preview (kRow)
  std::exception_ptr error;  ///< kError

  void reset() {
    used = 0;
    row_record.clear();
    groups.clear();
    records = malformed = bytes = handled = 0;
    offense_rank = kNoRank;
    offense = Offense::kNone;
    error = nullptr;
  }

  std::size_t group_end(std::size_t g) const {
    return g + 1 < groups.size() ? groups[g + 1].begin : used;
  }

  /// Where group g closes: at the next group's first row.
  std::size_t close_rank(std::size_t g) const {
    return row_record[groups[g + 1].begin];
  }

  std::span<const TaskRecord> rows_of(std::size_t g) const {
    return {rows.data() + groups[g].begin, group_end(g) - groups[g].begin};
  }

  /// Keeps the lowest-ranked offense.
  void offend(std::size_t rank, Offense kind, std::exception_ptr e = nullptr) {
    if (rank >= offense_rank) return;
    offense_rank = rank;
    offense = kind;
    error = std::move(e);
  }
};

/// A chunk and what its worker made of it, on its way to the stitch. A
/// pooled worker owns two, so it scans its next chunk while the last one
/// waits for its turn; the worker that holds the stitch reads the other
/// workers' slots but never frees them.
struct ChunkSlot {
  enum class State { kFree, kPending, kStitching };

  ChunkSlot(util::Diagnostics* sink, bool buffered) : log(sink, buffered) {}

  Chunk chunk;
  ChunkWork work;
  GroupLog log;
  State state = State::kFree;  ///< guarded by the stream's turn mutex
};

/// Shards of a worker's job-name table, split by the top bits of the
/// name's hash, so the tables can be compared shard by shard in parallel
/// once the stream ends.
constexpr std::size_t kNameShards = 16;
constexpr int kNameShardShift = std::numeric_limits<std::size_t>::digits - 4;

class GroupStream {
 public:
  GroupStream(std::istream& in, const GroupStreamOptions& options,
              const GroupHandler& handler, std::size_t slots)
      : in_(in), options_(options), handler_(handler),
        chunk_bytes_(std::clamp<std::size_t>(options.chunk_bytes, 1,
                                              std::size_t{1} << 30)),
        ring_(2 * slots, nullptr) {
    names_.reserve(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      names_.push_back(std::make_unique<Names>());
    }
  }

  /// The worker loop. Alone (`pooled` false), a worker handles each chunk
  /// in trace order: the stitch, then the groups inside the chunk, with
  /// diagnostics straight to the sink. Pooled, it handles the groups
  /// inside the chunk first, with diagnostics buffered, then publishes
  /// the chunk for the stitch, and stitches every published chunk in
  /// order itself when the stitch is free and the next chunk is its own.
  void run_worker(std::size_t slot, bool pooled) noexcept {
    std::optional<obs::Span> span;
    if (pooled) span.emplace("ingest.worker");
    const bool timed = span && span->active();
    const std::uint64_t cpu_start = timed ? obs::thread_cpu_us() : 0;
    std::uint64_t input_wait = 0;
    std::uint64_t stitch_wait = 0;
    std::uint64_t* input_us = timed ? &input_wait : nullptr;
    std::uint64_t* stitch_us = timed ? &stitch_wait : nullptr;
    std::size_t chunks = 0;
    std::size_t groups = 0;
    std::array<ChunkSlot, 2> own{ChunkSlot(options_.read.diagnostics, pooled),
                                 ChunkSlot(options_.read.diagnostics, pooled)};
    try {
      util::CsvBlockScanner block;
      for (;;) {
        ChunkSlot* cs = pooled ? free_slot(own, stitch_us) : &own[0];
        if (cs == nullptr || !take(cs->chunk, input_us)) break;
        ++chunks;
        if (cs->chunk.fallback) {
          groups += run_fallback(slot, cs->chunk, stitch_us);
          break;
        }
        scan_chunk(*cs, block);
        if (pooled) {
          handle_interior(slot, cs->work, cs->log);
          groups += cs->work.handled;
          groups += publish(slot, *cs);
        } else {
          stitch_chunk(slot, cs->work);
          handle_interior(slot, cs->work, cs->log);
          commit(slot, *cs);
          groups += cs->work.handled;
          std::lock_guard lock(turn_mutex_);
          ++turn_;
        }
      }
    } catch (...) {
      end_stream(std::current_exception());
    }
    if (pooled) settle(own);
    if (timed) {
      span->arg("chunks", chunks);
      span->arg("groups", groups);
      span->arg("input_wait_us", input_wait);
      span->arg("stitch_wait_us", stitch_wait);
      span->arg("cpu_us", obs::thread_cpu_us() - cpu_start);
    }
  }

  /// Ends the stream early without an error of its own (a worker could not
  /// be started): workers stop taking chunks and stitching.
  void stop() { end_stream(nullptr); }

  /// After every worker returned: the first error, or the stats. A group
  /// is fragmented when its name closed before: every group but the first
  /// of each distinct name. A name counts as distinct in the first
  /// worker's table that holds it; the shards are compared on `pool`.
  StreamStats finish(util::ThreadPool* pool) {
    if (error_) std::rethrow_exception(error_);
    std::array<std::size_t, kNameShards> distinct{};
    const auto count = [&](std::size_t s) { distinct[s] = distinct_in_shard(s); };
    if (pool != nullptr && names_.size() > 1) {
      util::parallel_for(*pool, 0, kNameShards, count);
    } else {
      for (std::size_t s = 0; s < kNameShards; ++s) count(s);
    }
    std::size_t names = 0;
    for (const std::size_t d : distinct) names += d;
    stats_.fragmented = stats_.jobs - names;
    return stats_;
  }

 private:
  /// One worker's name table, on its own cache lines.
  struct alignas(64) Names {
    std::array<JobNameSet, kNameShards> shards;
  };

  std::size_t distinct_in_shard(std::size_t s) const {
    std::size_t distinct = names_[0]->shards[s].size();
    for (std::size_t w = 1; w < names_.size(); ++w) {
      names_[w]->shards[s].for_each([&](std::string_view name) {
        const std::size_t hash = std::hash<std::string_view>{}(name);
        for (std::size_t v = 0; v < w; ++v) {
          if (names_[v]->shards[s].contains(name, hash)) return;
        }
        ++distinct;
      });
    }
    return distinct;
  }

  /// Takes the next chunk into the worker's own `chunk`: the carried
  /// partial row, then `chunk_bytes_` at a time until a read holds a '\n',
  /// cut after the last one. False when there is nothing left to take.
  bool take(Chunk& chunk, std::uint64_t* wait_us) {
    std::optional<obs::Stopwatch> watch;
    if (wait_us != nullptr) watch.emplace();
    std::lock_guard lock(input_mutex_);
    if (wait_us != nullptr) *wait_us += watch->micros();
    if (input_done_ || stopped_.load(std::memory_order_relaxed)) return false;
    chunk.index = next_chunk_++;
    chunk.offset = next_offset_;
    chunk.final = chunk.fallback = false;
    chunk.read_error = nullptr;
    chunk.size = carry_size_;
    if (carry_size_ > 0) {
      fit(chunk.buffer, carry_size_);
      std::memcpy(chunk.buffer.data(), carry_.data(), carry_size_);
      carry_size_ = 0;
    }
    // A line this long is left to the exact scanner, which holds only the
    // record it is scanning.
    const std::size_t longest =
        std::max(chunk_bytes_, util::CsvScanner::kDefaultBlockSize);
    std::size_t fresh = 0;
    try {
      for (;;) {
        if (input_eof_) {
          input_done_ = true;
          chunk.final = true;
          return true;
        }
        CWGL_FAILPOINT("ingest.read_block");
        // The first read tops the carried bytes up to a chunk, so a
        // chunk's buffer holds chunk_bytes_ unless a line is longer.
        const std::size_t want = CWGL_FAILPOINT_CLAMP(
            "ingest.read_block", chunk.size < chunk_bytes_
                                     ? chunk_bytes_ - chunk.size
                                     : chunk_bytes_);
        fit(chunk.buffer, chunk.size + want);
        char* at = chunk.buffer.data() + chunk.size;
        in_.read(at, static_cast<std::streamsize>(want));
        const auto got = static_cast<std::size_t>(in_.gcount());
        if (got < want) input_eof_ = true;
        chunk.size += got;
        fresh += got;
        // Only fresh bytes are searched: the carried ones were, when read.
        if (std::memchr(at, '"', got) != nullptr) {
          input_done_ = true;
          chunk.fallback = true;
          return true;
        }
        if (const void* nl = memrchr(at, '\n', got)) {
          const auto cut = static_cast<std::size_t>(
              static_cast<const char*>(nl) + 1 - chunk.buffer.data());
          carry_size_ = chunk.size - cut;
          if (carry_size_ > 0) {
            fit(carry_, carry_size_);
            std::memcpy(carry_.data(), chunk.buffer.data() + cut, carry_size_);
          }
          chunk.size = cut;
          next_offset_ = chunk.offset + cut;
          return true;
        }
        if (!input_eof_ && fresh >= longest) {
          input_done_ = true;
          chunk.fallback = true;
          return true;
        }
      }
    } catch (...) {
      input_done_ = true;
      chunk.size = 0;
      chunk.read_error = std::current_exception();
      return true;
    }
  }

  /// Grows `buffer` to `size`: exactly up to a chunk, geometrically for
  /// a longer line.
  void fit(std::vector<char>& buffer, std::size_t size) const {
    if (buffer.size() >= size) return;
    if (buffer.capacity() < size) {
      buffer.reserve(size <= chunk_bytes_ ? size
                                          : std::max(size, 2 * buffer.capacity()));
    }
    buffer.resize(size);
  }

  /// Scans, parses and groups the chunk's rows with the serial reader's
  /// rules; a read error or a fault ranks at its start.
  void scan_chunk(ChunkSlot& cs, util::CsvBlockScanner& block) {
    ChunkWork& work = cs.work;
    work.reset();
    cs.log.clear();
    if (cs.chunk.read_error) {
      work.offend(0, ChunkWork::Offense::kError, cs.chunk.read_error);
      return;
    }
    try {
      CWGL_FAILPOINT("ingest.worker_chunk");
      scan(cs.chunk, work, cs.log, block);
    } catch (...) {
      work.offend(0, ChunkWork::Offense::kError, std::current_exception());
    }
  }

  /// Strict posture stops at the first malformed row.
  void scan(const Chunk& chunk, ChunkWork& work, GroupLog& log,
            util::CsvBlockScanner& block) {
    block.reset(chunk.bytes());
    while (const auto fields = block.next()) {
      const std::size_t record = work.records++;
      if (work.used == work.rows.size()) work.rows.emplace_back();
      TaskRecord& rec = work.rows[work.used];
      if (!rec.assign_fields(*fields)) {
        ++work.malformed;
        if (!options_.read.lenient) {
          work.offend(record, ChunkWork::Offense::kRow);
          work.offense_row = detail::row_preview(*fields);
          break;
        }
        if (options_.read.diagnostics != nullptr) {
          log.record("ingest", "malformed-row", detail::row_preview(*fields));
        }
        continue;
      }
      if (work.used == 0 || rec.job_name != work.rows[work.used - 1].job_name) {
        work.groups.push_back({work.used, chunk.offset + block.record_begin()});
      }
      work.row_record.push_back(record);
      ++work.used;
    }
    work.bytes = block.consumed();
  }

  /// Hands `group`, closed at `rank`, to the handler unless an offense of
  /// the chunk comes first.
  void handle(std::size_t slot, const StreamedGroup& group, std::size_t rank,
              ChunkWork& work, GroupLog& log) {
    if (rank >= work.offense_rank) return;
    const std::size_t hash = std::hash<std::string_view>{}(group.job_name);
    names_[slot]->shards[hash >> kNameShardShift].insert(group.job_name, hash);
    ++work.handled;
    try {
      if (!handler_(slot, group, log)) work.offend(rank, ChunkWork::Offense::kStop);
    } catch (...) {
      work.offend(rank, ChunkWork::Offense::kError, std::current_exception());
    }
  }

  /// The groups that open and close inside the chunk: all but its first
  /// and its last.
  void handle_interior(std::size_t slot, ChunkWork& work, GroupLog& log) {
    for (std::size_t g = 1; g + 1 < work.groups.size(); ++g) {
      const std::size_t rank = work.close_rank(g);
      if (rank >= work.offense_rank) break;
      const std::span<const TaskRecord> rows = work.rows_of(g);
      handle(slot, {work.groups[g].seq, rows.front().job_name, rows}, rank, work,
             log);
    }
  }

  /// Waits until one of the worker's two slots is free; nullptr when the
  /// stream ended first.
  ChunkSlot* free_slot(std::array<ChunkSlot, 2>& own, std::uint64_t* wait_us) {
    using State = ChunkSlot::State;
    std::unique_lock lock(turn_mutex_);
    const auto ready = [&] {
      return stopped_.load(std::memory_order_relaxed) ||
             own[0].state == State::kFree || own[1].state == State::kFree;
    };
    if (!ready()) {
      std::optional<obs::Stopwatch> watch;
      if (wait_us != nullptr) watch.emplace();
      turn_cv_.wait(lock, ready);
      if (wait_us != nullptr) *wait_us += watch->micros();
    }
    if (stopped_.load(std::memory_order_relaxed)) return nullptr;
    return own[0].state == State::kFree ? &own[0] : &own[1];
  }

  /// Hands a scanned chunk to the stitch, and takes the stitch when it is
  /// free and this chunk is next. Returns the groups handled stitching.
  std::size_t publish(std::size_t slot, ChunkSlot& cs) {
    {
      std::lock_guard lock(turn_mutex_);
      if (stopped_.load(std::memory_order_relaxed)) return 0;
      cs.state = ChunkSlot::State::kPending;
      ring_[cs.chunk.index % ring_.size()] = &cs;
      if (stitching_ || turn_ != cs.chunk.index) return 0;
      stitching_ = true;
    }
    return run_stitcher(slot);
  }

  /// Holding the stitch: stitches and commits published chunks in order,
  /// whichever worker scanned them, until the next one is not published.
  std::size_t run_stitcher(std::size_t slot) {
    using State = ChunkSlot::State;
    std::size_t groups = 0;
    std::unique_lock lock(turn_mutex_);
    for (;;) {
      ChunkSlot* cs = ring_[turn_ % ring_.size()];
      if (stopped_.load(std::memory_order_relaxed) || cs == nullptr ||
          cs->state != State::kPending || cs->chunk.index != turn_) {
        break;
      }
      cs->state = State::kStitching;
      lock.unlock();
      const std::size_t before = cs->work.handled;
      try {
        stitch_chunk(slot, cs->work);
        commit(slot, *cs);
      } catch (...) {
        end_stream(std::current_exception());
      }
      groups += cs->work.handled - before;
      lock.lock();
      ring_[turn_ % ring_.size()] = nullptr;
      cs->state = State::kFree;
      ++turn_;
      turn_cv_.notify_all();
    }
    stitching_ = false;
    turn_cv_.notify_all();
    return groups;
  }

  /// Before a pooled worker's slots go: waits until neither is being
  /// stitched, and until both are stitched unless the stream stopped.
  void settle(std::array<ChunkSlot, 2>& own) {
    using State = ChunkSlot::State;
    std::unique_lock lock(turn_mutex_);
    turn_cv_.wait(lock, [&] {
      const bool stopped = stopped_.load(std::memory_order_relaxed);
      for (const ChunkSlot& cs : own) {
        if (cs.state == State::kStitching ||
            (cs.state == State::kPending && !stopped)) {
          return false;
        }
      }
      return true;
    });
    for (ChunkSlot& cs : own) {
      if (cs.state == State::kPending) ring_[cs.chunk.index % ring_.size()] = nullptr;
      cs.state = State::kFree;
    }
  }

  /// The chunk's edges: the open group that ran up to the chunk either
  /// takes its first group in (same name) or closes at the first group's
  /// first row; a first group that closes inside the chunk is handled; the
  /// last group opens the next open group. A fault ranks at the chunk's
  /// start.
  void stitch_chunk(std::size_t slot, ChunkWork& work) {
    try {
      CWGL_FAILPOINT("ingest.stitch");
      stitch(slot, work);
    } catch (...) {
      work.offend(0, ChunkWork::Offense::kError, std::current_exception());
    }
  }

  void stitch(std::size_t slot, ChunkWork& work) {
    const std::size_t n = work.groups.size();
    if (n == 0) return;
    GroupLog direct(options_.read.diagnostics, false);
    const std::span<const TaskRecord> first = work.rows_of(0);
    if (open_used_ > 0 && open_rows_[0].job_name == first.front().job_name) {
      append_open(first);
      if (n == 1) return;
      handle_open(slot, work.close_rank(0), work, direct);
    } else {
      if (open_used_ > 0) {
        handle_open(slot, work.row_record[work.groups[0].begin], work, direct);
      }
      if (n > 1) {
        handle(slot, {work.groups[0].seq, first.front().job_name, first},
               work.close_rank(0), work, direct);
      }
    }
    open_used_ = 0;
    open_seq_ = work.groups[n - 1].seq;
    append_open(work.rows_of(n - 1));
  }

  void append_open(std::span<const TaskRecord> rows) {
    for (const TaskRecord& row : rows) {
      if (open_used_ == open_rows_.size()) open_rows_.emplace_back();
      open_rows_[open_used_++] = row;  // keeps the record's string capacity
    }
  }

  void handle_open(std::size_t slot, std::size_t rank, ChunkWork& work,
                   GroupLog& log) {
    const std::span<const TaskRecord> rows(open_rows_.data(), open_used_);
    handle(slot, {open_seq_, rows.front().job_name, rows}, rank, work, log);
    open_used_ = 0;
  }

  /// Settles a stitched chunk: the final chunk closes the open group at
  /// the end; then the chunk's first offense, if any, ends the stream, and
  /// otherwise its counts and diagnostics join the stream's.
  void commit(std::size_t slot, ChunkSlot& cs) {
    using Offense = ChunkWork::Offense;
    ChunkWork& work = cs.work;
    if (cs.chunk.final && open_used_ > 0) {
      GroupLog direct(options_.read.diagnostics, false);
      handle_open(slot, work.records, work, direct);
    }
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("ingest.scanner.rows").add(work.records);
    registry.counter("ingest.scanner.bytes").add(work.bytes);
    std::exception_ptr error;
    std::size_t rows = work.used;
    std::size_t malformed = work.malformed;
    switch (work.offense) {
      case Offense::kNone:
        cs.log.replay();
        break;
      case Offense::kStop: {
        // Count through the row that closed the last group handled.
        const std::size_t rank = work.offense_rank;
        rows = static_cast<std::size_t>(
            std::upper_bound(work.row_record.begin(), work.row_record.end(),
                             rank) -
            work.row_record.begin());
        malformed = std::min(rank + 1, work.records) - rows;
        break;
      }
      case Offense::kRow:
        error = std::make_exception_ptr(util::ParseError(
            "batch_task.csv record " +
            std::to_string(records_before_ + work.offense_rank + 1) +
            ": malformed row: " + work.offense_row));
        break;
      case Offense::kError:
        error = work.error;
        break;
    }
    stats_.rows += rows;
    stats_.malformed += malformed;
    stats_.jobs += work.handled;
    records_before_ += work.records;
    if (work.offense != Offense::kNone) end_stream(error);
  }

  /// The rest of the stream, from a chunk that holds a quote or an
  /// over-long line: one exact CsvScanner on this worker, which takes the
  /// stitch once every chunk before is stitched and keeps it to the end.
  /// Returns the groups it handled.
  std::size_t run_fallback(std::size_t slot, const Chunk& chunk,
                           std::uint64_t* wait_us) {
    {
      std::optional<obs::Stopwatch> watch;
      if (wait_us != nullptr) watch.emplace();
      std::unique_lock lock(turn_mutex_);
      turn_cv_.wait(lock, [&] {
        return stopped_.load(std::memory_order_relaxed) ||
               (turn_ == chunk.index && !stitching_);
      });
      if (wait_us != nullptr) *wait_us += watch->micros();
      if (stopped_.load(std::memory_order_relaxed)) return 0;
      stitching_ = true;
    }
    GroupLog direct(options_.read.diagnostics, false);
    ChunkWork work;
    std::size_t rows = 0;
    std::size_t malformed = 0;
    std::exception_ptr error;
    const auto close_open = [&] {
      handle_open(slot, 0, work, direct);
      if (work.offense == ChunkWork::Offense::kError) {
        std::rethrow_exception(work.error);
      }
      return work.offense == ChunkWork::Offense::kNone;
    };
    try {
      CWGL_FAILPOINT("ingest.stitch");
      util::CsvScanner scanner(
          in_, util::CsvScanner::kDefaultBlockSize,
          util::CsvScanPolicy{options_.read.lenient, options_.read.diagnostics},
          util::CsvResume{chunk.bytes(), records_before_, chunk.offset});
      TaskRecord row;
      bool more = true;
      while (more) {
        const auto fields = scanner.next();
        if (!fields) break;
        if (!row.assign_fields(*fields)) {
          ++malformed;
          if (!options_.read.lenient) {
            throw util::ParseError("batch_task.csv record " +
                                   std::to_string(scanner.record_number()) +
                                   ": malformed row: " +
                                   detail::row_preview(*fields));
          }
          if (options_.read.diagnostics != nullptr) {
            options_.read.diagnostics->record("ingest", "malformed-row",
                                              detail::row_preview(*fields));
          }
          continue;
        }
        ++rows;
        if (open_used_ > 0 && row.job_name == open_rows_[0].job_name) {
          if (open_used_ == open_rows_.size()) open_rows_.emplace_back();
          std::swap(open_rows_[open_used_++], row);
          continue;
        }
        if (open_used_ > 0) more = close_open();
        open_seq_ = scanner.record_offset();
        if (open_rows_.empty()) open_rows_.emplace_back();
        std::swap(open_rows_[0], row);
        open_used_ = 1;
      }
      if (more && open_used_ > 0) close_open();
      open_used_ = 0;
      malformed += scanner.quarantined();
    } catch (...) {
      error = std::current_exception();
    }
    stats_.rows += rows;
    stats_.malformed += malformed;
    stats_.jobs += work.handled;
    end_stream(error);
    return work.handled;
  }

  /// Ends the stream: no more chunks or stitching; `error` (if any) is the
  /// one finish() rethrows.
  void end_stream(std::exception_ptr error) {
    {
      std::lock_guard lock(turn_mutex_);
      if (error && !error_) error_ = std::move(error);
      stopped_.store(true, std::memory_order_relaxed);
    }
    turn_cv_.notify_all();
  }

  std::istream& in_;
  const GroupStreamOptions& options_;
  const GroupHandler& handler_;
  const std::size_t chunk_bytes_;

  // The input, under input_mutex_.
  std::mutex input_mutex_;
  std::vector<char> carry_;  ///< the partial row after the last chunk's cut
  std::size_t carry_size_ = 0;
  std::uint64_t next_offset_ = 0;
  std::size_t next_chunk_ = 0;
  bool input_eof_ = false;
  bool input_done_ = false;

  // The stitch, under turn_mutex_: the next chunk to stitch, whether a
  // worker holds the stitch, and the published chunks by index modulo
  // twice the workers (the most chunks in flight at once).
  std::mutex turn_mutex_;
  std::condition_variable turn_cv_;
  std::size_t turn_ = 0;
  bool stitching_ = false;
  std::vector<ChunkSlot*> ring_;
  std::atomic<bool> stopped_{false};
  std::exception_ptr error_;

  // The stream's state, owned by the worker holding the stitch.
  std::vector<TaskRecord> open_rows_;  ///< the open group's rows
  std::size_t open_used_ = 0;
  std::uint64_t open_seq_ = 0;
  std::size_t records_before_ = 0;  ///< records of the committed chunks
  StreamStats stats_;

  std::vector<std::unique_ptr<Names>> names_;
};

}  // namespace

std::size_t group_stream_slots(const util::ThreadPool* pool) {
  return pool != nullptr && pool->size() >= 2 ? pool->size() : 1;
}

StreamStats stream_job_groups(std::istream& in,
                              const GroupStreamOptions& options,
                              util::ThreadPool* pool,
                              const GroupHandler& handler) {
  const std::size_t slots = group_stream_slots(pool);
  GroupStream stream(in, options, handler, slots);
  if (slots == 1) {
    stream.run_worker(0, /*pooled=*/false);
    return stream.finish(nullptr);
  }
  std::vector<std::future<void>> futures;
  futures.reserve(slots);
  try {
    for (std::size_t w = 0; w < slots; ++w) {
      futures.push_back(
          pool->submit([&stream, w] { stream.run_worker(w, /*pooled=*/true); }));
    }
  } catch (...) {
    // Workers already running reference the stream: stop them and settle
    // every submitted future before the submission error unwinds it.
    stream.stop();
    for (auto& future : futures) future.wait();
    throw;
  }
  for (auto& future : futures) future.get();
  return stream.finish(pool);
}

}  // namespace cwgl::trace

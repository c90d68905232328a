#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stopwatch.hpp"

namespace cwgl::obs {

/// Shard index of the calling thread: a dense id assigned on first use, so
/// two pool workers practically never share a counter cache line.
std::size_t thread_shard() noexcept;

/// Monotonic event counter with a lock-free hot path.
///
/// Writes go to one of `kShards` cache-line-padded relaxed atomics selected
/// by the calling thread (shards proceed independently, a fold reconciles
/// them at read time). `add()`
/// costs one uncontended relaxed fetch_add; `value()` folds the shards and
/// is exact once concurrent writers are quiesced, a snapshot otherwise.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    shards_[thread_shard() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Point-in-time level plus its high-water mark (e.g. queue depth).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    record_max(v);
  }

  void add(std::int64_t delta) noexcept {
    record_max(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }

  /// Raises the high-water mark without moving the level.
  void record_max(std::int64_t v) noexcept {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max_value() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket latency histogram over non-negative integer samples
/// (microseconds by convention; metric names carry a `_us` suffix).
///
/// Buckets are powers of two: bucket i counts samples whose bit width is i,
/// i.e. values in [2^(i-1), 2^i). 48 buckets cover 0 .. ~2^47 us (over three
/// days), so no sample is ever out of range. record() is lock-free: one
/// relaxed fetch_add per of bucket/count/sum plus a relaxed max update.
/// Quantiles are bucket-resolution estimates (upper bound of the bucket the
/// rank falls in) — plenty for "where did the time go" reporting.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t sample) noexcept {
    const std::size_t b =
        std::min<std::size_t>(std::bit_width(sample), kBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (sample > seen && !max_.compare_exchange_weak(
                                seen, sample, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the q-quantile sample (q in [0,1]).
  std::uint64_t quantile(double q) const noexcept;

  /// Interpolated q-quantile estimate: locates the bucket holding the rank
  /// like quantile(), then places the value by linear interpolation over the
  /// bucket's [2^(b-1), 2^b) range assuming samples spread uniformly inside
  /// it. Because the estimate stays inside the true sample's bucket, it is
  /// within a factor of 2 of the exact quantile (within +/-1 absolutely for
  /// the zero bucket) — the bound the unit tests pin. Capped at max().
  double estimate_quantile(double q) const noexcept;

  void reset() noexcept;

  /// Per-bucket counts (index = sample bit width), for tests and reports.
  std::array<std::uint64_t, kBuckets> bucket_counts() const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Immutable fold of a registry at one instant.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterEntry&) const = default;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
    std::int64_t max = 0;
    bool operator==(const GaugeEntry&) const = default;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    /// Interpolated estimates (Histogram::estimate_quantile at snapshot).
    double p50_est = 0.0;
    double p90_est = 0.0;
    double p99_est = 0.0;
    /// Per-bucket counts (index = sample bit width), trailing zero buckets
    /// trimmed — what the Prometheus exposition's `le` series is built from.
    std::vector<std::uint64_t> buckets;
    bool operator==(const HistogramEntry&) const = default;
  };

  std::vector<CounterEntry> counters;      ///< sorted by name
  std::vector<GaugeEntry> gauges;          ///< sorted by name
  std::vector<HistogramEntry> histograms;  ///< sorted by name

  /// Counter value by exact name; 0 when absent.
  std::uint64_t counter(std::string_view name) const noexcept;

  /// Distinct `stage.subsystem` prefixes (first two dot-separated segments)
  /// across every instrument — the coverage measure of a pipeline run.
  std::vector<std::string> subsystems() const;

  /// One instrument per line: `name value` / `name value (max M)` /
  /// `name count=N sum=S p50=.. p90=.. max=..`.
  void write_text(std::ostream& out) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& out) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Thread-safe named-instrument registry.
///
/// Instruments are created on first lookup and live as long as the registry
/// (references handed out stay stable), so call sites resolve once and keep
/// the pointer — the per-event hot path never touches the registry mutex.
///
/// Event *counting* is always on (one relaxed atomic per event — see
/// Counter). Anything that needs a clock read (latency histograms, span
/// timestamps) is additionally gated on `timing_enabled()`: a single
/// relaxed bool load when idle, flipped on by `--metrics`/`--trace-out` or
/// a bench sink.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  bool timing_enabled() const noexcept {
    return timing_enabled_.load(std::memory_order_relaxed);
  }
  void set_timing_enabled(bool on) noexcept {
    timing_enabled_.store(on, std::memory_order_relaxed);
  }

  /// Zeroes every instrument (names and references survive). Only
  /// meaningful when concurrent writers are quiesced — a reset racing a
  /// writer loses the racing increments, nothing worse.
  void reset();

  MetricsSnapshot snapshot() const;

  /// The process-wide registry every pre-wired subsystem reports into.
  /// Intentionally immortal (leaked on purpose) so worker threads draining
  /// during static destruction can still record safely.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<bool> timing_enabled_{false};
};

/// RAII latency probe: records elapsed microseconds into `h` on scope exit,
/// but only when the registry's timing gate was open at construction —
/// otherwise both endpoints cost a relaxed load and no clock is read.
class ScopedLatency {
 public:
  ScopedLatency(const MetricsRegistry& registry, Histogram& h) noexcept
      : histogram_(registry.timing_enabled() ? &h : nullptr) {
    if (histogram_ != nullptr) watch_.reset();
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (histogram_ != nullptr) histogram_->record(watch_.micros());
  }

 private:
  Histogram* histogram_;
  Stopwatch watch_;
};

}  // namespace cwgl::obs

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace cwgl::serve {

/// Where one request's wall time went, measured at the daemon's five
/// lifecycle points: admission -> dispatch (queue_wait), dispatch -> compute
/// start (batch_wait, the coalescing linger), compute start -> reply sent
/// (compute). `compute` splits at the moment the reply is handed to the
/// socket: `classify_us` (DAG build plus classify) and `write_us` (the
/// socket write). `total_us` is admission -> reply.
struct RequestTiming {
  std::uint64_t trace_id = 0;
  std::string job_name;
  std::string status;  ///< response status string ("ok", "timeout", ...)
  std::uint64_t queue_wait_us = 0;
  std::uint64_t batch_wait_us = 0;
  std::uint64_t compute_us = 0;
  std::uint64_t classify_us = 0;
  std::uint64_t write_us = 0;
  std::uint64_t total_us = 0;
  double deadline_ms = 0.0;  ///< effective deadline; 0 = none
};

/// Per-request latency attribution for the serving daemon.
///
/// Every recorded request feeds five global histograms
/// (`serve.daemon.queue_wait_us` / `batch_wait_us` / `compute_us` /
/// `classify_us` / `write_us` —
/// histogram references are resolved once at construction, so the record
/// path never touches the registry mutex). Requests that consumed more than
/// `slow_deadline_fraction` of their deadline are additionally sampled into
/// a bounded ring, oldest overwritten first, queryable through the `stats`
/// admin request — the "why was request X slow" record that aggregate
/// counters cannot answer.
class FlightRecorder {
 public:
  struct Config {
    std::size_t slow_ring_capacity = 64;
    double slow_deadline_fraction = 0.5;
  };

  explicit FlightRecorder(Config config);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Fresh trace id for a request entering admission (starts at 1).
  std::uint64_t next_trace_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void record(const RequestTiming& timing);

  std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_sampled() const noexcept {
    return slow_sampled_.load(std::memory_order_relaxed);
  }

  /// Sampled slow requests, oldest first.
  std::vector<RequestTiming> slow_requests() const;

  /// Writes `timings` as a JSON array of per-request breakdown objects.
  static void write_slow_json(std::ostream& out,
                              const std::vector<RequestTiming>& timings);

 private:
  Config config_;
  obs::Histogram& queue_wait_;
  obs::Histogram& batch_wait_;
  obs::Histogram& compute_;
  obs::Histogram& classify_;
  obs::Histogram& write_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> slow_sampled_{0};
  mutable std::mutex mutex_;
  std::vector<RequestTiming> ring_;
  std::size_t ring_next_ = 0;  ///< slot the next sample overwrites
};

}  // namespace cwgl::serve

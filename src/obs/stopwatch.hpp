#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace cwgl::obs {

/// Monotonic wall-clock stopwatch — the one timing primitive shared by the
/// CLI reports, the benches, and the observability subsystem itself, so
/// every "ms" printed anywhere in the tree is measured the same way.
class Stopwatch {
 public:
  using clock = std::chrono::steady_clock;

  Stopwatch() : start_(clock::now()) {}

  /// Resets the epoch to now.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset.
  double millis() const { return seconds() * 1e3; }

  /// Whole microseconds elapsed — the unit of the latency histograms and
  /// trace-event timestamps.
  std::uint64_t micros() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(clock::now() -
                                                              start_)
            .count());
  }

 private:
  clock::time_point start_;
};

/// CPU time the calling thread has used, in whole microseconds
/// (CLOCK_THREAD_CPUTIME_ID). The difference of two readings on one thread
/// is what a span's `cpu_us` arg reports: set against the span's wall time,
/// it tells a thread that computes from one that waits or is preempted.
inline std::uint64_t thread_cpu_us() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
}

}  // namespace cwgl::obs

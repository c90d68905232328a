#pragma once

// Open-loop load generator for the cwgl-serve-v1 daemon.
//
// Request i is due at start + i / rate and is sent then, whatever the state
// of earlier answers: independent submitters make an open loop, and a stall
// must show as queueing, not as a quietly slower sender. Latency is timed
// from the due time, not from the moment the sender got around to it, so a
// sender that falls behind does not hide the wait it imposes; how late the
// sender ran is reported separately so a run can be judged valid.

#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace cwgl::e2e {

using Clock = std::chrono::steady_clock;

/// Makes a receive on `client` fail after 10 s instead of blocking: a daemon
/// that stops answering must fail the run, not hang it.
inline void limit_receive_wait(serve::Client& client) {
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// Client-side outcome of one open-loop window.
struct LoadResult {
  std::uint64_t failed = 0;        ///< non-ok, wrong, or never answered
  std::vector<double> latency_us;  ///< per request from its due time; a
                                   ///< failed request is +infinity
  std::vector<double> late_us;     ///< send time minus due time
  std::string error;               ///< first socket error, if any
};

/// One connection, one sender thread, one receiver thread. Construction
/// starts the load; finish() waits for the last answer.
class OpenLoop {
 public:
  /// `check(k, response)` says whether the answer to a request built from
  /// requests[k] is right; it runs on the receiver thread.
  using Check = std::function<bool(std::size_t, const serve::Response&)>;

  OpenLoop(const serve::Endpoint& ep, std::span<const serve::Request> requests,
           double rate, std::chrono::duration<double> duration, Check check)
      : requests_(requests),
        check_(std::move(check)),
        client_(ep),
        start_(Clock::now() + std::chrono::milliseconds(5)) {
    const auto count = static_cast<std::size_t>(
        std::max(1.0, std::floor(rate * duration.count())));
    due_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      due_.push_back(start_ + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(i) / rate)));
    }
    result_.latency_us.assign(count, std::numeric_limits<double>::infinity());
    result_.late_us.assign(count, 0.0);
    limit_receive_wait(client_);
    receiver_ = std::thread([this] { receive(); });
    sender_ = std::thread([this] { send(); });
  }

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  ~OpenLoop() { join(); }

  /// Requests in the window, and when the i-th is due.
  std::size_t size() const { return due_.size(); }
  Clock::time_point due(std::size_t i) const { return due_[i]; }

  LoadResult finish() {
    join();
    if (result_.error.empty()) result_.error = send_error_;
    result_.failed = 0;
    for (double v : result_.latency_us) {
      if (!std::isfinite(v)) ++result_.failed;
    }
    return std::move(result_);
  }

 private:
  void join() {
    if (sender_.joinable()) sender_.join();
    if (receiver_.joinable()) receiver_.join();
  }

  /// Sleeps to just short of `due`, then spins: a plain sleep overshoots by
  /// the timer slack plus a wake-up, hundreds of microseconds on a VM, and
  /// every microsecond late is added to the measured latency.
  static void wait_until(Clock::time_point due) {
    constexpr auto kSpin = std::chrono::microseconds(200);
    if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
  }

  void send() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      for (std::size_t i = 0; i < due_.size(); ++i) {
        wait_until(due_[i]);
        serve::Request r = requests_[i % requests_.size()];
        r.id = i + 1;
        result_.late_us[i] =
            std::chrono::duration<double, std::micro>(Clock::now() - due_[i])
                .count();
        client_.send(r);
      }
    } catch (const std::exception& e) {
      send_error_ = e.what();
    }
    // Half-close: the daemon answers what it has, then closes, which ends
    // the receiver even if an answer went missing.
    client_.shutdown_write();
  }

  void receive() {
    try {
      for (std::size_t received = 0; received < due_.size(); ++received) {
        const auto r = client_.recv();
        if (!r) break;
        const auto now = Clock::now();
        if (r->id == 0 || r->id > due_.size()) continue;
        const std::size_t i = static_cast<std::size_t>(r->id - 1);
        if (check_(i % requests_.size(), *r)) {
          result_.latency_us[i] =
              std::chrono::duration<double, std::micro>(now - due_[i]).count();
        }
      }
    } catch (const std::exception& e) {
      result_.error = e.what();
    }
  }

  std::span<const serve::Request> requests_;
  Check check_;
  serve::Client client_;
  Clock::time_point start_;
  std::vector<Clock::time_point> due_;
  LoadResult result_;
  std::string send_error_;
  std::thread receiver_;
  std::thread sender_;
};

/// Nearest-rank quantile of an unsorted sample (+infinity entries rank last).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = k == 0 ? 0 : std::min(k, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

}  // namespace cwgl::e2e

#include "serve/flight_recorder.hpp"

#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace cwgl::serve {

FlightRecorder::FlightRecorder(Config config)
    : config_(config),
      queue_wait_(
          obs::MetricsRegistry::global().histogram("serve.daemon.queue_wait_us")),
      batch_wait_(
          obs::MetricsRegistry::global().histogram("serve.daemon.batch_wait_us")),
      compute_(
          obs::MetricsRegistry::global().histogram("serve.daemon.compute_us")),
      classify_(
          obs::MetricsRegistry::global().histogram("serve.daemon.classify_us")),
      write_(obs::MetricsRegistry::global().histogram("serve.daemon.write_us")) {
  if (config_.slow_ring_capacity > 0) ring_.reserve(config_.slow_ring_capacity);
}

void FlightRecorder::record(const RequestTiming& timing) {
  queue_wait_.record(timing.queue_wait_us);
  batch_wait_.record(timing.batch_wait_us);
  compute_.record(timing.compute_us);
  classify_.record(timing.classify_us);
  write_.record(timing.write_us);
  recorded_.fetch_add(1, std::memory_order_relaxed);

  const bool slow =
      timing.deadline_ms > 0.0 &&
      static_cast<double>(timing.total_us) >=
          config_.slow_deadline_fraction * timing.deadline_ms * 1000.0;
  if (!slow || config_.slow_ring_capacity == 0) return;

  slow_sampled_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  if (ring_.size() < config_.slow_ring_capacity) {
    ring_.push_back(timing);
  } else {
    ring_[ring_next_] = timing;
    ring_next_ = (ring_next_ + 1) % config_.slow_ring_capacity;
  }
}

std::vector<RequestTiming> FlightRecorder::slow_requests() const {
  std::lock_guard lock(mutex_);
  std::vector<RequestTiming> out;
  out.reserve(ring_.size());
  // ring_next_ points at the oldest sample once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::write_slow_json(
    std::ostream& out, const std::vector<RequestTiming>& timings) {
  util::JsonWriter j(out);
  j.begin_array();
  for (const RequestTiming& t : timings) {
    j.begin_object();
    j.field("trace_id", static_cast<unsigned long long>(t.trace_id));
    j.field("job", t.job_name);
    j.field("status", t.status);
    j.field("queue_wait_us", static_cast<unsigned long long>(t.queue_wait_us));
    j.field("batch_wait_us", static_cast<unsigned long long>(t.batch_wait_us));
    j.field("compute_us", static_cast<unsigned long long>(t.compute_us));
    j.field("classify_us", static_cast<unsigned long long>(t.classify_us));
    j.field("write_us", static_cast<unsigned long long>(t.write_us));
    j.field("total_us", static_cast<unsigned long long>(t.total_us));
    j.field("deadline_ms", t.deadline_ms);
    j.end_object();
  }
  j.end_array();
}

}  // namespace cwgl::serve

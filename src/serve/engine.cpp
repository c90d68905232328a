#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"

namespace cwgl::serve {

namespace {

double exact_quantile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

}  // namespace

BatchStats classify_batch(const Classifier& classifier,
                          std::span<const core::JobDag> jobs,
                          util::ThreadPool* pool,
                          std::vector<Prediction>* out) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& runs = registry.counter("serve.batch.runs");
  static obs::Counter& batch_jobs = registry.counter("serve.batch.jobs");
  static obs::Histogram& latency_us =
      registry.histogram("serve.classify.latency_us");

  obs::Span span("serve.classify_batch");
  span.arg("jobs", jobs.size());

  std::vector<Prediction> predictions(jobs.size());
  std::vector<std::uint64_t> latencies(jobs.size());
  const bool timing = registry.timing_enabled();

  obs::Stopwatch wall;
  const auto classify_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      obs::Stopwatch per_job;
      predictions[i] = classifier.classify(jobs[i]);
      latencies[i] = per_job.micros();
    }
  };
  if (pool != nullptr && jobs.size() > 1) {
    util::parallel_for_chunked(*pool, 0, jobs.size(), 8, classify_range);
  } else {
    classify_range(0, jobs.size());
  }

  BatchStats stats;
  stats.jobs = jobs.size();
  stats.wall_seconds = wall.seconds();
  stats.jobs_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(jobs.size()) / stats.wall_seconds
          : 0.0;
  stats.cluster_counts.assign(classifier.num_clusters(), 0);
  for (const Prediction& p : predictions) {
    if (p.oov_hits > 0) ++stats.oov_jobs;
    ++stats.cluster_counts[static_cast<std::size_t>(p.cluster)];
  }

  // Exact quantiles from the full sample set; the global histogram gets the
  // same samples (bucket resolution) only when timing is on, so an idle
  // process never pays for these clock reads twice.
  std::sort(latencies.begin(), latencies.end());
  stats.p50_latency_us = exact_quantile(latencies, 0.50);
  stats.p90_latency_us = exact_quantile(latencies, 0.90);
  stats.p99_latency_us = exact_quantile(latencies, 0.99);
  stats.max_latency_us =
      latencies.empty() ? 0.0 : static_cast<double>(latencies.back());
  if (timing) {
    for (std::uint64_t sample : latencies) latency_us.record(sample);
  }

  runs.add();
  batch_jobs.add(jobs.size());
  span.arg("jobs_per_second", static_cast<std::uint64_t>(stats.jobs_per_second));

  if (out != nullptr) *out = std::move(predictions);
  return stats;
}

}  // namespace cwgl::serve

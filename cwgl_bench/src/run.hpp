#pragma once

// State shared by the phases of one benchmark run.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace cwgl::e2e {

/// Everything a phase needs to know about the run it belongs to.
struct RunContext {
  const Workload* workload = nullptr;
  bool smoke = false;  ///< tiny inputs, for a quick functional check
  std::filesystem::path out;        ///< work directory (caches, sockets, logs)
  std::filesystem::path trace_dir;  ///< the training trace
  std::filesystem::path model;      ///< snapshot the fit writes and serve loads
  RequestStream requests;           ///< held-out classify stream
};

/// Metrics and operation counts of one run.
class Results {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void add(std::string name, double value, std::string unit);

  /// Counts one checked operation; a failure is logged to stderr.
  void check(bool ok, const std::string& what);

  /// Counts `attempted` operations of which `failed` went wrong.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median of a sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// `cwgl fit --full` on the run's trace, repeated for the fit share of the
/// run. Adds the fit.* metrics; returns the median wall seconds.
double fit_phase(const RunContext& ctx, double budget_s, int min_runs,
                 Results& out);

/// `cwgl predict` over the held-out jobs, repeated for its share of the run.
/// Adds predict.jobs_per_s.
void predict_phase(const RunContext& ctx, double budget_s, int min_runs,
                   Results& out);

/// Spawns, measures and drains the daemon under the workload's load. Adds
/// setup_s, serve.rss_mb and the daemon's latency and CPU per request.
void serve_phase(const RunContext& ctx, double window_s, Results& out);

/// The traced daemon run: ping round trips, daemon-side latency split,
/// reload cost and telemetry overhead. Adds serve.* and obs.* layer metrics.
void serve_layers(const RunContext& ctx, double window_s, Results& out);

/// The traced in-process run over the trace, model and request stream.
/// `cli_fit_s` is the untraced `cwgl fit` wall the ledger is compared with.
void ledger_phase(const RunContext& ctx, double cli_fit_s, Results& out);

}  // namespace cwgl::e2e

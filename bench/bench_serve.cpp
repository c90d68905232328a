// Online-serving throughput: fit a WL/cluster model once, then measure
// batched classification of incoming job DAGs against the frozen snapshot —
// jobs/s plus p50/p90 per-job latency, serial vs pooled, for a sampled fit
// and for a full-trace fit (`build_model_full`, one representative per
// distinct shape) of the same trace. This is the bench behind
// bench/baselines/BENCH_serve.json, which check.sh's serve-smoke pass diffs
// structurally on every run.

#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "model/fit.hpp"
#include "serve/classifier.hpp"
#include "serve/engine.hpp"
#include "trace/filter.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::bench {
namespace {

struct Models {
  model::FittedModel sampled;
  model::FittedModel full;
};

Models fit_models() {
  const trace::Trace data = make_trace(2000, kMasterSeed);
  core::PipelineConfig cfg;
  cfg.sample_size = 100;
  const core::CharacterizationPipeline pipeline(cfg);
  Models out;
  core::FittedFeatures fitted;
  const auto result = pipeline.run(data, nullptr, &fitted);
  out.sampled = model::build_model(result, std::move(fitted), cfg);
  core::FittedFeatures full_fitted;
  const auto full = pipeline.run_full(data, nullptr, &full_fitted);
  out.full = model::build_model_full(full, std::move(full_fitted), cfg);
  return out;
}

/// Classifies `jobs` serially once per rep, each rep through a fresh
/// Classifier: the answer memo starts COLD and warms only as the batch
/// itself repeats shapes — what one `cwgl predict` run sees. Records the
/// wall series as `metric` (ms) and returns the median rep's jobs/s.
double time_cold_serial(Reporter& reporter, const std::string& metric,
                        const model::FittedModel& m,
                        const std::vector<core::JobDag>& jobs) {
  const std::size_t reps = env_size("CWGL_BENCH_REPS", 3);
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    const serve::Classifier classifier(m);
    ms.push_back(serve::classify_batch(classifier, jobs).wall_seconds * 1e3);
  }
  reporter.series(metric, ms);
  std::sort(ms.begin(), ms.end());
  const double median_ms = ms[(ms.size() - 1) / 2];
  return median_ms > 0.0
             ? static_cast<double>(jobs.size()) / (median_ms / 1e3)
             : 0.0;
}

void run() {
  banner("serve", "online classification against a fitted model snapshot");
  Reporter reporter("serve");

  const Models models = fit_models();
  const serve::Classifier classifier(models.sampled);
  const trace::Trace incoming = make_trace(4000, kMasterSeed + 1);
  const std::vector<core::JobDag> jobs =
      core::build_all_dag_jobs(incoming, trace::SamplingCriteria{});
  std::cout << "model: " << classifier.num_clusters()
            << " clusters, " << classifier.dictionary_size()
            << " WL signatures, " << models.sampled.training_jobs()
            << " representatives (full fit: "
            << models.full.training_jobs()
            << "); incoming batch: " << jobs.size() << " DAG jobs\n";

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  util::ThreadPool pool(hw);

  const double serial =
      time_cold_serial(reporter, "classify_serial", models.sampled, jobs);
  const double full_serial =
      time_cold_serial(reporter, "classify_full_serial", models.full, jobs);
  // Pooled reps share one classifier, so every rep after the first runs
  // against a warm memo.
  serve::BatchStats pooled{};
  reporter.time("classify_pooled", [&] {
    pooled = serve::classify_batch(classifier, jobs, &pool);
  });

  const double ratio = serial > 0.0 ? full_serial / serial : 0.0;
  reporter.set("jobs_per_second_serial", serial, "jobs/s");
  reporter.set("jobs_per_second_full_serial", full_serial, "jobs/s");
  reporter.set("full_vs_sampled_ratio", ratio, "ratio");
  reporter.set("jobs_per_second_pooled", pooled.jobs_per_second, "jobs/s");
  reporter.set("p50_latency_us", pooled.p50_latency_us, "us");
  reporter.set("p90_latency_us", pooled.p90_latency_us, "us");
  reporter.set("oov_job_fraction",
               jobs.empty() ? 0.0
                            : static_cast<double>(pooled.oov_jobs) /
                                  static_cast<double>(jobs.size()),
               "fraction");

  std::cout << "serial (cold memo): " << static_cast<std::size_t>(serial)
            << " jobs/s sampled, " << static_cast<std::size_t>(full_serial)
            << " jobs/s full (ratio " << ratio << ")\npooled(" << hw
            << ", warm memo): "
            << static_cast<std::size_t>(pooled.jobs_per_second)
            << " jobs/s   p50 " << pooled.p50_latency_us << " us   p90 "
            << pooled.p90_latency_us << " us\n";
  std::cout << "wrote " << reporter.output_path() << "\n";
}

}  // namespace
}  // namespace cwgl::bench

int main() {
  cwgl::bench::run();
  return 0;
}

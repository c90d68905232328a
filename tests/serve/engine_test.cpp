#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "model/fit.hpp"
#include "obs/metrics.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::serve {
namespace {

model::FittedModel fit_small() {
  trace::GeneratorConfig gcfg;
  gcfg.num_jobs = 300;
  gcfg.seed = 7;
  gcfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gcfg).generate();
  core::PipelineConfig cfg;
  cfg.sample_size = 60;
  cfg.clustering.clusters = 4;
  core::FittedFeatures fitted;
  const auto result =
      core::CharacterizationPipeline(cfg).run(data, nullptr, &fitted);
  return model::build_model(result, std::move(fitted), cfg);
}

std::vector<core::JobDag> incoming_jobs(std::uint64_t seed, std::size_t n) {
  trace::GeneratorConfig gcfg;
  gcfg.num_jobs = n;
  gcfg.seed = seed;
  gcfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gcfg).generate();
  return core::build_all_dag_jobs(data, trace::SamplingCriteria{});
}

TEST(EngineTest, BatchPredictionsMatchSerialInInputOrder) {
  const Classifier classifier(fit_small());
  const auto jobs = incoming_jobs(99, 150);
  ASSERT_FALSE(jobs.empty());

  std::vector<Prediction> serial;
  serial.reserve(jobs.size());
  for (const core::JobDag& job : jobs) serial.push_back(classifier.classify(job));

  util::ThreadPool pool(4);
  std::vector<Prediction> batched;
  const BatchStats stats = classify_batch(classifier, jobs, &pool, &batched);

  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(batched[i].cluster, serial[i].cluster) << jobs[i].job_name;
    EXPECT_EQ(batched[i].similarity, serial[i].similarity);
    EXPECT_EQ(batched[i].oov_hits, serial[i].oov_hits);
  }
  EXPECT_EQ(stats.jobs, jobs.size());
}

TEST(EngineTest, StatsAreInternallyConsistent) {
  const Classifier classifier(fit_small());
  const auto jobs = incoming_jobs(123, 120);
  ASSERT_FALSE(jobs.empty());
  util::ThreadPool pool(2);
  const BatchStats stats = classify_batch(classifier, jobs, &pool);

  EXPECT_EQ(stats.jobs, jobs.size());
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.jobs_per_second, 0.0);
  EXPECT_LE(stats.p50_latency_us, stats.p90_latency_us);
  EXPECT_LE(stats.p90_latency_us, stats.p99_latency_us);
  EXPECT_LE(stats.p99_latency_us, stats.max_latency_us);
  EXPECT_LE(stats.oov_jobs, stats.jobs);
  ASSERT_EQ(stats.cluster_counts.size(), classifier.num_clusters());
  const std::size_t assigned = std::accumulate(
      stats.cluster_counts.begin(), stats.cluster_counts.end(), std::size_t{0});
  EXPECT_EQ(assigned, stats.jobs);
}

TEST(EngineTest, EmitsServeMetrics) {
  const Classifier classifier(fit_small());
  const auto jobs = incoming_jobs(7, 60);
  ASSERT_FALSE(jobs.empty());
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t jobs_before =
      registry.snapshot().counter("serve.batch.jobs");
  classify_batch(classifier, jobs, nullptr);
  const auto after = registry.snapshot();
  EXPECT_EQ(after.counter("serve.batch.jobs"), jobs_before + jobs.size());
  EXPECT_GE(after.counter("serve.classify.jobs"), jobs.size());
}

TEST(EngineTest, EmptyBatchIsWellDefined) {
  const Classifier classifier(fit_small());
  const BatchStats stats = classify_batch(classifier, {}, nullptr);
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_EQ(stats.p50_latency_us, 0.0);
  EXPECT_EQ(stats.oov_jobs, 0u);
}

}  // namespace
}  // namespace cwgl::serve

// Serving contract: classification never grows the frozen dictionary
// (unseen structure lands in the OOV bucket), is thread-safe, and is
// deterministic (concurrent predictions equal serial ones). The answer memo
// is held to the same bar: a memoized answer equals, bit for bit, what a
// fresh Classifier (whose memo is cold, so it always scans) returns.

#include "serve/classifier.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/digraph.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "obs/metrics.hpp"
#include "trace/filter.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::serve {
namespace {

struct Fixture {
  core::PipelineResult result;
  model::FittedModel model;
};

Fixture fit_small(
    const std::function<void(core::PipelineConfig&)>& tweak = nullptr) {
  trace::GeneratorConfig gcfg;
  gcfg.num_jobs = 300;
  gcfg.seed = 7;
  gcfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gcfg).generate();
  core::PipelineConfig cfg;
  cfg.sample_size = 60;
  cfg.clustering.clusters = 4;
  if (tweak) tweak(cfg);
  core::FittedFeatures fitted;
  Fixture f{core::CharacterizationPipeline(cfg).run(data, nullptr, &fitted),
            {}};
  f.model = model::build_model(f.result, std::move(fitted), cfg);
  return f;
}

/// Hand-built job whose task types never occur in training ('Z'), so every
/// WL signature of it is out-of-vocabulary.
core::JobDag alien_job() {
  core::JobDag job;
  job.job_name = "j_alien";
  const std::vector<graph::Edge> edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  job.dag = graph::Digraph(4, edges);
  job.tasks.resize(4);
  for (int i = 0; i < 4; ++i) {
    job.tasks[i].type = 'Z';
    job.tasks[i].name = "Z" + std::to_string(i + 1);
  }
  return job;
}

TEST(ClassifierTest, OovJobStillClassifies) {
  const Fixture f = fit_small();
  const Classifier classifier(f.model);
  const Prediction p = classifier.classify(alien_job());
  EXPECT_GT(p.oov_hits, 0u);
  ASSERT_GE(p.cluster, 0);
  ASSERT_LT(static_cast<std::size_t>(p.cluster), f.model.num_clusters());
  ASSERT_EQ(p.scores.size(), f.model.num_clusters());
  for (double score : p.scores) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0 + 1e-12);
  }
  EXPECT_FALSE(p.nearest_job.empty());
  EXPECT_GT(p.predicted_critical_path, 0.0);
}

TEST(ClassifierTest, ServingNeverGrowsTheDictionary) {
  const Fixture f = fit_small();
  const Classifier classifier(f.model);
  const std::size_t frozen = classifier.dictionary_size();
  EXPECT_EQ(frozen, f.model.dictionary.size());
  // Both in-vocabulary jobs and a fully OOV job leave the dictionary alone.
  for (const core::JobDag& job : f.result.sample) classifier.classify(job);
  classifier.classify(alien_job());
  EXPECT_EQ(classifier.dictionary_size(), frozen);
}

TEST(ClassifierTest, DistinctOovSignaturesShareOneBucket) {
  const Fixture f = fit_small();
  const Classifier classifier(f.model);
  // Two structurally different all-OOV jobs: every feature of both collapses
  // into the single reserved bucket per iteration, so their (normalized)
  // mutual treatment is identical — here we just require both to classify
  // and to report full OOV coverage at iteration 0.
  core::JobDag chain = alien_job();
  const Prediction p = classifier.classify(chain);
  EXPECT_GE(p.oov_hits, static_cast<std::size_t>(chain.size()));
}

TEST(ClassifierTest, ConcurrentClassifyMatchesSerialAndStaysFrozen) {
  const Fixture f = fit_small();
  const Classifier classifier(f.model);
  const std::size_t frozen = classifier.dictionary_size();

  std::vector<Prediction> serial;
  serial.reserve(f.result.sample.size());
  for (const core::JobDag& job : f.result.sample) {
    serial.push_back(classifier.classify(job));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::vector<std::vector<Prediction>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          per_thread[t].clear();
          for (const core::JobDag& job : f.result.sample) {
            per_thread[t].push_back(classifier.classify(job));
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[t].size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(per_thread[t][i].cluster, serial[i].cluster);
      EXPECT_EQ(per_thread[t][i].similarity, serial[i].similarity);
      EXPECT_EQ(per_thread[t][i].nearest_job, serial[i].nearest_job);
      EXPECT_EQ(per_thread[t][i].oov_hits, serial[i].oov_hits);
      EXPECT_EQ(per_thread[t][i].scores, serial[i].scores);
    }
  }
  // The label dictionary is the same size before and after the storm: the
  // acceptance criterion for read-only serving.
  EXPECT_EQ(classifier.dictionary_size(), frozen);
}

TEST(ClassifierTest, InvalidModelIsRejectedAtConstruction) {
  Fixture f = fit_small();
  f.model.representatives[0][0].self_norm += 1.0;
  EXPECT_THROW(Classifier rejected(std::move(f.model)), model::ModelError);
}

// ---- Answer memo -----------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bit_identical(const Prediction& got, const Prediction& want,
                          const std::string& job) {
  EXPECT_EQ(got.cluster, want.cluster) << job;
  EXPECT_EQ(got.cluster_letter, want.cluster_letter) << job;
  EXPECT_EQ(bits(got.similarity), bits(want.similarity)) << job;
  ASSERT_EQ(got.scores.size(), want.scores.size()) << job;
  for (std::size_t c = 0; c < want.scores.size(); ++c) {
    EXPECT_EQ(bits(got.scores[c]), bits(want.scores[c])) << job << " c=" << c;
  }
  EXPECT_EQ(got.nearest_job, want.nearest_job) << job;
  EXPECT_EQ(got.oov_hits, want.oov_hits) << job;
  EXPECT_EQ(bits(got.predicted_critical_path),
            bits(want.predicted_critical_path)) << job;
  EXPECT_EQ(bits(got.predicted_width), bits(want.predicted_width)) << job;
}

/// Every answer from a fresh Classifier, whose memo is necessarily cold.
std::vector<Prediction> oracle(const model::FittedModel& m,
                               const std::vector<core::JobDag>& jobs) {
  std::vector<Prediction> out;
  out.reserve(jobs.size());
  for (const core::JobDag& job : jobs) out.push_back(Classifier(m).classify(job));
  return out;
}

std::vector<core::JobDag> held_out_jobs(std::size_t n, std::uint64_t seed) {
  trace::GeneratorConfig gcfg;
  gcfg.num_jobs = n;
  gcfg.seed = seed;
  gcfg.emit_instances = false;
  return core::build_all_dag_jobs(trace::TraceGenerator(gcfg).generate(),
                                  trace::SamplingCriteria{});
}

/// Training exemplars, then held-out jobs (each held-out job twice, so a
/// held-out shape can hit on the cold pass too), then the all-OOV job.
std::vector<core::JobDag> memo_inputs(std::vector<core::JobDag> training) {
  std::vector<core::JobDag> jobs = std::move(training);
  const std::vector<core::JobDag> held_out = held_out_jobs(200, 8);
  for (int copy = 0; copy < 2; ++copy) {
    jobs.insert(jobs.end(), held_out.begin(), held_out.end());
  }
  jobs.push_back(alien_job());
  return jobs;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Cold pass then warm pass through ONE memoizing Classifier; both must
/// equal the oracle bit for bit, and the warm pass must actually hit.
void expect_memo_matches_oracle(const model::FittedModel& m,
                                const std::vector<core::JobDag>& jobs) {
  const std::vector<Prediction> want = oracle(m, jobs);
  const Classifier memoized(m);
  for (const char* pass : {"cold", "warm"}) {
    const std::uint64_t hits_before = counter("serve.classify.memo_hits");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expect_bit_identical(memoized.classify(jobs[i]), want[i],
                           std::string(pass) + " " + jobs[i].job_name);
    }
    EXPECT_GT(counter("serve.classify.memo_hits"), hits_before) << pass;
  }
}

TEST(ClassifierMemoTest, SampledModelMatchesColdOracle) {
  const Fixture f = fit_small();
  expect_memo_matches_oracle(f.model, memo_inputs(f.result.sample));
}

TEST(ClassifierMemoTest, FullModelMatchesColdOracle) {
  trace::GeneratorConfig gcfg;
  gcfg.num_jobs = 1000;
  gcfg.seed = 7;
  gcfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gcfg).generate();
  const core::PipelineConfig cfg;
  core::FittedFeatures fitted;
  const core::FullTraceResult result =
      core::CharacterizationPipeline(cfg).run_full(data, nullptr, &fitted);
  const model::FittedModel m =
      model::build_model_full(result, std::move(fitted), cfg);
  expect_memo_matches_oracle(m, memo_inputs(result.table.exemplars));
}

TEST(ClassifierMemoTest, ConflatedModelMatchesColdOracle) {
  const Fixture f =
      fit_small([](core::PipelineConfig& c) { c.analyze_conflated = true; });
  ASSERT_TRUE(f.model.conflated);
  expect_memo_matches_oracle(f.model, memo_inputs(f.result.sample));
}

TEST(ClassifierMemoTest, UnnormalizedModelMatchesColdOracle) {
  const Fixture f = fit_small(
      [](core::PipelineConfig& c) { c.similarity.normalize = false; });
  ASSERT_FALSE(f.model.normalize);
  expect_memo_matches_oracle(f.model, memo_inputs(f.result.sample));
}

TEST(ClassifierMemoTest, GoldenModelMatchesColdOracle) {
  const std::string data = CWGL_TEST_DATA_DIR;
  const model::FittedModel m = model::load_model(data + "/example_model.cwgl");
  // The golden model was fitted on a sample of this trace.
  std::ifstream tasks(data + "/example_trace/batch_task.csv");
  ASSERT_TRUE(tasks.is_open());
  expect_memo_matches_oracle(
      m, memo_inputs(core::build_all_dag_jobs(tasks, trace::SamplingCriteria{})));
}

TEST(ClassifierMemoTest, EveryJobIsEitherAMemoHitOrAScan) {
  const Fixture f = fit_small();
  const std::vector<core::JobDag> jobs = memo_inputs(f.result.sample);
  const Classifier classifier(f.model);
  const std::uint64_t jobs0 = counter("serve.classify.jobs");
  const std::uint64_t hits0 = counter("serve.classify.memo_hits");
  const std::uint64_t scans0 = counter("serve.classify.scans");
  for (int pass = 0; pass < 2; ++pass) {
    for (const core::JobDag& job : jobs) classifier.classify(job);
  }
  const std::uint64_t classified = counter("serve.classify.jobs") - jobs0;
  const std::uint64_t hits = counter("serve.classify.memo_hits") - hits0;
  const std::uint64_t scans = counter("serve.classify.scans") - scans0;
  EXPECT_EQ(classified, 2 * jobs.size());
  EXPECT_EQ(hits + scans, classified);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(scans, 0u);
}

TEST(ClassifierMemoTest, ConcurrentColdMemoMatchesOracle) {
  const Fixture f = fit_small();
  const std::vector<core::JobDag> jobs = memo_inputs(f.result.sample);
  const std::vector<Prediction> want = oracle(f.model, jobs);

  // Every thread starts on the same still-empty memo, so slot publication
  // races with readers and with other writers of the same slot.
  const Classifier classifier(f.model);
  constexpr int kThreads = 8;
  std::barrier start(kThreads);
  std::vector<std::vector<Prediction>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (const core::JobDag& job : jobs) {
          per_thread[t].push_back(classifier.classify(job));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[t].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_bit_identical(per_thread[t][i], want[i], jobs[i].job_name);
    }
  }
}

}  // namespace
}  // namespace cwgl::serve

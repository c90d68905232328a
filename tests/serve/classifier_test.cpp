// Serving contract: classification never grows the frozen dictionary
// (unseen structure lands in the OOV bucket), is thread-safe, and is
// deterministic (concurrent predictions equal serial ones). Every answer —
// scanned through the representative index or served from the answer
// memo — equals, bit for bit, an independent reference scan that visits
// every representative of the FittedModel with the scalar sparse dot.

#include "serve/classifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/digraph.hpp"
#include "kernel/types.hpp"
#include "kernel/wl.hpp"
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

// ---- Reference scan ------------------------------------------------------

/// The oracle for every answer below. It shares no scan code with the
/// Classifier: it featurizes with the model's recipe over its own rehydrated
/// dictionary, then visits every representative of the FittedModel (before
/// any Classifier releases its vectors) with SparseVector::dot_scalar, the
/// same normalization and the lowest-training-index tie-break.
class ReferenceScan {
 public:
  explicit ReferenceScan(model::FittedModel m)
      : m_(std::move(m)), featurizer_(m_.wl, dict_, m_.oov_id()) {
    for (const std::string& signature : m_.dictionary) dict_.intern(signature);
  }

  kernel::SparseVector features(const core::JobDag& job,
                                std::size_t* oov_hits = nullptr) const {
    const core::JobDag dag = m_.conflated ? core::conflate_job(job) : job;
    kernel::LabeledGraph g;
    g.graph = dag.dag;
    if (m_.use_type_labels) g.labels = dag.type_labels();
    return featurizer_.featurize(g, oov_hits);
  }

  Prediction classify(const core::JobDag& job) const {
    Prediction out;
    const kernel::SparseVector phi = features(job, &out.oov_hits);
    const double norm = phi.norm();
    out.scores.assign(m_.num_clusters(), 0.0);
    out.similarity = -std::numeric_limits<double>::infinity();
    const model::Representative* nearest = nullptr;
    for (std::size_t c = 0; c < m_.num_clusters(); ++c) {
      for (const model::Representative& rep : m_.representatives[c]) {
        double sim = phi.dot_scalar(rep.features);
        if (m_.normalize) {
          const double denom = norm * rep.self_norm;
          sim = denom > 0.0 ? sim / denom : 0.0;
        }
        if (sim > out.scores[c]) out.scores[c] = sim;
        if (sim > out.similarity ||
            (sim == out.similarity &&
             rep.training_index < nearest->training_index)) {
          out.similarity = sim;
          out.cluster = static_cast<int>(c);
          nearest = &rep;
        }
      }
    }
    out.cluster_letter =
        model::FittedModel::letter(static_cast<std::size_t>(out.cluster));
    out.nearest_job = nearest->job_name;
    const model::ClusterProfile& profile =
        m_.profiles[static_cast<std::size_t>(out.cluster)];
    out.predicted_critical_path = profile.median_critical_path;
    out.predicted_width = profile.median_width;
    return out;
  }

 private:
  model::FittedModel m_;
  kernel::SignatureDictionary dict_;
  kernel::FrozenWlFeaturizer featurizer_;
};

// ---- Index and answer memo against the reference ---------------------------

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

/// Every answer from the reference scan.
std::vector<Prediction> oracle(const model::FittedModel& m,
                               const std::vector<core::JobDag>& jobs) {
  const ReferenceScan reference(m);
  std::vector<Prediction> out;
  out.reserve(jobs.size());
  for (const core::JobDag& job : jobs) out.push_back(reference.classify(job));
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
                                const std::vector<core::JobDag>& jobs,
                                const ScanKernel& kernel = scan_kernel()) {
  const std::vector<Prediction> want = oracle(m, jobs);
  const Classifier memoized(m, kernel);
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

// ---- Representative index edge cases --------------------------------------

/// Non-unit iteration weights scale features by sqrt(w), so values are not
/// integers and only the dot's own ascending-id summation order, with each
/// product rounded before it is added, reproduces its bits: a kernel that
/// fused the dense columns' multiply and add would fail here. Every kernel
/// variant this CPU runs gets the same answers.
TEST(ClassifierIndexTest, WeightedIterationsMatchReference) {
  const Fixture f = fit_small([](core::PipelineConfig& c) {
    c.similarity.wl.iteration_weights = {0.3, 1.7};
  });
  ASSERT_EQ(f.model.wl.iteration_weights, (std::vector<double>{0.3, 1.7}));
  for (const ScanKernel& kernel : scan_kernels()) {
    SCOPED_TRACE(kernel.name);
    expect_memo_matches_oracle(f.model, memo_inputs(f.result.sample), kernel);
  }
}

/// A job that shares no feature with any representative: the scan visits no
/// posting, every accumulator stays 0.0, every score is +0.0, and the tie
/// over all representatives goes to the lowest training index.
void expect_shares_nothing(const model::FittedModel& m,
                           const core::JobDag& job) {
  const model::Representative* lowest = nullptr;
  for (const auto& cluster : m.representatives) {
    for (const model::Representative& rep : cluster) {
      if (lowest == nullptr || rep.training_index < lowest->training_index) {
        lowest = &rep;
      }
    }
  }
  const std::vector<Prediction> want = oracle(m, {job});
  const Classifier classifier(m);
  const std::uint64_t postings0 = counter("serve.classify.postings");
  for (const char* pass : {"cold", "warm"}) {
    const Prediction got = classifier.classify(job);
    expect_bit_identical(got, want[0], pass);
    EXPECT_EQ(got.nearest_job, lowest->job_name) << pass;
    EXPECT_EQ(bits(got.similarity), bits(0.0)) << pass;
    for (double score : got.scores) EXPECT_EQ(bits(score), bits(0.0)) << pass;
  }
  EXPECT_EQ(counter("serve.classify.postings"), postings0);
}

/// Fully in-vocabulary, but every id it holds is dropped from every
/// representative.
TEST(ClassifierIndexTest, JobSharingNoFeatureTiesToLowestTrainingIndex) {
  Fixture f = fit_small();
  const core::JobDag& job = f.result.sample.front();
  std::size_t oov = 0;
  const kernel::SparseVector phi = ReferenceScan(f.model).features(job, &oov);
  ASSERT_EQ(oov, 0u);
  for (auto& cluster : f.model.representatives) {
    for (model::Representative& rep : cluster) {
      std::erase_if(rep.features.items, [&](const auto& entry) {
        return std::any_of(phi.items.begin(), phi.items.end(),
                           [&](const auto& e) { return e.first == entry.first; });
      });
      rep.self_norm = rep.features.norm();
    }
  }
  expect_shares_nothing(f.model, job);
}

/// Every id of the all-OOV job is the OOV id, which has no postings.
TEST(ClassifierIndexTest, AllOovJobTiesToLowestTrainingIndex) {
  const Fixture f = fit_small();
  std::size_t oov = 0;
  const kernel::SparseVector phi =
      ReferenceScan(f.model).features(alien_job(), &oov);
  ASSERT_GT(oov, 0u);
  for (const auto& [id, value] : phi.items) ASSERT_EQ(id, f.model.oov_id());
  expect_shares_nothing(f.model, alien_job());
}

/// Two clusters hold bitwise-identical vectors, the copy in the LATER
/// cluster carrying the lowest training index of the model: the tie must go
/// to it, not to the representative the scan visits first.
TEST(ClassifierIndexTest, TieAcrossClustersBreaksToLowestTrainingIndex) {
  Fixture f = fit_small();
  ASSERT_GE(f.model.num_clusters(), 2u);
  model::Representative& first = f.model.representatives[0].front();
  model::Representative& copy = f.model.representatives[1].front();
  model::Representative* lowest = &copy;
  for (auto& cluster : f.model.representatives) {
    for (model::Representative& rep : cluster) {
      if (rep.training_index < lowest->training_index) lowest = &rep;
    }
  }
  std::swap(lowest->training_index, copy.training_index);
  copy.features = first.features;
  copy.self_norm = first.self_norm;

  std::vector<core::JobDag> jobs = memo_inputs(f.result.sample);
  const auto job = std::find_if(
      jobs.begin(), jobs.end(),
      [&](const core::JobDag& j) { return j.job_name == first.job_name; });
  ASSERT_NE(job, jobs.end());
  const Prediction want = oracle(f.model, {*job})[0];
  EXPECT_EQ(want.nearest_job, copy.job_name);
  EXPECT_EQ(want.cluster, 1);
  expect_memo_matches_oracle(f.model, jobs);
}

/// serve.classify.postings counts, per scan, the postings of the job's
/// in-vocabulary ids: the sum over representatives of the ids they share
/// with the job.
TEST(ClassifierIndexTest, ScanCountsThePostingsOfTheJobsFeatures) {
  const Fixture f = fit_small();
  const std::vector<core::JobDag> held_out = held_out_jobs(50, 8);
  const core::JobDag& job = held_out.front();
  const kernel::SparseVector phi = ReferenceScan(f.model).features(job);
  std::uint64_t shared = 0;
  for (const auto& cluster : f.model.representatives) {
    for (const model::Representative& rep : cluster) {
      for (const auto& [id, value] : rep.features.items) {
        if (std::any_of(phi.items.begin(), phi.items.end(),
                        [&](const auto& e) { return e.first == id; })) {
          ++shared;
        }
      }
    }
  }
  ASSERT_GT(shared, 0u);
  const Classifier classifier(f.model);  // cold memo: the first call scans
  const std::uint64_t scans0 = counter("serve.classify.scans");
  const std::uint64_t postings0 = counter("serve.classify.postings");
  classifier.classify(job);
  EXPECT_EQ(counter("serve.classify.scans") - scans0, 1u);
  EXPECT_EQ(counter("serve.classify.postings") - postings0, shared);
}

// ---- The filter and the dense columns --------------------------------------

/// Replaces a representative's vector, keeping the norm consistent.
void set_features(model::Representative& rep, kernel::SparseVector features) {
  rep.features = std::move(features);
  rep.self_norm = rep.features.norm();
}

/// A held-out job with no OOV feature that no representative scores 0.99
/// against, so a representative close to its own vector is the nearest.
core::JobDag novel_in_vocabulary_job(const model::FittedModel& m) {
  const ReferenceScan reference(m);
  for (const core::JobDag& job : held_out_jobs(200, 8)) {
    std::size_t oov = 0;
    reference.features(job, &oov);
    if (oov == 0 && reference.classify(job).similarity < 0.99) return job;
  }
  ADD_FAILURE() << "no novel in-vocabulary held-out job";
  return {};
}

/// lambda * phi as a representative's vector, with its exact score against
/// phi and the filter's estimate of it (the dot times 1 / self norm).
struct Scaled {
  kernel::SparseVector features;
  double exact = 0.0;
  double estimate = 0.0;
};

Scaled scaled(const kernel::SparseVector& phi, double lambda) {
  Scaled out;
  for (const auto& [id, value] : phi.items) {
    out.features.items.emplace_back(id, lambda * value);
  }
  const double self_norm = out.features.norm();
  const double dot = phi.dot_scalar(out.features);
  out.exact = dot / (phi.norm() * self_norm);
  out.estimate = dot * (1.0 / self_norm);
  return out;
}

/// Two scalings of phi whose exact scores differ by one ulp while their
/// estimates order the other way: {higher exact score, higher estimate}. A
/// filter that kept only the largest estimate would re-score the wrong one.
std::pair<Scaled, Scaled> inverted_pair(const kernel::SparseVector& phi) {
  std::vector<Scaled> all;
  for (int k = 1; k <= 2000; ++k) all.push_back(scaled(phi, 1.0 + k / 4096.0));
  for (const Scaled& a : all) {
    for (const Scaled& b : all) {
      if (a.exact == std::nextafter(b.exact, 2.0) && a.estimate < b.estimate) {
        return {a, b};
      }
    }
  }
  ADD_FAILURE() << "no pair of scalings inverts the estimate's order";
  return {};
}

/// Cluster 0's nearest representative scores one ulp above the other one
/// scaled from the job's vector, while its estimate is the lower of the
/// two: the filter's margin must keep both for the exact re-score.
TEST(ClassifierIndexTest, FilterRescoresAOneUlpNearTie) {
  Fixture f = fit_small();
  ASSERT_GE(f.model.representatives[0].size(), 2u);
  const core::JobDag job = novel_in_vocabulary_job(f.model);
  const kernel::SparseVector phi = ReferenceScan(f.model).features(job);
  const auto [higher, lower] = inverted_pair(phi);
  model::Representative& nearest = f.model.representatives[0][0];
  set_features(nearest, higher.features);
  set_features(f.model.representatives[0][1], lower.features);

  const Prediction want = oracle(f.model, {job})[0];
  ASSERT_EQ(want.nearest_job, nearest.job_name);
  ASSERT_EQ(bits(want.similarity), bits(higher.exact));
  for (const ScanKernel& kernel : scan_kernels()) {
    const Classifier classifier(f.model, kernel);
    expect_bit_identical(classifier.classify(job), want, kernel.name);
  }
}

/// The same pair in clusters 0 and 1, the later cluster's copy of the
/// higher one carrying the model's lowest training index: the two exact
/// bests tie across clusters, and both must survive the filter for the
/// tie to go to the lowest training index.
TEST(ClassifierIndexTest, FilterKeepsAnExactTieAcrossClusters) {
  Fixture f = fit_small();
  ASSERT_GE(f.model.num_clusters(), 2u);
  ASSERT_GE(f.model.representatives[0].size(), 2u);
  ASSERT_GE(f.model.representatives[1].size(), 2u);
  const core::JobDag job = novel_in_vocabulary_job(f.model);
  const kernel::SparseVector phi = ReferenceScan(f.model).features(job);
  const auto [higher, lower] = inverted_pair(phi);
  model::Representative& copy = f.model.representatives[1][0];
  model::Representative* lowest = &copy;
  for (auto& cluster : f.model.representatives) {
    for (model::Representative& rep : cluster) {
      if (rep.training_index < lowest->training_index) lowest = &rep;
    }
  }
  std::swap(lowest->training_index, copy.training_index);
  for (std::size_t c = 0; c < 2; ++c) {
    set_features(f.model.representatives[c][0], higher.features);
    set_features(f.model.representatives[c][1], lower.features);
  }

  const Prediction want = oracle(f.model, {job})[0];
  ASSERT_EQ(want.nearest_job, copy.job_name);
  ASSERT_EQ(want.cluster, 1);
  ASSERT_EQ(bits(want.scores[0]), bits(higher.exact));
  ASSERT_EQ(bits(want.scores[1]), bits(higher.exact));
  for (const ScanKernel& kernel : scan_kernels()) {
    const Classifier classifier(f.model, kernel);
    expect_bit_identical(classifier.classify(job), want, kernel.name);
  }
}

/// Iteration weights of 1e-320 make every feature about 1e-160, so dots
/// and the products norm * self_norm are subnormal and the exact score can
/// round far from the filter's estimate. Outside the range where the
/// estimate's error bound holds the filter keeps every representative: a
/// filter that kept only those near the largest estimate would pick the
/// wrong one of this pair.
TEST(ClassifierIndexTest, SubnormalScoresAreRescoredWhole) {
  Fixture f = fit_small();
  ASSERT_GE(f.model.representatives[0].size(), 2u);
  const core::JobDag job = novel_in_vocabulary_job(f.model);
  f.model.wl.iteration_weights = {1e-320, 1e-320};
  const kernel::SparseVector phi = ReferenceScan(f.model).features(job);
  ASSERT_LT(phi.norm(), 1e-100);
  // Exact scores in one order, estimates in the other by far more than the
  // filter's margin.
  std::vector<Scaled> all;
  for (int k = 1; k <= 400; ++k) all.push_back(scaled(phi, 1.0 + k / 512.0));
  const Scaled* higher = nullptr;
  const Scaled* lower = nullptr;
  for (const Scaled& a : all) {
    for (const Scaled& b : all) {
      if (a.exact > b.exact && a.estimate < b.estimate * (1.0 - 1e-9)) {
        higher = &a;
        lower = &b;
      }
    }
  }
  ASSERT_NE(higher, nullptr) << "no pair inverts by more than the margin";
  model::Representative& nearest = f.model.representatives[0][0];
  set_features(nearest, higher->features);
  set_features(f.model.representatives[0][1], lower->features);

  const Prediction want = oracle(f.model, {job})[0];
  ASSERT_EQ(want.nearest_job, nearest.job_name);
  for (const ScanKernel& kernel : scan_kernels()) {
    const Classifier classifier(f.model, kernel);
    expect_bit_identical(classifier.classify(job), want, kernel.name);
  }
}

/// Two of the first sample job's features, one held by exactly two-thirds
/// of the representatives (the least that makes a dense column) and one by
/// a single representative fewer (postings): answers and posting counts
/// match the reference on both sides of the line.
TEST(ClassifierIndexTest, DensityLineMatchesReference) {
  Fixture f = fit_small();
  const std::size_t reps = f.model.training_jobs();
  const std::size_t line = (2 * reps + 2) / 3;
  ASSERT_GE(3 * line, 2 * reps);
  ASSERT_LT(3 * (line - 1), 2 * reps);
  const kernel::SparseVector phi =
      ReferenceScan(f.model).features(f.result.sample.front());
  ASSERT_GE(phi.items.size(), 2u);
  const int dense_id = phi.items[0].first;
  const int sparse_id = phi.items[1].first;

  // Representative k (in scan order) holds dense_id iff k < line and
  // sparse_id iff k < line - 1, keeping any value it already had.
  std::size_t k = 0;
  for (auto& cluster : f.model.representatives) {
    for (model::Representative& rep : cluster) {
      kernel::SparseVector v = rep.features;
      for (const auto& [id, holders] :
           {std::pair{dense_id, line}, std::pair{sparse_id, line - 1}}) {
        const auto at = std::lower_bound(
            v.items.begin(), v.items.end(), id,
            [](const auto& entry, int key) { return entry.first < key; });
        const bool held = at != v.items.end() && at->first == id;
        if (k < holders && !held) v.items.insert(at, {id, 2.0});
        if (k >= holders && held) v.items.erase(at);
      }
      set_features(rep, std::move(v));
      ++k;
    }
  }
  for (const ScanKernel& kernel : scan_kernels()) {
    SCOPED_TRACE(kernel.name);
    expect_memo_matches_oracle(f.model, memo_inputs(f.result.sample), kernel);
  }

  // Every posting of the job's ids, dense or not, is counted once.
  std::uint64_t shared = 0;
  for (const auto& cluster : f.model.representatives) {
    for (const model::Representative& rep : cluster) {
      for (const auto& [id, value] : rep.features.items) {
        if (std::any_of(phi.items.begin(), phi.items.end(),
                        [&](const auto& e) { return e.first == id; })) {
          ++shared;
        }
      }
    }
  }
  const Classifier classifier(f.model);  // cold memo: the first call scans
  const std::uint64_t scans0 = counter("serve.classify.scans");
  const std::uint64_t postings0 = counter("serve.classify.postings");
  const std::uint64_t rechecks0 = counter("serve.classify.rechecks");
  classifier.classify(f.result.sample.front());
  ASSERT_EQ(counter("serve.classify.scans") - scans0, 1u);
  EXPECT_EQ(counter("serve.classify.postings") - postings0, shared);
  EXPECT_GE(counter("serve.classify.rechecks") - rechecks0, 1u);
}

/// With iteration weight 0 every label feature is 0.0, so label sets of
/// one size differ only in where their zeros sit. Each is its own memo key:
/// a dense column holds 0.0 both where a representative has the label and
/// where it lacks it, and only the presence bit tells them apart.
TEST(ClassifierMemoTest, ZeroValuedEntriesAtDifferentIdsAreDifferentKeys) {
  Fixture f = fit_small();
  model::FittedModel& m = f.model;
  m.wl.iterations = 0;
  m.wl.iteration_weights = {0.0};
  // Representative k holds every one of 12 labels but a pair of its own.
  constexpr int kLabels = 12;
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < kLabels; ++a) {
    for (int b = a + 1; b < kLabels; ++b) pairs.emplace_back(a, b);
  }
  ASSERT_LE(m.training_jobs(), pairs.size());
  kernel::WlSubtreeFeaturizer training(m.wl);
  std::vector<kernel::LabeledGraph> graphs;
  std::size_t k = 0;
  for (auto& cluster : m.representatives) {
    for (model::Representative& rep : cluster) {
      kernel::LabeledGraph g;
      for (int label = 0; label < kLabels; ++label) {
        if (label != pairs[k].first && label != pairs[k].second) {
          g.labels.push_back(label);
        }
      }
      g.graph = graph::Digraph(static_cast<int>(g.labels.size()), {});
      set_features(rep, training.featurize(g));
      ASSERT_EQ(rep.self_norm, 0.0);
      graphs.push_back(std::move(g));
      ++k;
    }
  }
  m.dictionary = training.signatures();
  const model::Representative* lowest = nullptr;
  for (const auto& cluster : m.representatives) {
    for (const model::Representative& rep : cluster) {
      if (lowest == nullptr || rep.training_index < lowest->training_index) {
        lowest = &rep;
      }
    }
  }

  const Classifier classifier(m);
  const std::uint64_t scans0 = counter("serve.classify.scans");
  const std::uint64_t hits0 = counter("serve.classify.memo_hits");
  for (int pass = 0; pass < 2; ++pass) {
    for (const kernel::LabeledGraph& g : graphs) {
      // Every norm is 0, so every score is +0.0 and the tie goes to the
      // lowest training index.
      const Prediction p = classifier.classify_graph(g);
      EXPECT_EQ(p.oov_hits, 0u);
      EXPECT_EQ(bits(p.similarity), bits(0.0));
      EXPECT_EQ(p.nearest_job, lowest->job_name);
    }
  }
  // One scan per distinct vector on the cold pass, a hit for each on the
  // warm one.
  EXPECT_EQ(counter("serve.classify.scans") - scans0, graphs.size());
  EXPECT_EQ(counter("serve.classify.memo_hits") - hits0, graphs.size());
}

}  // namespace
}  // namespace cwgl::serve

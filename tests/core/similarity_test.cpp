#include "core/similarity.hpp"

#include <gtest/gtest.h>

#include "linalg/eigen.hpp"
#include "util/error.hpp"

namespace cwgl::core {
namespace {

trace::TaskRecord task(std::string name, std::string job) {
  trace::TaskRecord t;
  t.task_name = std::move(name);
  t.job_name = std::move(job);
  t.instance_num = 1;
  t.status = trace::Status::Terminated;
  t.start_time = 100;
  t.end_time = 200;
  t.plan_cpu = 100.0;
  t.plan_mem = 0.5;
  return t;
}

JobDag make_job(const std::vector<std::string>& names, std::string job_name) {
  std::vector<trace::TaskRecord> records;
  for (const auto& n : names) records.push_back(task(n, job_name));
  auto job = build_job_dag(job_name, records);
  EXPECT_TRUE(job.has_value()) << job_name;
  return *job;
}

std::vector<JobDag> corpus() {
  return {
      make_job({"M1", "R2_1"}, "j_a"),
      make_job({"M1", "R2_1"}, "j_b"),               // identical to j_a
      make_job({"M1", "R2_1", "R3_2"}, "j_c"),       // longer chain
      make_job({"M1", "M2", "M3", "R4_3_2_1"}, "j_d"),  // wide fan-in
  };
}

TEST(SimilarityAnalysis, MatrixShapeAndDiagonal) {
  const auto jobs = corpus();
  const auto analysis = SimilarityAnalysis::compute(jobs);
  EXPECT_EQ(analysis.gram.rows(), jobs.size());
  EXPECT_EQ(analysis.job_names.size(), jobs.size());
  EXPECT_EQ(analysis.job_names[0], "j_a");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NEAR(analysis.gram(i, i), 1.0, 1e-12);
  }
}

TEST(SimilarityAnalysis, IdenticalJobsScoreOne) {
  const auto jobs = corpus();
  const auto analysis = SimilarityAnalysis::compute(jobs);
  EXPECT_NEAR(analysis.gram(0, 1), 1.0, 1e-12);
}

TEST(SimilarityAnalysis, StructureOrdersSimilarity) {
  const auto jobs = corpus();
  const auto analysis = SimilarityAnalysis::compute(jobs);
  // From the 3-chain's perspective, the 2-chain (same family) scores higher
  // than the wide fan-in. (The 2-chain itself is too small to prefer either:
  // its single R is locally indistinguishable from a fan's R.)
  EXPECT_GT(analysis.gram(2, 0), analysis.gram(2, 3));
}

TEST(SimilarityAnalysis, MatrixIsPsd) {
  const auto jobs = corpus();
  const auto analysis = SimilarityAnalysis::compute(jobs);
  EXPECT_TRUE(linalg::is_positive_semidefinite(analysis.gram, 1e-7));
}

TEST(SimilarityAnalysis, StatsSmallPairsScoreHigher) {
  const auto jobs = corpus();
  const auto analysis = SimilarityAnalysis::compute(jobs);
  const auto stats = analysis.stats(jobs, /*small_threshold=*/3);
  // Small jobs (sizes 2,2,3) include the identical pair, so their mean must
  // exceed the global mean — the paper's Fig. 7 observation.
  EXPECT_GT(stats.small_pair_mean, stats.mean_offdiag - 1e-12);
  EXPECT_GE(stats.max_offdiag, stats.min_offdiag);
}

TEST(SimilarityAnalysis, StatsSizeMismatchThrows) {
  const auto jobs = corpus();
  const auto analysis = SimilarityAnalysis::compute(jobs);
  const std::vector<JobDag> fewer(jobs.begin(), jobs.begin() + 2);
  EXPECT_THROW(analysis.stats(fewer), util::InvalidArgument);
}

TEST(SimilarityAnalysis, TypeLabelsToggleMatters) {
  // With type labels off, an all-R chain and an M-headed chain tie.
  auto jobs = corpus();
  SimilarityOptions with_labels;
  SimilarityOptions without_labels;
  without_labels.use_type_labels = false;
  const auto labeled = SimilarityAnalysis::compute(jobs, with_labels);
  const auto unlabeled = SimilarityAnalysis::compute(jobs, without_labels);
  // Same shape, different labels: chain2 vs chain2 stays 1 either way,
  // but chain2 vs fan-in differs between modes.
  EXPECT_NE(labeled.gram(2, 3), unlabeled.gram(2, 3));
}

TEST(SimilarityAnalysis, UnnormalizedOptionGivesRawCounts) {
  const auto jobs = corpus();
  SimilarityOptions options;
  options.normalize = false;
  const auto analysis = SimilarityAnalysis::compute(jobs, options);
  // Diagonal of an unnormalized WL gram grows with graph size.
  EXPECT_GT(analysis.gram(3, 3), analysis.gram(0, 0));
}

TEST(SimilarityAnalysis, EmptyCorpus) {
  const auto analysis = SimilarityAnalysis::compute({});
  EXPECT_EQ(analysis.gram.rows(), 0u);
  const auto stats = analysis.stats({});
  EXPECT_EQ(stats.mean_offdiag, 0.0);
}

// The one featurize step: WL over the jobs in order through one fresh
// dictionary, ids dense in first-seen order.
TEST(SimilarityFeaturize, IdsAreDenseInFirstSeenOrder) {
  const auto jobs = corpus();
  const FittedFeatures features = featurize_jobs(jobs, {});
  ASSERT_EQ(features.vectors.size(), jobs.size());
  kernel::WlSubtreeFeaturizer reference(SimilarityOptions{}.wl);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    kernel::LabeledGraph g;
    g.graph = jobs[i].dag;
    g.labels = jobs[i].type_labels();
    EXPECT_EQ(features.vectors[i], reference.featurize(g)) << jobs[i].job_name;
  }
  EXPECT_EQ(features.dictionary, reference.signatures());
  // j_a is featurized first, so its ids are exactly 0..k-1.
  const auto& first = features.vectors[0].items;
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k].first, static_cast<int>(k));
  }
  // j_b repeats j_a: no new signature, the same vector.
  EXPECT_EQ(features.vectors[1], features.vectors[0]);
}

// A pool runs only the dot products, so a pooled run exports the serial
// fitted state and the serial Gram, bit for bit.
TEST(SimilarityAnalysis, ParallelPoolMatchesSequential) {
  const auto jobs = corpus();
  util::ThreadPool pool(3);
  FittedFeatures seq_fitted, par_fitted;
  const auto seq = SimilarityAnalysis::compute(jobs, {}, nullptr, &seq_fitted);
  const auto par = SimilarityAnalysis::compute(jobs, {}, &pool, &par_fitted);
  EXPECT_EQ(seq.gram.max_abs_diff(par.gram), 0.0);
  EXPECT_EQ(par_fitted.vectors, seq_fitted.vectors);
  EXPECT_EQ(par_fitted.dictionary, seq_fitted.dictionary);
  const auto par_unfitted = SimilarityAnalysis::compute(jobs, {}, &pool);
  EXPECT_EQ(par_unfitted.gram.max_abs_diff(seq.gram), 0.0);
}

}  // namespace
}  // namespace cwgl::core

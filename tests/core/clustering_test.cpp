#include "core/clustering.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/similarity.hpp"
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

/// 8 chains + 4 fan-ins: two clearly separable structural families of
/// unequal population, so group relabeling is testable.
std::vector<JobDag> two_family_corpus() {
  std::vector<JobDag> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(make_job({"M1", "R2_1", "R3_2"}, "j_chain" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        make_job({"M1", "M2", "M3", "M4", "R5_4_3_2_1"}, "j_fan" + std::to_string(i)));
  }
  return jobs;
}

TEST(ClusteringAnalysis, SeparatesStructuralFamilies) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim.gram, jobs, options);
  // All chains together, all fans together.
  for (int i = 1; i < 8; ++i) EXPECT_EQ(analysis.labels[i], analysis.labels[0]);
  for (int i = 9; i < 12; ++i) EXPECT_EQ(analysis.labels[i], analysis.labels[8]);
  EXPECT_NE(analysis.labels[0], analysis.labels[8]);
}

TEST(ClusteringAnalysis, GroupZeroIsLargest) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim.gram, jobs, options);
  // Relabeling: group A (=0) must be the 8-chain family.
  EXPECT_EQ(analysis.labels[0], 0);
  EXPECT_EQ(analysis.groups[0].population, 8u);
  EXPECT_EQ(analysis.groups[1].population, 4u);
  EXPECT_EQ(analysis.groups[0].letter(), 'A');
  EXPECT_EQ(analysis.groups[1].letter(), 'B');
  EXPECT_NEAR(analysis.groups[0].population_fraction, 8.0 / 12.0, 1e-12);
}

TEST(ClusteringAnalysis, GroupStatsReflectMembers) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim.gram, jobs, options);
  const auto& chains = analysis.groups[0];
  EXPECT_DOUBLE_EQ(chains.size.mean, 3.0);
  EXPECT_DOUBLE_EQ(chains.critical_path.mean, 3.0);
  EXPECT_DOUBLE_EQ(chains.parallelism.mean, 1.0);
  EXPECT_DOUBLE_EQ(chains.chain_fraction, 1.0);
  const auto& fans = analysis.groups[1];
  EXPECT_DOUBLE_EQ(fans.size.mean, 5.0);
  EXPECT_DOUBLE_EQ(fans.critical_path.mean, 2.0);
  EXPECT_DOUBLE_EQ(fans.parallelism.mean, 4.0);
  EXPECT_DOUBLE_EQ(fans.chain_fraction, 0.0);
}

TEST(ClusteringAnalysis, MedoidBelongsToItsGroup) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim.gram, jobs, options);
  for (const auto& g : analysis.groups) {
    EXPECT_EQ(analysis.labels[g.medoid], g.group);
  }
}

TEST(ClusteringAnalysis, SilhouettePositiveForSeparableFamilies) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim.gram, jobs, options);
  EXPECT_GT(analysis.silhouette, 0.5);
}

TEST(ClusteringAnalysis, DeterministicForSeed) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  options.seed = 77;
  const auto a = ClusteringAnalysis::compute(sim.gram, jobs, options);
  const auto b = ClusteringAnalysis::compute(sim.gram, jobs, options);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(ClusteringAnalysis, SizeMismatchThrows) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  const std::vector<JobDag> fewer(jobs.begin(), jobs.begin() + 3);
  EXPECT_THROW(ClusteringAnalysis::compute(sim.gram, fewer, {}),
               util::InvalidArgument);
}

TEST(ClusteringAnalysis, MedoidTiesKeepTheEarliestJob) {
  // Two disconnected pairs: both members of a pair are equally central, so
  // the medoid is the pair's first job. A centrality that subtracted the
  // self similarity and added it back would give the second job
  // (-1 + 0.3) + 1, which rounds above 0.3, and hand it the tie.
  const auto jobs = two_family_corpus();
  const std::vector<JobDag> pairs(jobs.begin(), jobs.begin() + 4);
  linalg::Matrix sim(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      sim(i, j) = i == j ? 1.0 : (i / 2 == j / 2 ? 0.3 : 0.0);
    }
  }
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim, pairs, options);
  ASSERT_EQ(analysis.groups.size(), 2u);
  EXPECT_EQ(analysis.labels[0], analysis.labels[1]);
  EXPECT_EQ(analysis.labels[2], analysis.labels[3]);
  EXPECT_EQ(analysis.groups[analysis.labels[0]].medoid, 0u);
  EXPECT_EQ(analysis.groups[analysis.labels[2]].medoid, 2u);
}

TEST(ClusteringAnalysis, ItemMapMismatchThrows) {
  const auto jobs = two_family_corpus();
  const auto sim = SimilarityAnalysis::compute(jobs);
  std::vector<std::uint32_t> identity(jobs.size());
  std::iota(identity.begin(), identity.end(), 0u);
  const std::vector<std::uint32_t> one_short(identity.begin(),
                                             identity.end() - 1);
  EXPECT_THROW(ClusteringAnalysis::compute(sim.gram, jobs, {}, one_short),
               util::InvalidArgument);
  std::vector<std::uint32_t> out_of_range = identity;
  out_of_range.back() = static_cast<std::uint32_t>(jobs.size());
  EXPECT_THROW(ClusteringAnalysis::compute(sim.gram, jobs, {}, out_of_range),
               util::InvalidArgument);
  std::vector<std::uint32_t> item_without_job = identity;
  item_without_job[1] = 0;
  EXPECT_THROW(
      ClusteringAnalysis::compute(sim.gram, jobs, {}, item_without_job),
      util::InvalidArgument);
}

TEST(ClusteringAnalysis, ItemsStandForTheirJobs) {
  // The two families as two items: chains are item 0, fans item 1. Five
  // clusters clamp to the two items, and the per-job analysis equals the
  // run on the 12 x 12 kernel.
  const auto jobs = two_family_corpus();
  const std::vector<JobDag> items{jobs[0], jobs[8]};
  std::vector<std::uint32_t> item_of(jobs.size(), 0);
  for (std::size_t i = 8; i < jobs.size(); ++i) item_of[i] = 1;
  ClusteringOptions options;
  options.clusters = 5;
  const auto mapped = ClusteringAnalysis::compute(
      SimilarityAnalysis::compute(items).gram, jobs, options, item_of);
  options.clusters = 2;
  const auto per_job = ClusteringAnalysis::compute(
      SimilarityAnalysis::compute(jobs).gram, jobs, options);
  ASSERT_EQ(mapped.groups.size(), 2u);
  EXPECT_EQ(mapped.labels, per_job.labels);
  EXPECT_EQ(mapped.groups[0].population, 8u);
  EXPECT_EQ(mapped.groups[0].size.mean, per_job.groups[0].size.mean);
  EXPECT_EQ(mapped.groups[0].medoid, 0u);
  EXPECT_EQ(mapped.groups[1].medoid, 8u);
  EXPECT_EQ(mapped.eigenvalues.size(), jobs.size());
  EXPECT_EQ(mapped.suggested_k, per_job.suggested_k);
  EXPECT_NEAR(mapped.silhouette, per_job.silhouette, 1e-12);
}

TEST(RelabelByMass, LargestMassFirstTiesToLowerRawId) {
  const std::vector<int> raw{0, 1, 2, 2, 1};
  // One job per item: raw ids 1 and 2 tie at two jobs, raw 0 holds one.
  EXPECT_EQ(relabel_by_mass(raw), (std::vector<int>{2, 0, 1, 1, 0}));
  // Counts decide the order: raw 0 now stands for five jobs.
  const std::vector<std::uint64_t> counts{5, 1, 1, 1, 1};
  EXPECT_EQ(relabel_by_mass(raw, counts), (std::vector<int>{0, 1, 2, 2, 1}));
  const std::vector<std::uint64_t> short_counts{5, 1};
  EXPECT_THROW(relabel_by_mass(raw, short_counts), util::InvalidArgument);
}

TEST(GroupStatistics, CountsWeighEveryStatistic) {
  const std::vector<JobDag> items{make_job({"M1", "R2_1"}, "j_short"),
                                  make_job({"M1", "M2", "R3_2_1"}, "j_fan")};
  const std::vector<int> labels{0, 0};
  const std::vector<std::uint64_t> counts{3, 1};
  const auto groups = group_statistics(items, labels, 2, counts);
  ASSERT_EQ(groups.size(), 2u);
  // Group 0 is the expanded sample {2, 2, 2, 3} tasks.
  EXPECT_EQ(groups[0].population, 4u);
  EXPECT_DOUBLE_EQ(groups[0].population_fraction, 1.0);
  EXPECT_EQ(groups[0].size.count, 4u);
  EXPECT_DOUBLE_EQ(groups[0].size.mean, 2.25);
  EXPECT_DOUBLE_EQ(groups[0].size.median, 2.0);
  EXPECT_DOUBLE_EQ(groups[0].short_job_fraction, 0.75);
  EXPECT_DOUBLE_EQ(groups[0].chain_fraction, 0.75);
  EXPECT_EQ(groups[1].group, 1);
  EXPECT_EQ(groups[1].population, 0u);
}

TEST(ClusterGroupStats, ShortJobFraction) {
  std::vector<JobDag> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job({"M1", "R2_1"}, "j_s" + std::to_string(i)));
  }
  jobs.push_back(make_job({"M1", "R2_1", "R3_2"}, "j_l"));
  const auto sim = SimilarityAnalysis::compute(jobs);
  ClusteringOptions options;
  options.clusters = 2;
  const auto analysis = ClusteringAnalysis::compute(sim.gram, jobs, options);
  // Group A holds the four 2-task jobs (all "short": < 3 tasks).
  EXPECT_EQ(analysis.groups[0].population, 4u);
  EXPECT_DOUBLE_EQ(analysis.groups[0].short_job_fraction, 1.0);
  EXPECT_DOUBLE_EQ(analysis.groups[1].short_job_fraction, 0.0);
}

}  // namespace
}  // namespace cwgl::core

#include "core/characterization.hpp"

#include <gtest/gtest.h>

#include "trace/generator.hpp"
#include "trace/taskname.hpp"

namespace cwgl::core {
namespace {

trace::TaskRecord task(std::string name, std::string job = "j_1") {
  trace::TaskRecord t;
  t.task_name = std::move(name);
  t.job_name = std::move(job);
  t.instance_num = 2;
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

std::vector<JobDag> tiny_corpus() {
  return {
      make_job({"M1", "R2_1"}, "j_chain2"),
      make_job({"M1", "R2_1", "R3_2"}, "j_chain3"),
      make_job({"M1", "M2", "R3_2_1"}, "j_tri"),
      make_job({"M1", "M2", "M3", "R4_3_2_1"}, "j_tri4"),
      make_job({"M1", "J2_1", "R3_2"}, "j_join"),
  };
}

TEST(StructuralReport, GroupsAndHistogramConsistent) {
  const auto jobs = tiny_corpus();
  const auto report = StructuralReport::compute(jobs);
  EXPECT_EQ(report.size_histogram.total(), jobs.size());
  EXPECT_EQ(report.distinct_sizes, 3u);  // sizes 2, 3, 4
  ASSERT_EQ(report.groups.size(), 3u);
  EXPECT_EQ(report.groups[0].size, 2);
  EXPECT_EQ(report.groups[0].count, 1u);
  EXPECT_EQ(report.groups[1].size, 3);
  EXPECT_EQ(report.groups[1].count, 3u);
  EXPECT_EQ(report.groups[2].size, 4);
}

TEST(StructuralReport, MaxFeaturesPerGroup) {
  const auto jobs = tiny_corpus();
  const auto report = StructuralReport::compute(jobs);
  // Size-3 group contains chain3 (cp 3, width 1), tri (cp 2, width 2),
  // join (cp 3, width 1): maxima are cp 3, width 2.
  EXPECT_EQ(report.groups[1].max_critical_path, 3);
  EXPECT_EQ(report.groups[1].max_width, 2);
  // Size-4 group: tri4 has cp 2, width 3.
  EXPECT_EQ(report.groups[2].max_critical_path, 2);
  EXPECT_EQ(report.groups[2].max_width, 3);
}

TEST(StructuralReport, EmptyInput) {
  const auto report = StructuralReport::compute({});
  EXPECT_EQ(report.distinct_sizes, 0u);
  EXPECT_TRUE(report.groups.empty());
}

TEST(ConflationReport, TriangleShrinksChainDoesNot) {
  const auto jobs = tiny_corpus();
  const auto report = ConflationReport::compute(jobs);
  EXPECT_EQ(report.before.total(), jobs.size());
  EXPECT_EQ(report.after.total(), jobs.size());
  // j_tri (3 tasks) and j_tri4 (4 tasks) collapse to 2; chains unchanged.
  EXPECT_EQ(report.before.count(2), 1u);
  EXPECT_EQ(report.after.count(2), 3u);
  EXPECT_EQ(report.after.count(4), 0u);
  EXPECT_GT(report.mean_reduction, 1.0);
}

TEST(ConflationReport, SmallerJobsRatioIncreasesAfterMerge) {
  // The paper's Fig. 3 observation: the ratio of small jobs rises.
  const auto jobs = tiny_corpus();
  const auto report = ConflationReport::compute(jobs);
  EXPECT_GT(report.after.fraction(2), report.before.fraction(2));
}

TEST(TaskTypeReport, CountsPerJob) {
  const auto jobs = tiny_corpus();
  const auto report = TaskTypeReport::compute(jobs);
  ASSERT_EQ(report.rows.size(), jobs.size());
  const auto& tri = report.rows[2];
  EXPECT_EQ(tri.m_tasks, 2);
  EXPECT_EQ(tri.r_tasks, 1);
  EXPECT_EQ(tri.j_tasks, 0);
  const auto& join = report.rows[4];
  EXPECT_EQ(join.j_tasks, 1);
}

TEST(TaskTypeReport, ModelInference) {
  const auto jobs = tiny_corpus();
  const auto report = TaskTypeReport::compute(jobs);
  EXPECT_EQ(report.rows[0].model, "map-reduce");            // 2-chain, cp 2
  EXPECT_EQ(report.rows[1].model, "multi-stage map-reduce");  // 3-chain, cp 3
  EXPECT_EQ(report.rows[2].model, "map-reduce");            // triangle, cp 2
  EXPECT_EQ(report.rows[4].model, "map-join-reduce");       // has a J task
  EXPECT_EQ(report.map_join_reduce_jobs, 1u);
  EXPECT_EQ(report.map_reduce_jobs, 3u);
  EXPECT_EQ(report.multi_stage_jobs, 1u);
}

TEST(TaskTypeReport, MergeStageDetected) {
  // M3 consumes R2's output: the Map-Reduce-Merge mode (Section V-C).
  const std::vector<JobDag> jobs{make_job({"M1", "R2_1", "M3_2"}, "j_merge")};
  const auto report = TaskTypeReport::compute(jobs);
  EXPECT_EQ(report.rows[0].model, "map-reduce-merge");
  EXPECT_EQ(report.map_reduce_merge_jobs, 1u);
}

TEST(TaskTypeReport, JoinTakesPrecedenceOverMerge) {
  // A job with both a Join stage and an M-after-R stage reads as
  // map-join-reduce (the join is the more distinctive phase).
  const std::vector<JobDag> jobs{
      make_job({"M1", "M2", "J3_2_1", "R4_3", "M5_4"}, "j_both")};
  const auto report = TaskTypeReport::compute(jobs);
  EXPECT_EQ(report.rows[0].model, "map-join-reduce");
}

TEST(TaskTypeReport, GeneratedWorkloadContainsMergeJobs) {
  trace::GeneratorConfig cfg;
  cfg.seed = 55;
  cfg.num_jobs = 3000;
  cfg.emit_instances = false;
  const auto generated = trace::TraceGenerator(cfg).generate_jobs();
  std::vector<JobDag> jobs;
  for (const auto& g : generated) {
    if (!g.is_dag) continue;
    if (auto job = build_job_dag(g.job_name, g.tasks)) jobs.push_back(*job);
  }
  const auto report = TaskTypeReport::compute(jobs);
  EXPECT_GT(report.map_reduce_merge_jobs, 10u);
  // Still a minority mode, as in the paper.
  EXPECT_LT(report.map_reduce_merge_jobs, report.map_reduce_jobs);
}

TEST(PatternCensus, CountsAndFractions) {
  const auto jobs = tiny_corpus();
  const auto census = PatternCensus::compute(jobs);
  EXPECT_EQ(census.total, jobs.size());
  EXPECT_DOUBLE_EQ(census.fraction(graph::ShapePattern::StraightChain),
                   3.0 / 5.0);
  EXPECT_DOUBLE_EQ(census.fraction(graph::ShapePattern::InvertedTriangle),
                   2.0 / 5.0);
  EXPECT_DOUBLE_EQ(census.fraction(graph::ShapePattern::Diamond), 0.0);
  // Rows sorted descending by count.
  ASSERT_GE(census.rows.size(), 2u);
  EXPECT_GE(census.rows[0].count, census.rows[1].count);
}

TEST(PatternCensus, GeneratedWorkloadMatchesPaperFrequencies) {
  trace::GeneratorConfig cfg;
  cfg.seed = 21;
  cfg.num_jobs = 4000;
  cfg.emit_instances = false;
  const auto generated = trace::TraceGenerator(cfg).generate_jobs();
  std::vector<JobDag> jobs;
  for (const auto& g : generated) {
    if (!g.is_dag) continue;
    if (auto job = build_job_dag(g.job_name, g.tasks)) {
      jobs.push_back(std::move(*job));
    }
  }
  const auto census = PatternCensus::compute(jobs);
  // Paper: 58% straight chains, 37% inverted triangles.
  EXPECT_NEAR(census.fraction(graph::ShapePattern::StraightChain), 0.58, 0.08);
  EXPECT_NEAR(census.fraction(graph::ShapePattern::InvertedTriangle), 0.37,
              0.08);
}

TEST(TraceCensus, MatchesPaperSectionIIB) {
  trace::GeneratorConfig cfg;
  cfg.seed = 31;
  cfg.num_jobs = 4000;
  cfg.emit_instances = false;
  const auto trace_data = trace::TraceGenerator(cfg).generate();
  const auto census = TraceCensus::compute(trace_data);
  EXPECT_EQ(census.total_jobs, cfg.num_jobs);
  // ~50% of batch jobs have dependencies...
  EXPECT_NEAR(census.dag_job_fraction, 0.5, 0.05);
  // ...and they consume 70-80% of batch resources.
  EXPECT_GT(census.dag_resource_fraction, 0.65);
  EXPECT_LT(census.dag_resource_fraction, 0.85);
}

TEST(TraceCensus, EmptyTrace) {
  const auto census = TraceCensus::compute(trace::Trace{});
  EXPECT_EQ(census.total_jobs, 0u);
  EXPECT_EQ(census.dag_job_fraction, 0.0);
}

}  // namespace
}  // namespace cwgl::core

#include "core/job_dag.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/ingest_oracle.hpp"

namespace cwgl::core {
namespace {

trace::TaskRecord task(std::string name, int instances = 2,
                       std::int64_t start = 100, std::int64_t end = 200) {
  trace::TaskRecord t;
  t.task_name = std::move(name);
  t.job_name = "j_1";
  t.instance_num = instances;
  t.status = trace::Status::Terminated;
  t.start_time = start;
  t.end_time = end;
  t.plan_cpu = 100.0;
  t.plan_mem = 0.5;
  return t;
}

TEST(BuildJobDag, PaperExampleJob1001388) {
  // M1, M3, R2_1, R4_3, R5_4_3_2_1 (Fig. 8a).
  const std::vector<trace::TaskRecord> tasks{
      task("M1"), task("M3"), task("R2_1"), task("R4_3"), task("R5_4_3_2_1")};
  const auto job = build_job_dag("j_1001388", tasks);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->size(), 5);
  // Vertices follow record order: 0=M1, 1=M3, 2=R2, 3=R4, 4=R5.
  EXPECT_TRUE(job->dag.has_edge(0, 2));  // R2 <- M1
  EXPECT_TRUE(job->dag.has_edge(1, 3));  // R4 <- M3
  EXPECT_TRUE(job->dag.has_edge(2, 4));  // R5 <- R2
  EXPECT_TRUE(job->dag.has_edge(3, 4));  // R5 <- R4
  EXPECT_TRUE(job->dag.has_edge(0, 4));  // R5 <- M1 (explicit transitive dep)
  EXPECT_TRUE(job->dag.has_edge(1, 4));  // R5 <- M3
  EXPECT_EQ(graph::critical_path_length(job->dag), 3);
  EXPECT_EQ(job->tasks[0].type, 'M');
  EXPECT_EQ(job->tasks[2].type, 'R');
  EXPECT_EQ(job->tasks[4].index, 5);
}

TEST(BuildJobDag, MetadataCarriedThrough) {
  const std::vector<trace::TaskRecord> tasks{task("M1", 7, 50, 90),
                                             task("R2_1", 3, 95, 120)};
  const auto job = build_job_dag("j_2", tasks);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->tasks[0].instance_num, 7);
  EXPECT_EQ(job->tasks[0].start_time, 50);
  EXPECT_EQ(job->tasks[0].duration(), 40);
  EXPECT_EQ(job->tasks[1].duration(), 25);
  EXPECT_DOUBLE_EQ(job->tasks[0].plan_cpu, 100.0);
}

TEST(BuildJobDag, NonDagNameRejected) {
  std::vector<BuildIssue> issues;
  const std::vector<trace::TaskRecord> tasks{task("M1"), task("task_opaque")};
  EXPECT_FALSE(build_job_dag("j_3", tasks, &issues).has_value());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("task_opaque"), std::string::npos);
}

TEST(BuildJobDag, MissingDependencyRejected) {
  std::vector<BuildIssue> issues;
  const std::vector<trace::TaskRecord> tasks{task("M1"), task("R3_2")};
  EXPECT_FALSE(build_job_dag("j_4", tasks, &issues).has_value());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("missing index"), std::string::npos);
}

TEST(BuildJobDag, DuplicateIndexRejected) {
  std::vector<BuildIssue> issues;
  const std::vector<trace::TaskRecord> tasks{task("M1"), task("R1")};
  EXPECT_FALSE(build_job_dag("j_5", tasks, &issues).has_value());
  EXPECT_EQ(issues.size(), 1u);
}

TEST(BuildJobDag, CyclicNamesRejected) {
  std::vector<BuildIssue> issues;
  const std::vector<trace::TaskRecord> tasks{task("M1_2"), task("R2_1")};
  EXPECT_FALSE(build_job_dag("j_6", tasks, &issues).has_value());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("cycle"), std::string::npos);
}

TEST(BuildJobDag, EmptyJobRejected) {
  EXPECT_FALSE(build_job_dag("j_7", {}).has_value());
}

TEST(BuildJobDag, IssuesOptional) {
  const std::vector<trace::TaskRecord> tasks{task("task_x")};
  EXPECT_FALSE(build_job_dag("j_8", tasks, nullptr).has_value());
}

TEST(JobDag, TypeLabelsAndNames) {
  const std::vector<trace::TaskRecord> tasks{task("M1"), task("J2_1"),
                                             task("R3_2")};
  const auto job = build_job_dag("j_9", tasks);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->type_labels(), (std::vector<int>{'M', 'J', 'R'}));
  EXPECT_EQ(job->vertex_names(),
            (std::vector<std::string>{"M1", "J2_1", "R3_2"}));
  const auto labeled = job->to_labeled();
  EXPECT_EQ(labeled.graph, job->dag);
  EXPECT_EQ(labeled.labels, job->type_labels());
}

TEST(ConflateJob, MergesCloneSiblingsAndAggregates) {
  // Four M clones feeding one R.
  const std::vector<trace::TaskRecord> tasks{
      task("M1", 2, 100, 150), task("M2", 3, 105, 160), task("M3", 4, 110, 170),
      task("M4", 5, 100, 140), task("R5_4_3_2_1", 6, 175, 200)};
  const auto job = build_job_dag("j_10", tasks);
  ASSERT_TRUE(job.has_value());
  const JobDag merged = conflate_job(*job);
  ASSERT_EQ(merged.size(), 2);
  EXPECT_EQ(merged.tasks[0].type, 'M');
  EXPECT_EQ(merged.tasks[0].instance_num, 2 + 3 + 4 + 5);
  EXPECT_DOUBLE_EQ(merged.tasks[0].plan_cpu, 400.0);
  EXPECT_EQ(merged.tasks[0].start_time, 100);  // earliest
  EXPECT_EQ(merged.tasks[0].end_time, 170);    // latest
  EXPECT_EQ(merged.tasks[1].type, 'R');
  EXPECT_EQ(merged.tasks[1].instance_num, 6);
}

TEST(ConflateJob, ChainUnchanged) {
  const std::vector<trace::TaskRecord> tasks{task("M1"), task("R2_1"),
                                             task("R3_2")};
  const auto job = build_job_dag("j_11", tasks);
  ASSERT_TRUE(job.has_value());
  const JobDag merged = conflate_job(*job);
  EXPECT_EQ(merged.size(), 3);
  EXPECT_EQ(merged.dag, job->dag);
}

TEST(ConflateJob, TypeDistinctionPreserved) {
  // Two parents of the sink with different types must not merge.
  const std::vector<trace::TaskRecord> tasks{task("M1"), task("J2"),
                                             task("R3_2_1")};
  const auto job = build_job_dag("j_12", tasks);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(conflate_job(*job).size(), 3);
}

/// A random job of up to 7 rows: DAG names with duplicate indices,
/// missing, repeated and cyclic dependencies, now and then a name outside
/// the grammar, a failed task or an unusable time.
std::vector<trace::TaskRecord> random_job(std::mt19937_64& rng) {
  std::vector<trace::TaskRecord> rows;
  const int n = static_cast<int>(rng() % 8);
  for (int i = 1; i <= n; ++i) {
    std::string name;
    if (rng() % 23 == 0) {
      name = "task_x" + std::to_string(i);
    } else {
      name = std::string(1, "MRJ"[rng() % 3]);
      name += std::to_string(rng() % 9 == 0 ? 1 + static_cast<int>(rng() % n)
                                            : i);
      const int deps = static_cast<int>(rng() % 4);
      for (int d = 0; d < deps; ++d) {
        name += "_" + std::to_string(1 + static_cast<int>(rng() % (n + 1)));
      }
    }
    trace::TaskRecord t = task(name, 1 + static_cast<int>(rng() % 3));
    if (rng() % 17 == 0) t.status = trace::Status::Failed;
    if (rng() % 19 == 0) t.start_time = 0;
    rows.push_back(std::move(t));
  }
  return rows;
}

void expect_same_result(const std::optional<JobDag>& a,
                        const std::vector<BuildIssue>& a_issues,
                        const std::optional<JobDag>& b,
                        const std::vector<BuildIssue>& b_issues) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) {
    EXPECT_EQ(a->job_name, b->job_name);
    EXPECT_EQ(a->dag, b->dag);
    ASSERT_EQ(a->tasks.size(), b->tasks.size());
    for (std::size_t i = 0; i < a->tasks.size(); ++i) {
      EXPECT_EQ(a->tasks[i].name, b->tasks[i].name);
      EXPECT_EQ(a->tasks[i].type, b->tasks[i].type);
      EXPECT_EQ(a->tasks[i].index, b->tasks[i].index);
      EXPECT_EQ(a->tasks[i].instance_num, b->tasks[i].instance_num);
    }
  }
  ASSERT_EQ(a_issues.size(), b_issues.size());
  for (std::size_t i = 0; i < a_issues.size(); ++i) {
    EXPECT_EQ(a_issues[i].job_name, b_issues[i].job_name);
    EXPECT_EQ(a_issues[i].message, b_issues[i].message);
    EXPECT_EQ(a_issues[i].kind, b_issues[i].kind);
  }
}

// The one-pass build returns what the two-pass build it replaced returned:
// the same DAG or the same issue, kind and message, on thousands of random
// jobs; with criteria, the same eligibility too.
TEST(BuildJobDag, OnePassMatchesTheTwoPassBuild) {
  std::mt19937_64 rng(2026);
  std::size_t built = 0;
  std::size_t kinds[5] = {};
  for (int round = 0; round < 5000; ++round) {
    const std::vector<trace::TaskRecord> rows = random_job(rng);
    std::vector<BuildIssue> issues;
    std::vector<BuildIssue> expected_issues;
    const auto dag = build_job_dag("j_r", rows, &issues);
    const auto expected = oracle::build_job_dag("j_r", rows, &expected_issues);
    expect_same_result(dag, issues, expected, expected_issues);
    built += dag.has_value();
    for (const BuildIssue& issue : issues) ++kinds[static_cast<int>(issue.kind)];

    trace::SamplingCriteria criteria;
    criteria.require_dag = rng() % 3 != 0;
    criteria.require_integrity = rng() % 2 == 0;
    criteria.require_availability = rng() % 2 == 0;
    criteria.min_tasks = static_cast<int>(rng() % 3);
    bool eligible = false;
    std::vector<BuildIssue> eligible_issues;
    std::optional<JobDag> filtered;
    if (passes_row_criteria(rows, criteria)) {
      filtered = build_eligible_dag("j_r", rows, criteria, eligible,
                                    &eligible_issues);
    }
    const bool expected_eligible = oracle::passes_criteria(rows, criteria);
    ASSERT_EQ(eligible, expected_eligible) << "round " << round;
    if (eligible) {
      expect_same_result(filtered, eligible_issues, expected, expected_issues);
    } else {
      EXPECT_FALSE(filtered.has_value());
      EXPECT_TRUE(eligible_issues.empty());
    }
  }
  // Every outcome showed up.
  EXPECT_GT(built, 100u);
  for (const std::size_t count : kinds) EXPECT_GT(count, 10u);
}

}  // namespace
}  // namespace cwgl::core

// End-to-end integration: synthetic trace -> disk -> reload -> filters ->
// pipeline -> scheduling, asserting the cross-module invariants that the
// unit tests can only check in isolation.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "core/pipeline.hpp"
#include "core/topology_census.hpp"
#include "linalg/eigen.hpp"
#include "sched/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

namespace cwgl {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace::GeneratorConfig cfg;
    cfg.seed = 2026;
    cfg.num_jobs = 2500;
    cfg.emit_instances = true;
    trace_ = new trace::Trace(trace::TraceGenerator(cfg).generate());
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static const trace::Trace& trace() { return *trace_; }

 private:
  static trace::Trace* trace_;
};

trace::Trace* EndToEnd::trace_ = nullptr;

TEST_F(EndToEnd, DiskRoundTripPreservesPipelineResults) {
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_e2e";
  std::filesystem::remove_all(dir);
  trace::write_trace(trace(), dir);
  std::size_t skipped = 0;
  const trace::Trace reloaded = trace::read_trace(dir, &skipped);
  EXPECT_EQ(skipped, 0u);

  core::PipelineConfig cfg;
  cfg.sample_size = 50;
  const core::CharacterizationPipeline pipeline(cfg);
  const auto direct = pipeline.run(trace());
  const auto from_disk = pipeline.run(reloaded);

  // Every analysis must be bit-identical across the round trip.
  EXPECT_EQ(direct.census.dag_jobs, from_disk.census.dag_jobs);
  EXPECT_EQ(direct.sample.size(), from_disk.sample.size());
  for (std::size_t i = 0; i < direct.sample.size(); ++i) {
    EXPECT_EQ(direct.sample[i].job_name, from_disk.sample[i].job_name);
    EXPECT_EQ(direct.sample[i].dag, from_disk.sample[i].dag);
  }
  EXPECT_EQ(direct.similarity.gram, from_disk.similarity.gram);
  EXPECT_EQ(direct.clustering.labels, from_disk.clustering.labels);
  std::filesystem::remove_all(dir);
}

TEST_F(EndToEnd, StreamingGroupsMatchIndexGroups) {
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_e2e_stream";
  std::filesystem::remove_all(dir);
  trace::write_trace(trace(), dir);

  const trace::TraceIndex index(trace());
  std::ifstream in(dir / "batch_task.csv");
  ASSERT_TRUE(in.is_open());
  std::size_t groups = 0;
  const auto stats = trace::consume_jobs_in_task_csv(
      in, [&](const std::string& job, const std::vector<trace::TaskRecord>& tasks) {
        EXPECT_EQ(index.jobs()[groups].job_name, job);
        EXPECT_EQ(index.jobs()[groups].tasks.size(), tasks.size());
        ++groups;
        return true;
      });
  EXPECT_EQ(groups, index.jobs().size());
  EXPECT_EQ(stats.fragmented, 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(EndToEnd, PipelineInvariantsHold) {
  core::PipelineConfig cfg;
  cfg.sample_size = 80;
  const auto result = core::CharacterizationPipeline(cfg).run(trace());

  // Gram matrix is a valid normalized kernel over the sample.
  EXPECT_TRUE(result.similarity.gram.is_symmetric(1e-12));
  EXPECT_TRUE(linalg::is_positive_semidefinite(result.similarity.gram, 1e-7));
  for (std::size_t i = 0; i < result.similarity.gram.rows(); ++i) {
    EXPECT_NEAR(result.similarity.gram(i, i), 1.0, 1e-12);
  }

  // Cluster labels cover exactly k groups with consistent stats.
  std::set<int> labels(result.clustering.labels.begin(),
                       result.clustering.labels.end());
  EXPECT_LE(static_cast<int>(labels.size()), cfg.clustering.clusters);
  std::size_t pop = 0;
  for (const auto& g : result.clustering.groups) pop += g.population;
  EXPECT_EQ(pop, result.sample.size());

  // Structural figures agree with the sample.
  EXPECT_EQ(result.structure_before.size_histogram.total(), result.sample.size());
  EXPECT_EQ(result.task_types.rows.size(), result.sample.size());

  // Conflation can only shrink and recurs more in small jobs.
  const auto census = core::TopologyCensus::compute(result.sample);
  EXPECT_LE(census.distinct_topologies, census.total_jobs);
}

TEST_F(EndToEnd, CharacterizationDrivesSimulatorWithoutContradiction) {
  core::PipelineConfig cfg;
  cfg.sample_size = 60;
  cfg.sampling = core::SamplingMode::Natural;
  const core::CharacterizationPipeline pipeline(cfg);
  const auto sample = pipeline.build_sample(trace());
  const auto similarity = core::SimilarityAnalysis::compute(sample);
  const auto clustering =
      core::ClusteringAnalysis::compute(similarity.gram, sample, {});

  auto jobs = sched::jobs_from_dags(sample, 1.0);
  sched::attach_hints(jobs, clustering.labels);
  const auto profiles =
      sched::profiles_from_groups(sample, clustering.labels, 5);

  sched::SimulatorConfig sim_cfg;
  sim_cfg.machines = 4;
  const sched::Simulator sim(sim_cfg);
  const sched::FifoPolicy fifo;
  const sched::GroupHintPolicy hint;
  const auto fifo_result = sim.run(jobs, fifo, profiles);
  const auto hint_result = sim.run(jobs, hint, profiles);

  // Both policies execute the whole workload and respect global bounds.
  std::size_t total_tasks = 0;
  for (const auto& j : jobs) total_tasks += j.tasks.size();
  EXPECT_EQ(fifo_result.tasks_executed, total_tasks);
  EXPECT_EQ(hint_result.tasks_executed, total_tasks);
  EXPECT_GT(fifo_result.makespan, 0.0);
  EXPECT_LE(fifo_result.mean_utilization, 1.0 + 1e-9);
  EXPECT_LE(hint_result.mean_utilization, 1.0 + 1e-9);
  // Work-conserving single-queue policies: identical total work, so
  // makespans stay within a factor of each other's ballpark.
  EXPECT_GT(hint_result.makespan, 0.5 * fifo_result.makespan);
  EXPECT_LT(hint_result.makespan, 2.0 * fifo_result.makespan);
}

}  // namespace
}  // namespace cwgl

#include "core/ingest.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/pipeline.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

trace::Trace make_trace(std::size_t jobs, std::uint64_t seed = 42) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

std::string task_csv(const trace::Trace& data) {
  std::ostringstream out;
  trace::write_batch_task_csv(out, data.tasks);
  return out.str();
}

void expect_same_jobs(const std::vector<JobDag>& a,
                      const std::vector<JobDag>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_name, b[i].job_name);
    EXPECT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(a[i].dag.edges(), b[i].dag.edges());
    EXPECT_EQ(a[i].type_labels(), b[i].type_labels());
  }
}

TEST(StreamDagJobs, SerialMatchesInMemoryBuild) {
  const trace::Trace data = make_trace(400);
  const auto expected = build_all_dag_jobs(data, trace::SamplingCriteria{});
  std::istringstream in(task_csv(data));
  IngestStats stats;
  const auto streamed = stream_dag_jobs(in, {}, nullptr, &stats);
  expect_same_jobs(streamed, expected);
  EXPECT_EQ(stats.dags, streamed.size());
  EXPECT_EQ(stats.eligible, streamed.size());
  EXPECT_EQ(stats.stream.rows, data.tasks.size());
  EXPECT_EQ(stats.stream.malformed, 0u);
  EXPECT_EQ(stats.stream.fragmented, 0u);
}

TEST(StreamDagJobs, PooledMatchesSerialIncludingOrder) {
  const trace::Trace data = make_trace(600, 7);
  const std::string csv = task_csv(data);

  std::istringstream serial_in(csv);
  IngestStats serial_stats;
  const auto serial = stream_dag_jobs(serial_in, {}, nullptr, &serial_stats);

  util::ThreadPool pool(4);
  // Small batches and queues make many hand-offs and reorderings, and keep
  // the reader refilling spent batches while workers still hold others.
  for (const std::size_t batch_jobs : {1u, 3u, 64u}) {
    for (const std::size_t queue_capacity : {1u, 2u, 64u}) {
      SCOPED_TRACE("batch_jobs " + std::to_string(batch_jobs) +
                   ", queue_capacity " + std::to_string(queue_capacity));
      IngestOptions options;
      options.batch_jobs = batch_jobs;
      options.queue_capacity = queue_capacity;
      std::istringstream pooled_in(csv);
      IngestStats pooled_stats;
      const auto pooled =
          stream_dag_jobs(pooled_in, options, &pool, &pooled_stats);

      expect_same_jobs(pooled, serial);
      EXPECT_EQ(pooled_stats.eligible, serial_stats.eligible);
      EXPECT_EQ(pooled_stats.dags, serial_stats.dags);
      EXPECT_EQ(pooled_stats.stream.rows, serial_stats.stream.rows);
      EXPECT_EQ(pooled_stats.stream.jobs, serial_stats.stream.jobs);
    }
  }
}

TEST(StreamDagJobs, CriteriaAreApplied) {
  const trace::Trace data = make_trace(300);
  trace::SamplingCriteria criteria;
  criteria.min_tasks = 4;
  const auto expected = build_all_dag_jobs(data, criteria);
  std::istringstream in(task_csv(data));
  IngestOptions options;
  options.criteria = criteria;
  const auto streamed = stream_dag_jobs(in, options);
  expect_same_jobs(streamed, expected);
}

TEST(StreamDagJobs, MalformedRowsCountedNotFatal) {
  std::stringstream in;
  in << "M1,1,j_1,1,Terminated,10,20,100.00,0.50\n";
  in << "garbage\n";
  in << "R2_1,1,j_1,1,Terminated,30,40,100.00,0.50\n";
  IngestStats stats;
  const auto dags = stream_dag_jobs(in, {}, nullptr, &stats);
  EXPECT_EQ(stats.stream.malformed, 1u);
  EXPECT_EQ(stats.stream.rows, 2u);
  ASSERT_EQ(dags.size(), 1u);
  EXPECT_EQ(dags[0].job_name, "j_1");
}

TEST(StreamDagJobs, StrictParseErrorPropagatesFromPooledRun) {
  std::string csv = task_csv(make_trace(50));
  csv += "\"unterminated";  // scanner throws at end of stream (strict mode)
  util::ThreadPool pool(4);
  std::istringstream in(csv);
  IngestOptions options;
  options.strict = true;
  EXPECT_THROW(stream_dag_jobs(in, options, &pool), util::ParseError);
}

TEST(StreamDagJobs, LenientQuarantinesUnterminatedQuote) {
  const trace::Trace data = make_trace(50);
  std::string csv = task_csv(data);
  csv += "\"unterminated";  // damaged tail record
  util::Diagnostics diagnostics;
  IngestOptions options;
  options.diagnostics = &diagnostics;
  util::ThreadPool pool(4);
  std::istringstream in(csv);
  IngestStats stats;
  const auto dags = stream_dag_jobs(in, options, &pool, &stats);
  // Every intact job still comes through; the damage is counted, not fatal.
  std::istringstream clean_in(task_csv(data));
  const auto clean = stream_dag_jobs(clean_in, {});
  expect_same_jobs(dags, clean);
  EXPECT_EQ(stats.stream.malformed, 1u);
  EXPECT_EQ(diagnostics.count_of("csv", "unterminated-quote"), 1u);
}

TEST(StreamDagJobs, StrictEscalatesCorruptJobsButNotFiltering) {
  // j_bad's second task depends on index 9, which does not exist.
  std::stringstream corrupt;
  corrupt << "M1,1,j_bad,1,Terminated,10,20,100.00,0.50\n";
  corrupt << "R2_9,1,j_bad,1,Terminated,30,40,100.00,0.50\n";
  IngestOptions strict;
  strict.strict = true;
  EXPECT_THROW(stream_dag_jobs(corrupt, strict), util::GraphError);

  // A non-DAG task name is routine filtering, not corruption: strict mode
  // skips it exactly like lenient mode does. (require_dag is disabled so
  // the job reaches the DAG builder instead of being filtered earlier.)
  std::stringstream independent;
  independent << "task_xyz,1,j_ind,1,Terminated,10,20,100.00,0.50\n";
  independent << "task_abc,1,j_ind,1,Terminated,10,20,100.00,0.50\n";
  IngestOptions permissive = strict;
  permissive.criteria.require_dag = false;
  IngestStats stats;
  const auto dags = stream_dag_jobs(independent, permissive, nullptr, &stats);
  EXPECT_TRUE(dags.empty());
  EXPECT_EQ(stats.eligible, 1u);
}

TEST(StreamDagJobs, LenientCountsCorruptJobsIntoDiagnostics) {
  std::stringstream in;
  // Cyclic job: M1 depends on 2, R2 depends on 1.
  in << "M1_2,1,j_cycle,1,Terminated,10,20,100.00,0.50\n";
  in << "R2_1,1,j_cycle,1,Terminated,30,40,100.00,0.50\n";
  // Healthy job after the corrupt one must still be built.
  in << "M1,1,j_ok,1,Terminated,10,20,100.00,0.50\n";
  in << "R2_1,1,j_ok,1,Terminated,30,40,100.00,0.50\n";
  util::Diagnostics diagnostics;
  IngestOptions options;
  options.diagnostics = &diagnostics;
  IngestStats stats;
  const auto dags = stream_dag_jobs(in, options, nullptr, &stats);
  ASSERT_EQ(dags.size(), 1u);
  EXPECT_EQ(dags[0].job_name, "j_ok");
  EXPECT_EQ(diagnostics.count_of("dag", "cycle"), 1u);
}

TEST(StreamDagJobs, PooledStrictCyclicJobDoesNotDeadlock) {
  // Regression for the shutdown ordering: a worker that throws mid-stream
  // must close the queue so the reader's blocked push is released. With a
  // tiny queue and batch size the reader is guaranteed to be pushing when
  // the worker dies; before the close-on-throw fix this test hung.
  std::ostringstream csv;
  csv << "M1_2,1,j_cycle,1,Terminated,10,20,100.00,0.50\n";
  csv << "R2_1,1,j_cycle,1,Terminated,30,40,100.00,0.50\n";
  for (int j = 0; j < 2000; ++j) {
    csv << "M1,1,j_f" << j << ",1,Terminated,10,20,100.00,0.50\n";
    csv << "R2_1,1,j_f" << j << ",1,Terminated,30,40,100.00,0.50\n";
  }
  util::ThreadPool pool(4);
  IngestOptions options;
  options.strict = true;
  options.batch_jobs = 1;
  options.queue_capacity = 1;
  std::istringstream in(csv.str());
  EXPECT_THROW(stream_dag_jobs(in, options, &pool), util::GraphError);
}

TEST(StreamDagJobs, EmptyInput) {
  std::istringstream in("");
  IngestStats stats;
  util::ThreadPool pool(2);
  const auto dags = stream_dag_jobs(in, {}, &pool, &stats);
  EXPECT_TRUE(dags.empty());
  EXPECT_EQ(stats.stream.rows, 0u);
  EXPECT_EQ(stats.dags, 0u);
}

TEST(Pipeline, BuildAllDagsStreamingOverloadAgrees) {
  const trace::Trace data = make_trace(300, 11);
  PipelineConfig cfg;
  const CharacterizationPipeline pipeline(cfg);
  const auto expected = build_all_dag_jobs(data, cfg.criteria);
  util::ThreadPool pool(3);
  std::istringstream in(task_csv(data));
  IngestStats stats;
  const auto streamed = pipeline.build_all_dags(in, &pool, &stats);
  expect_same_jobs(streamed, expected);
  EXPECT_EQ(stats.dags, expected.size());
}

}  // namespace
}  // namespace cwgl::core

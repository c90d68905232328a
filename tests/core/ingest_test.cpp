#include "core/ingest.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "trace/group_stream.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/csv_scanner.hpp"
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
  // Small chunks cut most jobs, so the stitch joins many of them, and make
  // many turns and reorderings.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096},
                                  trace::kDefaultChunkBytes}) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    IngestOptions options;
    options.chunk_bytes = chunk;
    std::istringstream pooled_in(csv);
    IngestStats pooled_stats;
    const auto pooled = stream_dag_jobs(pooled_in, options, &pool, &pooled_stats);

    expect_same_jobs(pooled, serial);
    EXPECT_EQ(pooled_stats.eligible, serial_stats.eligible);
    EXPECT_EQ(pooled_stats.dags, serial_stats.dags);
    EXPECT_EQ(pooled_stats.stream.rows, serial_stats.stream.rows);
    EXPECT_EQ(pooled_stats.stream.jobs, serial_stats.stream.jobs);
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
  // Regression for the shutdown ordering: a job that throws mid-stream
  // ends the stream at its chunk's turn, and every worker waiting for a
  // later turn or about to read must stop. Tiny chunks keep workers both
  // ahead of and behind the failing one.
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
  options.chunk_bytes = 64;
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

/// Every field the DAG build copies out of a row, so a record recycled
/// with a stale field shows.
void expect_same_dags(const std::vector<JobDag>& a,
                      const std::vector<JobDag>& b) {
  expect_same_jobs(a, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].tasks.size(), b[i].tasks.size());
    for (std::size_t t = 0; t < a[i].tasks.size(); ++t) {
      const TaskMeta& x = a[i].tasks[t];
      const TaskMeta& y = b[i].tasks[t];
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.type, y.type);
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.instance_num, y.instance_num);
      EXPECT_EQ(x.start_time, y.start_time);
      EXPECT_EQ(x.end_time, y.end_time);
      EXPECT_EQ(x.plan_cpu, y.plan_cpu);
      EXPECT_EQ(x.plan_mem, y.plan_mem);
    }
  }
}

void expect_same_stats(const IngestStats& a, const IngestStats& b) {
  EXPECT_EQ(a.stream.rows, b.stream.rows);
  EXPECT_EQ(a.stream.malformed, b.stream.malformed);
  EXPECT_EQ(a.stream.jobs, b.stream.jobs);
  EXPECT_EQ(a.stream.fragmented, b.stream.fragmented);
  EXPECT_EQ(a.eligible, b.eligible);
  EXPECT_EQ(a.dags, b.dags);
}

/// A task file built to trip the in-place reader:
///  - a malformed row before every fourth job's first row, where batches
///    are cut;
///  - in every ninth job, a malformed row naming another job between two of
///    its rows;
///  - every fifth job named past the short-string buffer and every seventh
///    with task names past it, so recycled records go long, short, long;
///  - rows ending in \n, \r\n or a lone \r at random, over more than one
///    scanner block, with a \r\n pair split by the first block's end.
/// `groups` receives the job count.
std::string damaged_task_csv(std::size_t& groups) {
  std::mt19937_64 rng(2021);
  std::string out;
  const char* endings[] = {"\n", "\r\n", "\r"};
  const auto end_row = [&] { out += endings[rng() % 3]; };
  const auto row = [&](const std::string& task, const std::string& job,
                       int n) {
    // Every sixth job failed, so the criteria filter it out.
    out += task + "," + std::to_string(n % 5 + 1) + "," + job + ",1," +
           (n / 10 % 6 == 5 ? "Failed" : "Terminated") + "," +
           std::to_string(100 + n) + "," + std::to_string(200 + 2 * n) + "," +
           std::to_string(n % 400) + ".50," + std::to_string(n % 7) + ".25";
  };
  groups = 0;
  bool split_block_end = false;
  for (int j = 0; out.size() < 600'000; ++j) {
    // One filler job whose \r\n pair straddles the first refill. A job
    // takes well under 1 KB, so the filler's name stays positive.
    constexpr std::size_t kBlock = util::CsvScanner::kDefaultBlockSize;
    if (!split_block_end && out.size() + 2000 > kBlock) {
      const std::string head = "M1,1,j_fill";
      const std::string tail = ",1,Terminated,10,20,1.00,1.00";
      out += head;
      out += std::string(kBlock - 1 - out.size() - tail.size(), 'x');
      out += tail;
      EXPECT_EQ(out.size(), kBlock - 1);
      out += "\r\n";
      ++groups;
      split_block_end = true;
    }
    const std::string job =
        j % 5 == 0 ? "j_a_job_name_well_past_sso_" + std::to_string(j)
                   : "j_" + std::to_string(j);
    if (j % 4 == 0) {
      out += "garbage,row";
      end_row();
    }
    const int tasks = 1 + j % 9;
    for (int t = 1; t <= tasks; ++t) {
      const char type = "MRJ"[(j + t) % 3];
      std::string name(1, type);
      name += std::to_string(t);
      // Long names depend on every earlier task; short ones on the last.
      for (int d = j % 7 == 0 ? 1 : t - 1; d >= 1 && d < t; ++d) {
        name += '_';
        name += std::to_string(d);
      }
      row(name, job, j * 10 + t);
      end_row();
      if (j % 9 == 0 && t == 1 && tasks > 1) {
        row("R9_8", "j_someone_else", -1);
        out += ",extra";
        end_row();
      }
    }
    ++groups;
  }
  return out;
}

TEST(InPlaceReader, PooledMatchesSerialOnDamagedInput) {
  std::size_t groups = 0;
  const std::string csv = damaged_task_csv(groups);

  util::Diagnostics serial_diagnostics;
  IngestOptions serial_options;
  serial_options.diagnostics = &serial_diagnostics;
  std::istringstream serial_in(csv);
  IngestStats serial_stats;
  const auto serial =
      stream_dag_jobs(serial_in, serial_options, nullptr, &serial_stats);
  // A malformed row inside a group never splits it.
  EXPECT_EQ(serial_stats.stream.jobs, groups);
  EXPECT_EQ(serial_stats.stream.fragmented, 0u);
  EXPECT_GT(serial_stats.stream.malformed, 100u);
  EXPECT_GT(serial_stats.dags, 1000u);

  // The in-memory reader and the TraceIndex build agree with the stream.
  std::istringstream oracle_in(csv);
  std::size_t skipped = 0;
  trace::Trace data;
  data.tasks = trace::read_batch_task_csv(oracle_in, &skipped);
  EXPECT_EQ(skipped, serial_stats.stream.malformed);
  EXPECT_EQ(data.tasks.size(), serial_stats.stream.rows);
  expect_same_dags(serial, build_all_dag_jobs(data, trace::SamplingCriteria{}));

  util::ThreadPool pool(4);
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096},
                                  trace::kDefaultChunkBytes}) {
    SCOPED_TRACE("chunk_bytes " + std::to_string(chunk));
    util::Diagnostics diagnostics;
    IngestOptions options;
    options.chunk_bytes = chunk;
    options.diagnostics = &diagnostics;
    std::istringstream in(csv);
    IngestStats stats;
    const auto pooled = stream_dag_jobs(in, options, &pool, &stats);
    expect_same_dags(pooled, serial);
    expect_same_stats(stats, serial_stats);
    EXPECT_EQ(diagnostics.count_of("ingest", "malformed-row"),
              serial_diagnostics.count_of("ingest", "malformed-row"));
  }
}

// Strict mode stops at the first malformed row with the same message on
// both paths, and at an unterminated quote too.
TEST(InPlaceReader, StrictErrorTextMatchesAcrossPaths) {
  std::size_t groups = 0;
  const std::string damaged = damaged_task_csv(groups);
  const std::string quoted =
      task_csv(make_trace(200, 5)) + "M1,1,\"j_open,1,Terminated\n";
  util::ThreadPool pool(4);
  for (const std::string* csv : {&damaged, &quoted}) {
    const auto error_of = [&](util::ThreadPool* p, std::size_t chunk) {
      IngestOptions options;
      options.strict = true;
      options.chunk_bytes = chunk;
      std::istringstream in(*csv);
      try {
        stream_dag_jobs(in, options, p);
      } catch (const util::ParseError& e) {
        return std::string(e.what());
      }
      return std::string("no ParseError");
    };
    const std::string serial = error_of(nullptr, trace::kDefaultChunkBytes);
    EXPECT_NE(serial, "no ParseError");
    for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096},
                                    trace::kDefaultChunkBytes}) {
      EXPECT_EQ(error_of(nullptr, chunk), serial) << chunk;
      EXPECT_EQ(error_of(&pool, chunk), serial) << chunk;
    }
  }
}

/// A cyclic job, then a malformed row after its successor's first row.
const char* const kCycleThenMalformed =
    "M1_2,1,j_cycle,1,Terminated,10,20,100.00,0.50\n"
    "R2_1,1,j_cycle,1,Terminated,30,40,100.00,0.50\n"
    "M1,1,j_ok,1,Terminated,10,20,100.00,0.50\n"
    "garbage,row\n"
    "R2_1,1,j_ok,1,Terminated,30,40,100.00,0.50\n";

// The serial path builds each group as soon as the row after it is read,
// before reading on: a corrupt job escalates before a malformed row that
// follows its successor's first row is even parsed.
TEST(InPlaceReader, SerialBuildsEachGroupBeforeReadingOn) {
  std::stringstream in(kCycleThenMalformed);
  IngestOptions strict;
  strict.strict = true;
  EXPECT_THROW(stream_dag_jobs(in, strict), util::GraphError);
}

// The pooled path throws what the serial one throws: the first offense in
// file order, where a corrupt job ranks at the row that closes its group.
// Whichever worker meets the malformed row first, the cycle wins.
TEST(InPlaceReader, PooledRanksEachOffenseInFileOrder) {
  const std::string expected =
      "job j_cycle: task dependencies form a cycle";
  for (const std::size_t workers : {2u, 4u}) {
    util::ThreadPool pool(workers);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{100},
                                    std::size_t{150}, trace::kDefaultChunkBytes}) {
      for (int round = 0; round < 5; ++round) {
        std::stringstream in(kCycleThenMalformed);
        IngestOptions strict;
        strict.strict = true;
        strict.chunk_bytes = chunk;
        try {
          stream_dag_jobs(in, strict, &pool);
          ADD_FAILURE() << "no error, chunk " << chunk;
        } catch (const util::GraphError& e) {
          EXPECT_EQ(std::string(e.what()), expected) << chunk;
        } catch (const std::exception& e) {
          ADD_FAILURE() << workers << " workers, chunk " << chunk << ": "
                        << e.what();
        }
      }
    }
  }
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

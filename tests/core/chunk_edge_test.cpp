// Chunk-edge differential suite: core::stream_dag_jobs on the chunked job
// stream, serial and on 2 and 4 workers, at chunk sizes from 1 byte to the
// default, against the serial reader and DAG build it replaced
// (tests/support/ingest_oracle.hpp). Each input puts damage where chunk
// edges fall; each run compares the DAGs, the stats, the diagnostics
// report with its samples, the strict error text and the
// `ingest.scanner.*` counters.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/ingest.hpp"
#include "obs/metrics.hpp"
#include "support/ingest_oracle.hpp"
#include "trace/group_stream.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

/// One row of a job: `n` varies the numbers, `failed` fails the task.
std::string row(const std::string& task, const std::string& job, int n,
                bool failed = false) {
  return task + "," + std::to_string(n % 5 + 1) + "," + job + ",1," +
         (failed ? "Failed" : "Terminated") + "," + std::to_string(100 + n) +
         "," + std::to_string(200 + 2 * n) + "," + std::to_string(n % 400) +
         ".50," + std::to_string(n % 7) + ".25";
}

/// A chain job of `tasks` rows named `job`, ending every row in `end`.
std::string chain(const std::string& job, int tasks, const std::string& end = "\n",
                  int n = 0) {
  std::string out;
  for (int t = 1; t <= tasks; ++t) {
    std::string name = (t == 1 ? "M" : "R") + std::to_string(t);
    if (t > 1) name += "_" + std::to_string(t - 1);
    out += row(name, job, n + t) + end;
  }
  return out;
}

struct Case {
  std::string name;
  std::string csv;
};

/// A generated file of many small jobs with damage everywhere: malformed
/// rows before jobs and inside them (some naming another job), runs of
/// nothing but malformed rows, cyclic and missing-dependency jobs, failed
/// jobs, fragments, and \n, \r\n and lone-\r endings at random.
std::string mixed_damage(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const char* endings[] = {"\n", "\r\n", "\r"};
  const auto end = [&] { return std::string(endings[rng() % 3]); };
  std::string out;
  for (int j = 0; j < 120; ++j) {
    const std::string job = j % 5 == 0 ? "j_name_well_past_the_sso_" + std::to_string(j)
                                       : "j_" + std::to_string(j);
    if (j % 4 == 0) out += "garbage,row" + end();
    if (j % 17 == 0) {
      for (int k = 0; k < 12; ++k) out += "only,malformed,rows," + std::to_string(k) + end();
    }
    const int tasks = 1 + j % 6;
    for (int t = 1; t <= tasks; ++t) {
      std::string name = (t == 1 ? "M" : "R") + std::to_string(t);
      if (t > 1) name += "_" + std::to_string(t - 1);
      if (j % 13 == 0 && t == 1 && tasks > 1) name += "_" + std::to_string(tasks);
      if (j % 19 == 0 && t == tasks) name += "_99";
      out += row(name, job, j * 10 + t, j % 11 == 10) + end();
      if (j % 9 == 0 && t == 1) out += row("R9_8", "j_someone_else", 1) + ",x" + end();
    }
    if (j % 23 == 0 && j > 0) out += chain("j_" + std::to_string(j - 1), 2, end());
  }
  return out;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"mixed damage", mixed_damage(1)});
  out.push_back({"mixed damage 2", mixed_damage(2)});
  {
    // One job of 300 rows spans many chunks of every size but the
    // default; a malformed row sits in its middle.
    std::string csv = chain("j_before", 2);
    std::string big = chain("j_big", 300);
    big.insert(big.find('\n', big.size() / 2) + 1, "garbage,row\n");
    out.push_back({"one job over many chunks", csv + big + chain("j_after", 3)});
  }
  {
    // A malformed row that names another job inside a group, next to the
    // group's first row and its last.
    std::string csv;
    csv += row("M1", "j_a", 1) + "\n";
    csv += row("R2_1", "j_b", 2) + ",extra\n";
    csv += row("R2_1", "j_a", 3) + "\n";
    csv += row("R3_2", "j_a", 4) + "\n";
    csv += row("R9_8", "j_a", 5) + ",extra\n";
    csv += chain("j_b", 3);
    out.push_back({"malformed row naming another job", csv});
  }
  {
    // A job fragmented several times, so later groups start chunks at
    // small sizes; names are prefixes of one another.
    std::string csv;
    for (int round = 0; round < 4; ++round) {
      csv += chain("j_1", 2, "\n", round);
      csv += chain("j_10", 2, "\n", round);
      csv += chain("j_1" + std::to_string(round), 3, "\n", round);
    }
    out.push_back({"fragmented jobs", csv});
  }
  {
    // CRLF and lone CR everywhere, including the very end.
    out.push_back({"crlf", chain("j_a", 4, "\r\n") + chain("j_b", 3, "\r\n")});
    out.push_back({"lone cr", chain("j_a", 4, "\r") + chain("j_b", 3, "\r")});
    out.push_back({"mixed endings",
                   chain("j_a", 3, "\r\n") + chain("j_b", 3, "\r") +
                       chain("j_c", 3, "\n") + "\r\n\r\n" + chain("j_d", 2, "\r\n")});
  }
  out.push_back({"empty", ""});
  out.push_back({"blank lines", "\n\n\r\n\r"});
  out.push_back({"no terminator at the end",
                 chain("j_a", 3) + row("M1", "j_b", 1) + "\n" + row("R2_1", "j_b", 2)});
  out.push_back({"terminator then lone cr at the end", chain("j_a", 3) + "\r"});
  {
    // A quote mid-file hands the rest to the exact scanner: a quoted job
    // name, an escaped quote, a quoted field holding a newline, then
    // more damage behind it.
    std::string csv = mixed_damage(3).substr(0, 3000);
    csv = csv.substr(0, csv.rfind('\n') + 1);
    csv += chain("j_q", 2);
    csv += row("M1", "\"j_q\"", 9) + "\n";  // the same job, quoted
    csv += row("R2_1", "\"j_\"\"x\"\"\"", 10) + "\n";
    csv += row("R3_2", "\"j_multi\nline\"", 11) + "\n";
    csv += "garbage,row\n" + chain("j_tail", 3, "\r\n");
    out.push_back({"quote mid-file", csv});
  }
  {
    // A line longer than the scan limit without a '\n' (lone CRs only)
    // also takes the exact scanner.
    std::string csv = chain("j_a", 2);
    for (int j = 0; csv.size() < 300'000; ++j) {
      csv += chain("j_cr" + std::to_string(j), 3, "\r", j);
    }
    csv += "\n" + chain("j_z", 2);
    out.push_back({"lone-cr file past the scan limit", csv});
  }
  {
    // An unterminated quote at the end: quarantined under lenient, a
    // ParseError with its absolute record number under strict.
    out.push_back({"unterminated quote", chain("j_a", 3) + chain("j_b", 2) +
                                             "M1,1,\"j_open,1,Terminated\n" +
                                             chain("j_c", 2)});
  }
  return out;
}

/// What one ingest run produced.
struct IngestRun {
  std::vector<JobDag> dags;
  IngestStats stats;
  std::string diagnostics;
  std::string error;
  std::map<std::string, std::uint64_t> scanner;
};

std::map<std::string, std::uint64_t> scanner_counters() {
  auto& registry = obs::MetricsRegistry::global();
  std::map<std::string, std::uint64_t> out;
  for (const char* name : {"ingest.scanner.rows", "ingest.scanner.bytes",
                           "ingest.scanner.quarantined"}) {
    out[name] = registry.counter(name).value();
  }
  return out;
}

template <typename Ingest>
IngestRun run(const std::string& csv, bool strict, Ingest&& ingest) {
  obs::MetricsRegistry::global().reset();
  util::Diagnostics diagnostics;
  IngestOptions options;
  options.strict = strict;
  options.diagnostics = &diagnostics;
  IngestRun out;
  std::istringstream in(csv);
  try {
    ingest(in, options, out);
  } catch (const util::ParseError& e) {
    out.error = std::string("ParseError: ") + e.what();
  } catch (const util::GraphError& e) {
    out.error = std::string("GraphError: ") + e.what();
  }
  std::ostringstream report;
  diagnostics.write_json(report);
  out.diagnostics = report.str();
  out.scanner = scanner_counters();
  return out;
}

IngestRun run_oracle(const std::string& csv, bool strict) {
  return run(csv, strict,
             [](std::istream& in, const IngestOptions& options, IngestRun& out) {
               oracle::Ingest result = oracle::stream_dag_jobs(in, options);
               out.dags = std::move(result.dags);
               out.stats = result.stats;
             });
}

IngestRun run_stream(const std::string& csv, bool strict, util::ThreadPool* pool,
               std::size_t chunk) {
  return run(csv, strict,
             [&](std::istream& in, IngestOptions options, IngestRun& out) {
               options.chunk_bytes = chunk;
               out.dags = stream_dag_jobs(in, options, pool, &out.stats);
             });
}

void expect_same(const IngestRun& expected, const IngestRun& actual, bool strict) {
  EXPECT_EQ(actual.error, expected.error);
  if (!expected.error.empty()) return;  // partial counts differ on a throw
  EXPECT_EQ(actual.stats.stream.rows, expected.stats.stream.rows);
  EXPECT_EQ(actual.stats.stream.malformed, expected.stats.stream.malformed);
  EXPECT_EQ(actual.stats.stream.jobs, expected.stats.stream.jobs);
  EXPECT_EQ(actual.stats.stream.fragmented, expected.stats.stream.fragmented);
  EXPECT_EQ(actual.stats.eligible, expected.stats.eligible);
  EXPECT_EQ(actual.stats.dags, expected.stats.dags);
  if (!strict) {
    EXPECT_EQ(actual.diagnostics, expected.diagnostics);
  }
  EXPECT_EQ(actual.scanner, expected.scanner);
  ASSERT_EQ(actual.dags.size(), expected.dags.size());
  for (std::size_t i = 0; i < expected.dags.size(); ++i) {
    const JobDag& a = actual.dags[i];
    const JobDag& e = expected.dags[i];
    EXPECT_EQ(a.job_name, e.job_name) << i;
    EXPECT_EQ(a.dag, e.dag) << e.job_name;
    ASSERT_EQ(a.tasks.size(), e.tasks.size()) << e.job_name;
    for (std::size_t t = 0; t < e.tasks.size(); ++t) {
      EXPECT_EQ(a.tasks[t].name, e.tasks[t].name);
      EXPECT_EQ(a.tasks[t].type, e.tasks[t].type);
      EXPECT_EQ(a.tasks[t].index, e.tasks[t].index);
      EXPECT_EQ(a.tasks[t].instance_num, e.tasks[t].instance_num);
      EXPECT_EQ(a.tasks[t].start_time, e.tasks[t].start_time);
      EXPECT_EQ(a.tasks[t].end_time, e.tasks[t].end_time);
      EXPECT_EQ(a.tasks[t].plan_cpu, e.tasks[t].plan_cpu);
      EXPECT_EQ(a.tasks[t].plan_mem, e.tasks[t].plan_mem);
    }
  }
}

constexpr std::size_t kChunkSizes[] = {1, 2, 7, 64, 4096,
                                       trace::kDefaultChunkBytes};

void check_case(const Case& c, bool strict) {
  const IngestRun expected = run_oracle(c.csv, strict);
  util::ThreadPool two(2);
  util::ThreadPool four(4);
  for (const std::size_t chunk : kChunkSizes) {
    SCOPED_TRACE(c.name + (strict ? ", strict" : ", lenient") + ", chunk " +
                 std::to_string(chunk));
    {
      SCOPED_TRACE("serial");
      expect_same(expected, run_stream(c.csv, strict, nullptr, chunk), strict);
    }
    {
      SCOPED_TRACE("2 workers");
      expect_same(expected, run_stream(c.csv, strict, &two, chunk), strict);
    }
    {
      SCOPED_TRACE("4 workers");
      expect_same(expected, run_stream(c.csv, strict, &four, chunk), strict);
    }
  }
}

TEST(ChunkEdges, LenientMatchesTheSerialReaderAtEveryChunkSize) {
  for (const Case& c : cases()) check_case(c, /*strict=*/false);
}

TEST(ChunkEdges, StrictThrowsTheSerialReadersFirstOffense) {
  for (const Case& c : cases()) check_case(c, /*strict=*/true);
}

// The inputs reach what they are built for: damage, fragments and the
// exact scanner's fallback all show in the oracle's counts.
TEST(ChunkEdges, CasesCoverWhatTheyName) {
  std::map<std::string, IngestRun> runs;
  for (const Case& c : cases()) runs[c.name] = run_oracle(c.csv, false);
  EXPECT_GT(runs["mixed damage"].stats.stream.malformed, 30u);
  EXPECT_GT(runs["mixed damage"].stats.stream.fragmented, 0u);
  EXPECT_NE(runs["mixed damage"].diagnostics.find("\"cycle\""), std::string::npos);
  EXPECT_NE(runs["mixed damage"].diagnostics.find("\"missing-dependency\""),
            std::string::npos);
  EXPECT_EQ(runs["one job over many chunks"].stats.stream.jobs, 3u);
  EXPECT_EQ(runs["fragmented jobs"].stats.stream.fragmented, 6u);
  EXPECT_EQ(runs["malformed row naming another job"].stats.stream.jobs, 2u);
  EXPECT_EQ(runs["empty"].stats.stream.rows, 0u);
  EXPECT_EQ(runs["blank lines"].stats.stream.malformed, 4u);
  EXPECT_EQ(runs["no terminator at the end"].stats.dags, 2u);
  EXPECT_EQ(runs["quote mid-file"].scanner["ingest.scanner.quarantined"], 0u);
  EXPECT_EQ(runs["unterminated quote"].scanner["ingest.scanner.quarantined"], 1u);
  EXPECT_NE(run_oracle(cases().back().csv, true).error.find("unterminated"),
            std::string::npos);
}

// consume_jobs_in_task_csv runs on the same stream: the same groups, in
// order, with the same stats, as the serial reader it replaced, including
// an early stop.
TEST(ChunkEdges, ConsumeJobsMatchesTheSerialReader) {
  using Groups = std::vector<std::pair<std::string, std::size_t>>;
  for (const Case& c : cases()) {
    for (const std::size_t stop_after : {std::size_t{1}, std::size_t{3},
                                         std::size_t{1000}}) {
      SCOPED_TRACE(c.name + ", stop after " + std::to_string(stop_after));
      const auto consume = [&](auto&& reader, Groups& groups) {
        std::istringstream in(c.csv);
        return reader(
            in,
            [&](std::string&& job, std::vector<trace::TaskRecord>&& rows) {
              groups.emplace_back(job, rows.size());
              return groups.size() < stop_after;
            },
            trace::TraceReadOptions{});
      };
      Groups expected_groups;
      Groups actual_groups;
      const trace::StreamStats expected =
          consume(oracle::consume_jobs_in_task_csv, expected_groups);
      const trace::StreamStats actual = consume(
          [](std::istream& in, const auto& fn, const trace::TraceReadOptions& o) {
            return trace::consume_jobs_in_task_csv(in, fn, o);
          },
          actual_groups);
      EXPECT_EQ(actual_groups, expected_groups);
      EXPECT_EQ(actual.rows, expected.rows);
      EXPECT_EQ(actual.malformed, expected.malformed);
      EXPECT_EQ(actual.jobs, expected.jobs);
      EXPECT_EQ(actual.fragmented, expected.fragmented);
    }
  }
}

}  // namespace
}  // namespace cwgl::core

// stream_shape_jobs answers a job whose task names repeat an earlier job's
// from a per-worker memo instead of building and interning it. These tests
// hold the memoized stream to the Trace pipeline's intern stage and to the
// unmemoized stream at every pool and chunk size, including the cases a
// name memo can get wrong: a repeat that reaches the stitch before its
// earlier twin, names whose joined text aliases another job's, and corrupt
// jobs that repeat.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "support/ingest_oracle.hpp"
#include "trace/generator.hpp"
#include "trace/group_stream.hpp"
#include "trace/io.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

/// A stream run: no pool or a pool's size, and the chunk size.
struct StreamRun {
  std::size_t workers = 0;
  std::size_t chunk_bytes = trace::kDefaultChunkBytes;

  std::string label() const {
    return (workers == 0 ? std::string("serial")
                         : "pool of " + std::to_string(workers)) +
           ", chunk_bytes " + std::to_string(chunk_bytes);
  }
};

std::vector<StreamRun> every_run() {
  std::vector<StreamRun> runs;
  for (const std::size_t workers : {0, 2, 4}) {
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{4096},
          trace::kDefaultChunkBytes}) {
      runs.push_back({workers, chunk});
    }
  }
  return runs;
}

InternedIngest ingest(const std::string& csv, const StreamRun& run,
                      IngestOptions options = {}) {
  options.chunk_bytes = run.chunk_bytes;
  std::optional<util::ThreadPool> pool;
  if (run.workers > 0) pool.emplace(run.workers);
  std::istringstream in(csv);
  return stream_shape_jobs(in, options, pool ? &*pool : nullptr);
}

/// The stream without the memo: every eligible job built and interned at
/// its stream sequence, in trace order.
InternedIngest unmemoized(const std::string& csv, IngestOptions options = {}) {
  std::istringstream in(csv);
  InternedIngest out;
  std::vector<std::pair<std::size_t, JobDag>> dags = stream_transformed(
      in, options, nullptr, out.stats, [](std::size_t seq, JobDag&& dag) {
        return std::make_pair(seq, std::move(dag));
      });
  ShapeStore store;
  std::vector<const ShapeStore::Node*> handles;
  for (auto& [seq, dag] : dags) handles.push_back(store.intern(std::move(dag), seq));
  ShapeStore::FrozenView view = store.freeze_with_ids();
  out.table = std::move(view.table);
  for (const ShapeStore::Node* node : handles) {
    out.shape_of.push_back(view.id_of.at(node));
  }
  out.intern = store.stats();
  return out;
}

void expect_same_tasks(const JobDag& a, const JobDag& b) {
  EXPECT_EQ(a.job_name, b.job_name);
  EXPECT_EQ(a.dag, b.dag);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const TaskMeta& x = a.tasks[i];
    const TaskMeta& y = b.tasks[i];
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

/// Everything but `first_seq` (which the callers map) and `repeats`.
void expect_same_intern(const InternedIngest& got, const ShapeTable& table,
                        const std::vector<std::uint32_t>& shape_of,
                        const ShapeStore::Stats& stats) {
  EXPECT_EQ(got.shape_of, shape_of);
  EXPECT_EQ(got.table.total_jobs, table.total_jobs);
  ASSERT_EQ(got.table.size(), table.size());
  for (std::size_t t = 0; t < table.size(); ++t) {
    SCOPED_TRACE("shape " + std::to_string(t));
    const ShapeTable::ShapeInfo& a = got.table.shapes[t];
    const ShapeTable::ShapeInfo& b = table.shapes[t];
    EXPECT_EQ(a.shape_key, b.shape_key);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.critical_path, b.critical_path);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.pattern, b.pattern);
    expect_same_tasks(got.table.exemplars[t], table.exemplars[t]);
  }
  EXPECT_EQ(got.intern.total_jobs, stats.total_jobs);
  EXPECT_EQ(got.intern.distinct_shapes, stats.distinct_shapes);
  EXPECT_EQ(got.intern.hits, stats.hits);
  EXPECT_EQ(got.intern.misses, stats.misses);
  EXPECT_EQ(got.intern.isomorphism_probes, stats.isomorphism_probes);
  EXPECT_EQ(got.intern.hash_collisions, stats.hash_collisions);
}

void expect_same_ingest(const InternedIngest& got,
                        const InternedIngest& expected) {
  EXPECT_EQ(got.stats.stream.rows, expected.stats.stream.rows);
  EXPECT_EQ(got.stats.stream.jobs, expected.stats.stream.jobs);
  EXPECT_EQ(got.stats.eligible, expected.stats.eligible);
  EXPECT_EQ(got.stats.dags, expected.stats.dags);
  expect_same_intern(got, expected.table, expected.shape_of, expected.intern);
  ASSERT_EQ(got.table.size(), expected.table.size());
  for (std::size_t t = 0; t < got.table.size(); ++t) {
    EXPECT_EQ(got.table.shapes[t].first_seq, expected.table.shapes[t].first_seq)
        << "shape " << t;
  }
}

// At every pool and chunk size the memoized stream interns exactly what
// the Trace pipeline does: shapes, counts, exemplars, shape of every job,
// and counters. The Trace path numbers its jobs 0, 1, ... while the stream
// orders them by the offset of their first row, so first_seq is compared
// through each exemplar's first row.
TEST(StreamShapeJobs, MatchesTheTraceOracleAtEveryPoolAndChunkSize) {
  for (const bool diverse : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(std::string(diverse ? "diverse" : "paper") + " mix, seed " +
                   std::to_string(seed));
      trace::GeneratorConfig cfg;
      cfg.seed = seed;
      cfg.num_jobs = diverse ? 500 : 1200;
      cfg.emit_instances = false;
      if (diverse) {
        cfg.p_tiny = 0.1;
        cfg.size_geometric_p = 0.10;
        cfg.p_extra_dep = 0.5;
      }
      std::ostringstream out;
      trace::write_batch_task_csv(out,
                                  trace::TraceGenerator(cfg).generate().tasks);
      const std::string csv = out.str();
      // The oracle reads the file too: it holds the rounded resources.
      trace::Trace data;
      std::istringstream trace_in(csv);
      data.tasks = trace::read_batch_task_csv(trace_in);

      const FullTraceResult oracle =
          CharacterizationPipeline(PipelineConfig{}).run_full(data);
      std::unordered_map<std::string, std::uint64_t> first_row;
      for (std::size_t at = 0; at < csv.size();) {
        const std::size_t end = csv.find('\n', at);
        const std::size_t job = csv.find(',', csv.find(',', at) + 1) + 1;
        first_row.emplace(csv.substr(job, csv.find(',', job) - job), at);
        at = end + 1;
      }
      // A serial memo answers every job whose names an earlier job had.
      std::set<std::vector<std::string>> seen;
      std::uint64_t repeats = 0;
      std::istringstream dag_in(csv);
      for (const JobDag& job : stream_dag_jobs(dag_in)) {
        repeats += !seen.insert(job.vertex_names()).second;
      }
      ASSERT_GT(repeats, 0u);

      for (const StreamRun& run : every_run()) {
        SCOPED_TRACE(run.label());
        const InternedIngest got = ingest(csv, run);
        EXPECT_EQ(got.stats.dags, oracle.total_jobs());
        expect_same_intern(got, oracle.table, oracle.shape_of, oracle.stats);
        for (std::size_t t = 0; t < got.table.size(); ++t) {
          EXPECT_EQ(got.table.shapes[t].first_seq,
                    first_row.at(oracle.table.exemplars[t].job_name))
              << "shape " << t;
        }
        if (run.workers == 0) {
          EXPECT_EQ(got.intern.repeats, repeats);
        } else {
          EXPECT_LE(got.intern.repeats, repeats);
        }
      }
    }
  }
}

/// A task file whose rows are all kLine bytes long, so chunk_bytes = 8 *
/// kLine cuts it after every 8th row.
class FixedRows {
 public:
  static constexpr std::size_t kLine = 72;

  void add(const std::string& task, const std::string& job) {
    // plan_cpu is padded with zero decimals.
    const std::string head = task + ",1," + job + ",1,Terminated,10,20,100.";
    const std::string tail = ",0.5\n";
    const std::string line =
        head + std::string(kLine - head.size() - tail.size(), '0') + tail;
    EXPECT_EQ(line.size(), kLine) << line;
    rows_ += line;
  }

  void add_job(const std::vector<std::string>& tasks, const std::string& job) {
    for (const std::string& task : tasks) add(task, job);
  }

  const std::string& csv() const { return rows_; }

 private:
  std::string rows_;
};

/// Blocks of 16 rows, two chunks of 8 each: a 6-task job, then `twin`
/// twice as jobs "<prefix>_early<b>" (rows 6-8, cut by the chunk edge, so
/// handled at the stitch) and "<prefix>_late<b>" (rows 9-11, inside the
/// second chunk, so handled before the stitch that completes the early
/// twin), then a 4-task job that the next block's first row closes.
std::string twin_blocks(std::size_t blocks, const std::string& prefix,
                        std::vector<std::string> (*twin)(std::size_t)) {
  FixedRows rows;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::string n = std::to_string(b);
    rows.add_job({"M1", "M2", "M3", "M4", "M5", "R6_1_2_3_4_5"}, "j_w" + n);
    rows.add_job(twin(b), prefix + "_early" + n);
    rows.add_job(twin(b), prefix + "_late" + n);
    rows.add_job({"M1", "M2", "M3", "R4_1_2_3"}, "j_z" + n);
  }
  return rows.csv();
}

// When the later twin is built first and the earlier one reaches the
// stitch afterwards on the same worker, the earlier one is still built and
// interned, so it stays the exemplar of its shape: a memo that answered it
// as a repeat would leave the later twin as exemplar.
TEST(StreamShapeJobs, EarlierTwinReachingTheStitchLaterStaysTheExemplar) {
  // Every block's twins have a shape of their own (the reduce's type
  // letter), so each block checks the rule.
  const std::string csv =
      twin_blocks(52, "j_t", [](std::size_t b) -> std::vector<std::string> {
        const char letter = static_cast<char>(b < 26 ? 'A' + b : 'a' + b - 26);
        return {"M1", "M2", std::string(1, letter) + "3_1_2"};
      });
  const InternedIngest expected = unmemoized(csv);
  ASSERT_EQ(expected.table.size(), 54u);
  for (std::size_t t = 0; t < expected.table.size(); ++t) {
    const std::string& name = expected.table.exemplars[t].job_name;
    EXPECT_TRUE(name.starts_with("j_w") || name.starts_with("j_z") ||
                name.starts_with("j_t_early"))
        << name;
  }
  for (const std::size_t workers : {2, 4}) {
    for (int round = 0; round < 10; ++round) {
      SCOPED_TRACE("pool of " + std::to_string(workers) + ", round " +
                   std::to_string(round));
      const InternedIngest got =
          ingest(csv, {workers, 8 * FixedRows::kLine});
      expect_same_ingest(got, expected);
    }
  }
  expect_same_ingest(ingest(csv, {0, 8 * FixedRows::kLine}), expected);
}

// The memo's key puts each name behind its length. Names joined by ',' or
// '\n' (which a quoted name may hold) or by nothing would make the
// filtered jobs below look like repeats of the DAG job j_d0; names of 128
// bytes and more take a longer length.
TEST(StreamShapeJobs, QuotedNamesDoNotAliasAnotherJobsNames) {
  std::vector<trace::TaskRecord> rows;
  const auto job = [&rows](const std::vector<std::string>& tasks,
                           const std::string& name) {
    for (const std::string& task : tasks) {
      trace::TaskRecord r;
      r.task_name = task;
      r.job_name = name;
      r.instance_num = 1;
      r.start_time = 10;
      r.end_time = 20;
      r.plan_cpu = 100.0;
      r.plan_mem = 0.5;
      rows.push_back(r);
    }
  };
  job({"M1", "M2", "R3_1_2"}, "j_d0");
  job({"M1,M2", "R3_1_2"}, "j_comma");
  job({"M1\nM2", "R3_1_2"}, "j_newline");
  job({"M1M2", "R3_1_2"}, "j_joined");
  job({"M1", "M2,R3_1_2"}, "j_comma_tail");
  job({"M1", "M2", "R3_1_2"}, "j_d1");
  std::string deps;
  for (int i = 0; i < 63; ++i) deps += "_1";
  job({"M1", "R2" + deps}, "j_long0");  // a 128-byte name
  job({"M1", "R2" + deps}, "j_long1");
  job({"M1", "R2" + deps + deps + deps}, "j_long2");
  std::ostringstream out;
  trace::write_batch_task_csv(out, rows);
  const std::string csv = out.str();
  ASSERT_NE(csv.find('"'), std::string::npos);

  for (const bool require_dag : {true, false}) {
    SCOPED_TRACE(require_dag ? "require_dag" : "no DAG test");
    IngestOptions options;
    options.criteria.require_dag = require_dag;
    const InternedIngest expected = unmemoized(csv, options);
    EXPECT_EQ(expected.stats.dags, 5u);
    EXPECT_EQ(expected.stats.eligible, require_dag ? 5u : 9u);
    for (const StreamRun& run : every_run()) {
      SCOPED_TRACE(run.label());
      util::Diagnostics diagnostics;
      options.diagnostics = &diagnostics;
      const InternedIngest got = ingest(csv, run, options);
      options.diagnostics = nullptr;
      expect_same_ingest(got, expected);
      EXPECT_EQ(diagnostics.count_of("dag", "non-dag-name"),
                require_dag ? 0u : 4u);
    }
  }
}

std::vector<std::string> diagnostics_of(const util::Diagnostics& d) {
  std::vector<std::string> out;
  for (const util::Diagnostics::Entry& e : d.entries()) {
    std::string line = e.stage + "/" + e.kind + " " + std::to_string(e.count);
    for (const std::string& sample : e.samples) line += "|" + sample;
    out.push_back(line);
  }
  return out;
}

// A corrupt job is never entered in the memo, so every repeat of it is
// built again: lenient runs quarantine each one, and strict runs report the
// first in file order even when a later twin was built first.
TEST(StreamShapeJobs, RepeatedCorruptJobsKeepTheirDiagnostics) {
  for (const bool cycle : {false, true}) {
    SCOPED_TRACE(cycle ? "cycle" : "duplicate index");
    const std::string csv = twin_blocks(
        12, "j_c",
        cycle ? +[](std::size_t) -> std::vector<std::string> {
          return {"M1_3", "M2_1", "R3_2"};
        }
              : +[](std::size_t) -> std::vector<std::string> {
                  return {"M1", "M1", "R2_1"};
                });

    util::Diagnostics expected_diagnostics(64);
    IngestOptions lenient;
    lenient.diagnostics = &expected_diagnostics;
    std::istringstream oracle_in(csv);
    const oracle::Ingest expected = oracle::stream_dag_jobs(oracle_in, lenient);
    EXPECT_EQ(expected_diagnostics.count_of(
                  "dag", cycle ? "cycle" : "duplicate-index"),
              24u);

    std::string expected_error;
    try {
      IngestOptions strict;
      strict.strict = true;
      std::istringstream strict_in(csv);
      oracle::stream_dag_jobs(strict_in, strict);
    } catch (const util::GraphError& e) {
      expected_error = e.what();
    }
    EXPECT_NE(expected_error.find("j_c_early0"), std::string::npos)
        << expected_error;

    std::vector<StreamRun> runs = every_run();
    for (int round = 0; round < 5; ++round) {
      runs.push_back({2, 8 * FixedRows::kLine});
      runs.push_back({4, 8 * FixedRows::kLine});
    }
    for (const StreamRun& run : runs) {
      SCOPED_TRACE(run.label());
      util::Diagnostics diagnostics(64);
      IngestOptions options;
      options.diagnostics = &diagnostics;
      const InternedIngest got = ingest(csv, run, options);
      EXPECT_EQ(got.stats.eligible, expected.stats.eligible);
      EXPECT_EQ(got.stats.dags, expected.stats.dags);
      EXPECT_EQ(got.table.total_jobs, expected.dags.size());
      EXPECT_EQ(diagnostics_of(diagnostics),
                diagnostics_of(expected_diagnostics));

      options = {};
      options.strict = true;
      std::string error;
      try {
        ingest(csv, run, options);
      } catch (const util::GraphError& e) {
        error = e.what();
      }
      EXPECT_EQ(error, expected_error);
    }
  }
}

}  // namespace
}  // namespace cwgl::core

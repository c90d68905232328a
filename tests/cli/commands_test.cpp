#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/row_scale.hpp"
#include "model/format.hpp"
#include "serve/classifier.hpp"
#include "serve/daemon.hpp"
#include "util/json.hpp"

namespace cwgl::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"cwgl"};
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  std::ostringstream out, err;
  CliResult r;
  r.code = run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage: cwgl"), std::string::npos);
}

TEST(Cli, HelpPrintsUsage) {
  const auto r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("characterize"), std::string::npos);
}

TEST(Cli, UnknownCommandRejected) {
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownOptionRejected) {
  const auto r = run({"census", "--jobs", "200", "--bogus", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

TEST(Cli, CensusOnGeneratedTrace) {
  const auto r = run({"census", "--jobs", "500", "--seed", "7"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("jobs with dependencies"), std::string::npos);
  EXPECT_NE(r.out.find("straight-chain"), std::string::npos);
  EXPECT_NE(r.out.find("distinct topologies"), std::string::npos);
}

TEST(Cli, GenerateRequiresOut) {
  const auto r = run({"generate", "--jobs", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(Cli, GenerateThenCensusRoundTrip) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "cwgl_cli_trace").string();
  std::filesystem::remove_all(dir);
  const auto gen = run({"generate", "--out", dir.c_str(), "--jobs", "300",
                        "--no-instances"});
  EXPECT_EQ(gen.code, 0) << gen.err;
  ASSERT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      "batch_task.csv"));
  const auto census = run({"census", "--trace", dir.c_str()});
  EXPECT_EQ(census.code, 0) << census.err;
  EXPECT_NE(census.out.find("loaded"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Cli, CharacterizePrintsEveryFigure) {
  const auto r = run({"characterize", "--jobs", "800", "--sample", "30"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Fig 3"), std::string::npos);
  EXPECT_NE(r.out.find("Fig 4"), std::string::npos);
  EXPECT_NE(r.out.find("Fig 5"), std::string::npos);
  EXPECT_NE(r.out.find("Fig 6"), std::string::npos);
  EXPECT_NE(r.out.find("Fig 7"), std::string::npos);
  EXPECT_NE(r.out.find("Fig 9"), std::string::npos);
  EXPECT_NE(r.out.find("Group A"), std::string::npos);
}

TEST(Cli, ClusterWritesMedoids) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "cwgl_cli_medoids").string();
  std::filesystem::remove_all(dir);
  const auto r = run({"cluster", "--jobs", "800", "--sample", "30",
                      "--clusters", "3", "--out", dir.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / "group_A.dot"));
  std::filesystem::remove_all(dir);
}

TEST(Cli, SimilarityMatrixShape) {
  const auto r = run({"similarity", "--jobs", "600", "--sample", "10",
                      "--matrix"});
  EXPECT_EQ(r.code, 0) << r.err;
  // 10 CSV rows with 9 commas each after the summary.
  std::size_t commas = 0;
  for (char c : r.out) commas += (c == ',');
  EXPECT_GE(commas, 90u);
}

TEST(Cli, IngestSerialOnGeneratedJobs) {
  const auto r = run({"ingest", "--jobs", "400", "--serial"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mode:        serial"), std::string::npos);
  EXPECT_NE(r.out.find("throughput:"), std::string::npos);
  EXPECT_NE(r.out.find("DAG jobs"), std::string::npos);
}

TEST(Cli, IngestPooledOnTraceDirectory) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "cwgl_cli_ingest").string();
  std::filesystem::remove_all(dir);
  const auto gen = run({"generate", "--out", dir.c_str(), "--jobs", "300",
                        "--no-instances"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  const auto r = run({"ingest", "--trace", dir.c_str(), "--threads", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("pooled (2 workers)"), std::string::npos);
  EXPECT_NE(r.out.find("MB/s"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Cli, IngestMissingTraceRejected) {
  const auto r = run({"ingest", "--trace", "/nonexistent/cwgl"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, ScheduleComparesPolicies) {
  const auto r = run({"schedule", "--jobs", "600", "--sample", "40",
                      "--machines", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fifo"), std::string::npos);
  EXPECT_NE(r.out.find("group-hint"), std::string::npos);
  EXPECT_NE(r.out.find("shortest-job-first"), std::string::npos);
}

TEST(Cli, ScheduleWithOnlineLoadReportsPreemptions) {
  const auto r = run({"schedule", "--jobs", "600", "--sample", "40",
                      "--machines", "2", "--online", "0.4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("preempt"), std::string::npos);
}

TEST(Cli, ComparesTwoGeneratedDays) {
  const auto r = run({"compare", "--jobs", "800", "--seed", "3", "--seed-b", "4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("headline drift"), std::string::npos);
  EXPECT_NE(r.out.find("shape mix"), std::string::npos);
}

TEST(Cli, CharacterizeJsonIsParseable) {
  const auto r = run({"characterize", "--jobs", "600", "--sample", "15",
                      "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  // Balanced braces outside strings is covered by report_json tests; here
  // just confirm no text report leaked into the stream.
  EXPECT_EQ(r.out.find("Fig 3"), std::string::npos);
  EXPECT_NE(r.out.find("\"fig3\""), std::string::npos);
}

TEST(Cli, JctReportsHeldOutQuality) {
  const auto r = run({"jct", "--jobs", "1500", "--sample", "120"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("R^2"), std::string::npos);
  EXPECT_NE(r.out.find("held-out"), std::string::npos);
  EXPECT_NE(r.out.find("predicted"), std::string::npos);
}

TEST(Cli, MissingTraceDirectoryIsCleanError) {
  const auto r = run({"census", "--trace", "/nonexistent/cwgl"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, IngestJsonReportHasThroughputAndDiagnostics) {
  const auto r = run({"ingest", "--jobs", "400", "--serial", "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  const util::JsonValue doc = util::parse_json(r.out);
  EXPECT_EQ(doc.at("schema").as_string(), "cwgl-ingest-v1");
  EXPECT_EQ(doc.at("mode").as_string(), "serial");
  EXPECT_GT(doc.at("input").at("rows").as_number(), 0.0);
  EXPECT_GE(doc.at("elapsed_ms").as_number(), 0.0);
  EXPECT_GT(doc.at("throughput").at("rows_per_s").as_number(), 0.0);
  EXPECT_GT(doc.at("built").at("dags").as_number(), 0.0);
  EXPECT_TRUE(doc.at("diagnostics").is_object());
  // No --metrics flag: the snapshot is not embedded.
  EXPECT_FALSE(doc.contains("metrics"));
}

TEST(Cli, IngestMetricsFlagEmbedsSnapshotInJson) {
  const auto r = run({"ingest", "--jobs", "400", "--serial", "--json",
                      "--metrics"});
  EXPECT_EQ(r.code, 0) << r.err;
  const util::JsonValue doc = util::parse_json(r.out);
  const util::JsonValue& counters = doc.at("metrics").at("counters");
  EXPECT_GT(counters.at("ingest.scanner.rows").as_number(), 0.0);
  EXPECT_GT(counters.at("ingest.dag.built").as_number(), 0.0);
}

TEST(Cli, IngestMetricsTextSection) {
  const auto r = run({"ingest", "--jobs", "400", "--serial", "--metrics"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("metrics:"), std::string::npos);
  EXPECT_NE(r.out.find("ingest.stream.rows"), std::string::npos);
}

TEST(Cli, IngestMetricsFileAndTraceOut) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "cwgl_cli_obs").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string metrics_path = dir + "/metrics.json";
  const std::string trace_path = dir + "/trace.json";
  const auto r = run({"ingest", "--jobs", "400", "--threads", "2",
                      ("--metrics=" + metrics_path).c_str(), "--trace-out",
                      trace_path.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };

  const util::JsonValue metrics = util::parse_json(slurp(metrics_path));
  EXPECT_GT(metrics.at("counters").at("ingest.stream.rows").as_number(), 0.0);

  const util::JsonValue trace = util::parse_json(slurp(trace_path));
  EXPECT_EQ(trace.at("displayTimeUnit").as_string(), "ms");
  const auto& events = trace.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  bool saw_stream = false;
  for (const auto& e : events) {
    if (e.at("name").as_string() == "ingest.stream") saw_stream = true;
  }
  EXPECT_TRUE(saw_stream);
  std::filesystem::remove_all(dir);
}

TEST(Cli, CharacterizeJsonEmbedsTimingsAndMetrics) {
  const auto r = run({"characterize", "--jobs", "600", "--sample", "15",
                      "--json", "--metrics"});
  EXPECT_EQ(r.code, 0) << r.err;
  const util::JsonValue doc = util::parse_json(r.out);
  EXPECT_GE(doc.at("timings").at("pipeline_ms").as_number(), 0.0);
  EXPECT_GE(doc.at("timings").at("total_ms").as_number(), 0.0);
  const auto subsystems = [&doc] {
    std::set<std::string> subs;
    for (const auto& [name, value] :
         doc.at("metrics").at("counters").as_object()) {
      const auto second_dot = name.find('.', name.find('.') + 1);
      subs.insert(name.substr(0, second_dot));
    }
    return subs;
  }();
  // The acceptance bar: one pipeline run covers at least 5 subsystems.
  EXPECT_GE(subsystems.size(), 5u) << [&subsystems] {
    std::string joined;
    for (const auto& s : subsystems) joined += s + " ";
    return joined;
  }();
}

TEST(Cli, PipelineAliasMatchesCharacterize) {
  const auto r = run({"pipeline", "--jobs", "500", "--sample", "10"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Fig 3"), std::string::npos);
}

// End-to-end model store + serving: fit persists a snapshot, predict
// classifies a fresh CSV against it, serve-bench measures throughput — the
// same sequence scripts/check.sh runs in its serve-smoke pass.
TEST(Cli, FitPredictServeBenchRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "cwgl_cli_fit_test";
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "model.cwgl").string();

  const auto fit = run({"fit", "--jobs", "300", "--seed", "7", "--sample",
                        "40", "--clusters", "3", "--out", model.c_str()});
  EXPECT_EQ(fit.code, 0) << fit.err;
  EXPECT_NE(fit.out.find("self-check: 40/40"), std::string::npos) << fit.out;
  ASSERT_TRUE(std::filesystem::exists(model));

  const std::string csv = (dir / "probe.csv").string();
  {
    std::ofstream probe(csv);
    probe << "M1,1,j_chain,1,Terminated,100,200,100.00,0.50\n"
          << "R2_1,1,j_chain,1,Terminated,200,300,100.00,0.50\n"
          << "J3_2,1,j_chain,1,Terminated,300,400,50.00,0.25\n";
  }
  const auto predict =
      run({"predict", "--model", model.c_str(), csv.c_str(), "--json"});
  EXPECT_EQ(predict.code, 0) << predict.err;
  const util::JsonValue pdoc = util::parse_json(predict.out);
  EXPECT_EQ(pdoc.at("schema").as_string(), "cwgl-predict-v1");
  ASSERT_EQ(pdoc.at("jobs").as_array().size(), 1u);
  const auto& job = pdoc.at("jobs").as_array()[0];
  EXPECT_EQ(job.at("job").as_string(), "j_chain");
  EXPECT_GE(job.at("similarity").as_number(), 0.0);
  EXPECT_LE(job.at("similarity").as_number(), 1.0);
  EXPECT_GT(job.at("predicted").at("critical_path").as_number(), 0.0);

  const auto bench = run({"serve-bench", "--model", model.c_str(), "--jobs",
                          "80", "--threads", "2", "--repeat", "1", "--json"});
  EXPECT_EQ(bench.code, 0) << bench.err;
  const util::JsonValue bdoc = util::parse_json(bench.out);
  EXPECT_EQ(bdoc.at("schema").as_string(), "cwgl-serve-bench-v1");
  EXPECT_GT(bdoc.at("jobs_per_second").as_number(), 0.0);
  EXPECT_GE(bdoc.at("latency_us").at("p90").as_number(),
            bdoc.at("latency_us").at("p50").as_number());

  std::filesystem::remove_all(dir);
}

TEST(Cli, CharacterizeMetricsCountTheSampleShapes) {
  const auto r = run({"characterize", "--jobs", "600", "--sample", "20",
                      "--json", "--metrics"});
  EXPECT_EQ(r.code, 0) << r.err;
  const util::JsonValue doc = util::parse_json(r.out);
  const util::JsonValue& counters = doc.at("metrics").at("counters");
  EXPECT_EQ(counters.at("intern.jobs").as_number(), 20.0);
  const double shapes = counters.at("intern.misses").as_number();
  EXPECT_GT(shapes, 0.0);
  EXPECT_LT(shapes, 20.0);
  EXPECT_EQ(counters.at("intern.hits").as_number() + shapes, 20.0);
  EXPECT_EQ(counters.at("intern.hash_collisions").as_number(), 0.0);
  // The figures stay per job; the shape table is not a report member.
  EXPECT_EQ(doc.at("fig6").at("rows").as_array().size(), 20u);
  EXPECT_EQ(doc.at("fig9").at("labels").as_array().size(), 20u);
  EXPECT_EQ(r.out.find("\"intern\""), std::string::npos);
}

TEST(Cli, CharacterizeTextReportsShapeInterning) {
  const auto r = run({"characterize", "--jobs", "600", "--sample", "20"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("shape interning:"), std::string::npos);
  EXPECT_NE(r.out.find("distinct shapes for 20 jobs"), std::string::npos);
  EXPECT_NE(r.out.find("Fig 3"), std::string::npos);
}

TEST(Cli, IngestInternReportsShapeTable) {
  const auto r = run({"ingest", "--jobs", "400", "--serial", "--intern",
                      "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  const util::JsonValue doc = util::parse_json(r.out);
  const util::JsonValue& intern = doc.at("intern");
  EXPECT_GT(intern.at("total_jobs").as_number(), 0.0);
  EXPECT_GT(intern.at("distinct_shapes").as_number(), 0.0);
  EXPECT_GT(doc.at("built").at("dags").as_number(), 0.0);
}

TEST(Cli, FitKeepsOneRepresentativePerSampledJob) {
  const auto dir =
      std::filesystem::temp_directory_path() / "cwgl_cli_fit_per_job_test";
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "model.cwgl").string();
  const auto fit = run({"fit", "--jobs", "300", "--seed", "7", "--sample",
                        "40", "--clusters", "3", "--json", "--out",
                        model.c_str()});
  EXPECT_EQ(fit.code, 0) << fit.err;
  // The sample repeats shapes, yet the snapshot holds every sampled job,
  // and every one of them reproduces its cluster.
  const util::JsonValue doc = util::parse_json(fit.out);
  EXPECT_EQ(doc.at("training_jobs").as_number(), 40.0);
  EXPECT_EQ(doc.at("representatives").as_number(), 40.0);
  EXPECT_EQ(doc.at("self_check").at("agree").as_number(), 40.0);
  EXPECT_EQ(doc.at("self_check").at("total").as_number(), 40.0);
  std::filesystem::remove_all(dir);
}

TEST(Cli, FitWithMoreClustersThanShapesPassesSelfCheck) {
  // The 20-job sample holds 16 distinct shapes: asking for 17 clusters
  // gives 16, so same-shape jobs cannot be split across groups.
  const auto dir =
      std::filesystem::temp_directory_path() / "cwgl_cli_fit_k17_test";
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "model.cwgl").string();
  const auto fit = run({"fit", "--jobs", "600", "--sample", "20",
                        "--clusters", "17", "--out", model.c_str()});
  EXPECT_EQ(fit.code, 0) << fit.err;
  EXPECT_NE(fit.out.find("fitted 16 clusters over 20 jobs"),
            std::string::npos)
      << fit.out;
  EXPECT_NE(fit.out.find("self-check: 20/20"), std::string::npos) << fit.out;
  std::filesystem::remove_all(dir);
}

TEST(Cli, ClusterDotFilesAreTheCharacterizeMedoids) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "cwgl_cli_medoid_names")
          .string();
  std::filesystem::remove_all(dir);
  const auto cluster = run({"cluster", "--seed", "5", "--out", dir});
  ASSERT_EQ(cluster.code, 0) << cluster.err;
  const auto characterize = run({"characterize", "--seed", "5", "--json"});
  ASSERT_EQ(characterize.code, 0) << characterize.err;
  const util::JsonValue doc = util::parse_json(characterize.out);
  const auto& names = doc.at("fig7").at("jobs").as_array();
  const auto& groups = doc.at("fig9").at("groups").as_array();
  ASSERT_EQ(groups.size(), 5u);
  for (const util::JsonValue& group : groups) {
    const std::string letter = group.at("group").as_string();
    const auto medoid =
        static_cast<std::size_t>(group.at("medoid").as_number());
    std::ifstream dot(std::filesystem::path(dir) /
                      ("group_" + letter + ".dot"));
    std::string header;
    ASSERT_TRUE(std::getline(dot, header)) << "group " << letter;
    EXPECT_EQ(header, "digraph \"" + names.at(medoid).as_string() + "\" {")
        << "group " << letter;
  }
  std::filesystem::remove_all(dir);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `cwgl-full-v1` JSON without its "timings" member, which varies per run.
std::string without_timings(const std::string& json) {
  const std::size_t at = json.find("\"timings\":{");
  if (at == std::string::npos) return json;
  return json.substr(0, at) + json.substr(json.find('}', at) + 1);
}

/// A scratch copy of tests/data/example_trace; removed on destruction.
struct TraceCopy {
  std::filesystem::path dir;

  explicit TraceCopy(const std::string& name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(std::string(CWGL_TEST_DATA_DIR) + "/example_trace",
                          dir, std::filesystem::copy_options::recursive);
  }
  ~TraceCopy() { std::filesystem::remove_all(dir); }
};

// `--full --trace` streams batch_task.csv alone: an instance "file" that
// cannot be read changes neither the snapshot nor the report, with either
// backend.
TEST(Cli, FullTraceReadsOnlyTheTaskFile) {
  const TraceCopy intact("cwgl_cli_full_intact");
  const TraceCopy squatted("cwgl_cli_full_squatted");
  std::filesystem::remove(squatted.dir / "batch_instance.csv");
  std::filesystem::create_directory(squatted.dir / "batch_instance.csv");

  for (const std::string full : {"--full", "--full=landmark"}) {
    SCOPED_TRACE(full);
    std::vector<std::string> snapshots, reports;
    for (const TraceCopy* copy : {&intact, &squatted}) {
      const std::string model = (copy->dir / "model.cwgl").string();
      const auto fit = run({"fit", full, "--trace", copy->dir.string(),
                            "--out", model});
      EXPECT_EQ(fit.code, 0) << fit.err;
      EXPECT_NE(fit.out.find("streamed 795 task rows"), std::string::npos)
          << fit.out;
      snapshots.push_back(slurp(model));
      const auto report = run({"characterize", full, "--trace",
                               copy->dir.string(), "--json"});
      EXPECT_EQ(report.code, 0) << report.err;
      reports.push_back(without_timings(report.out));
    }
    EXPECT_FALSE(snapshots[0].empty());
    EXPECT_EQ(snapshots[0], snapshots[1]);
    EXPECT_NE(reports[0].find("\"jobs\":138"), std::string::npos);
    EXPECT_EQ(reports[0], reports[1]);
  }
}

/// Moves the last row of the first `jobs` multi-row jobs of `tasks` to the
/// end of the file, so those jobs' rows are no longer contiguous.
void fragment_task_file(const std::filesystem::path& tasks, std::size_t jobs) {
  std::vector<std::string> rows;
  {
    std::ifstream in(tasks);
    for (std::string line; std::getline(in, line);) rows.push_back(line);
  }
  const auto job_of = [](const std::string& row) {
    const std::size_t a = row.find(',', row.find(',') + 1) + 1;
    return row.substr(a, row.find(',', a) - a);
  };
  std::vector<std::string> kept, moved;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bool last =
        i + 1 == rows.size() || job_of(rows[i + 1]) != job_of(rows[i]);
    const bool multi = i > 0 && job_of(rows[i - 1]) == job_of(rows[i]);
    (last && multi && moved.size() < jobs ? moved : kept).push_back(rows[i]);
  }
  ASSERT_EQ(moved.size(), jobs);
  std::ofstream out(tasks, std::ios::trunc);
  for (const auto* part : {&kept, &moved}) {
    for (const std::string& row : *part) out << row << "\n";
  }
}

// A task file whose jobs reappear after their rows ended is refused: exit
// 1, the count named, and no snapshot written.
TEST(Cli, FullTraceRejectsAFragmentedTaskFile) {
  const TraceCopy copy("cwgl_cli_full_fragmented");
  fragment_task_file(copy.dir / "batch_task.csv", 11);
  const std::string model = (copy.dir / "model.cwgl").string();
  const auto fit = run({"fit", "--full", "--trace", copy.dir.string(),
                        "--out", model});
  EXPECT_EQ(fit.code, 1);
  EXPECT_NE(fit.err.find("11 job group"), std::string::npos) << fit.err;
  EXPECT_FALSE(std::filesystem::exists(model));
  const auto report = run({"characterize", "--full", "--trace",
                           copy.dir.string(), "--json"});
  EXPECT_EQ(report.code, 1);
  EXPECT_NE(report.err.find("contiguous"), std::string::npos) << report.err;
}

// `predict` streams its task file too, under the same rule: a fragmented
// file exits 1 naming the count, and prints no partial report.
TEST(Cli, PredictRejectsAFragmentedTaskFile) {
  const TraceCopy copy("cwgl_cli_predict_fragmented");
  const std::filesystem::path tasks = copy.dir / "batch_task.csv";
  fragment_task_file(tasks, 3);
  const std::string model =
      std::string(CWGL_TEST_DATA_DIR) + "/example_model.cwgl";
  for (const bool json : {false, true}) {
    std::vector<std::string> argv{"predict", "--model", model, tasks.string()};
    if (json) argv.push_back("--json");
    const auto r = run(argv);
    EXPECT_EQ(r.code, 1) << r.out;
    EXPECT_NE(r.err.find("3 job group"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("contiguous"), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "");
  }
}

// A task file that opens but cannot be read, here a directory, is an I/O
// error naming the file, not a file without jobs; stdout stays empty.
TEST(Cli, PredictOnAnUnreadableTaskFileIsAnIoError) {
  const std::string model =
      std::string(CWGL_TEST_DATA_DIR) + "/example_model.cwgl";
  const std::string dir = std::string(CWGL_TEST_DATA_DIR) + "/example_trace";
  for (const bool json : {false, true}) {
    std::vector<std::string> argv{"predict", "--model", model, dir};
    if (json) argv.push_back("--json");
    const auto r = run(argv);
    EXPECT_EQ(r.code, 1) << r.err;
    EXPECT_NE(r.err.find("predict: I/O error while reading " + dir),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.out, "");
  }
}

// `predict` takes the observation switches `fit` takes: --json --metrics
// appends the snapshot as a "metrics" member, and --trace-out records the
// snapshot load, the stream and the write. Neither changes a prediction.
TEST(Cli, PredictMetricsAndSpans) {
  const TraceCopy copy("cwgl_cli_predict_obs");
  const std::string model =
      std::string(CWGL_TEST_DATA_DIR) + "/example_model.cwgl";
  const std::string tasks = (copy.dir / "batch_task.csv").string();
  const std::filesystem::path trace_out = copy.dir / "spans.json";
  const auto plain = run({"predict", "--model", model, tasks, "--json"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  const auto observed = run({"predict", "--model", model, tasks, "--json",
                             "--metrics", "--trace-out", trace_out.string()});
  ASSERT_EQ(observed.code, 0) << observed.err;
  // Same document up to its closing brace, plus the metrics member.
  const std::string head = plain.out.substr(0, plain.out.size() - 2);
  EXPECT_EQ(observed.out.compare(0, head.size(), head), 0) << observed.out;
  EXPECT_EQ(observed.out.compare(head.size(), 11, ",\"metrics\":"), 0);
  const util::JsonValue doc = util::parse_json(observed.out);
  const auto& counters = doc.at("metrics").at("counters");
  EXPECT_EQ(counters.at("ingest.stream.rows").as_number(), 795.0);
  // A job repeating an earlier job's structure is a memo hit, not a
  // classification: the example trace's 138 DAG jobs hold 39 structures.
  EXPECT_EQ(counters.at("serve.classify.jobs").as_number() +
                counters.at("predict.memo.hits").as_number(),
            static_cast<double>(doc.at("jobs").as_array().size()));
  EXPECT_GT(counters.at("predict.memo.hits").as_number(), 0.0);
  // Each scan re-scores exactly at least its nearest representative.
  EXPECT_GT(counters.at("serve.classify.scans").as_number(), 0.0);
  EXPECT_GE(counters.at("serve.classify.rechecks").as_number(),
            counters.at("serve.classify.scans").as_number());

  std::map<std::string, std::vector<const util::JsonValue*>> ends;
  const util::JsonValue spans = util::parse_json(slurp(trace_out));
  for (const auto& e : spans.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "E") {
      ends[e.at("name").as_string()].push_back(&e);
    }
  }
  for (const char* name : {"predict.load", "ingest.stream", "predict.write"}) {
    EXPECT_EQ(ends[name].size(), 1u) << name;
  }
  ASSERT_EQ(ends["predict.write"].size(), 1u);
  EXPECT_EQ(ends["predict.write"][0]->at("args").at("jobs").as_number(),
            static_cast<double>(doc.at("jobs").as_array().size()));

  const auto text = run({"predict", "--model", model, tasks, "--metrics"});
  ASSERT_EQ(text.code, 0) << text.err;
  EXPECT_NE(text.out.find("\nmetrics:\n"), std::string::npos) << text.out;
  EXPECT_EQ(text.out.compare(0, 11, "classified "), 0) << text.out;
}

// A streamed run records the same stage spans as a generated one: the
// intern stage, with its job count, wraps the streaming ingest, and
// featurize, clustering and validation follow it. The run's span carries
// the caller's wait for the validation, and the k-means span the width of
// the shrink kernel that ran.
TEST(Cli, FullTraceStreamKeepsTheStageSpans) {
  const TraceCopy copy("cwgl_cli_full_spans");
  const std::filesystem::path trace_out = copy.dir / "spans.json";
  const auto r = run({"characterize", "--full", "--trace", copy.dir.string(),
                      "--json", "--trace-out", trace_out.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  std::map<std::string, std::vector<const util::JsonValue*>> ends;
  const util::JsonValue doc = util::parse_json(slurp(trace_out));
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "E") {
      ends[e.at("name").as_string()].push_back(&e);
    }
  }
  for (const char* name : {"pipeline.run_full", "pipeline.full_intern",
                           "ingest.intern", "pipeline.full_featurize",
                           "cluster.scale", "pipeline.full_validate"}) {
    EXPECT_EQ(ends[name].size(), 1u) << name;
  }
  ASSERT_EQ(ends["pipeline.full_intern"].size(), 1u);
  EXPECT_EQ(ends["pipeline.full_intern"][0]->at("args").at("jobs").as_number(),
            138.0);
  ASSERT_EQ(ends["pipeline.run_full"].size(), 1u);
  EXPECT_TRUE(ends["pipeline.run_full"][0]->at("args").contains(
      "validate_wait_us"));
  ASSERT_EQ(ends["cluster.minibatch_kmeans"].size(), 1u);
  EXPECT_EQ(ends["cluster.minibatch_kmeans"][0]
                ->at("args")
                .at("vector_bytes")
                .as_number(),
            static_cast<double>(cluster::row_scale_kernel().vector_bytes));
}

// `fit` takes the observability flags `characterize` takes: --json embeds
// the metrics snapshot, and --trace-out records the pipeline's stages and
// then the self-check as `fit.selfcheck`, whose args repeat the JSON's
// self-check counts. Text mode appends the snapshot. Neither flag changes
// the snapshot.
TEST(Cli, FullTraceFitMetricsAndSelfCheckSpan) {
  const TraceCopy copy("cwgl_cli_fit_obs");
  const std::filesystem::path model = copy.dir / "model.cwgl";
  const std::filesystem::path observed = copy.dir / "observed.cwgl";
  const std::filesystem::path trace_out = copy.dir / "spans.json";
  const auto plain = run({"fit", "--full", "--trace", copy.dir.string(),
                          "--out", model.string(), "--json"});
  ASSERT_EQ(plain.code, 0) << plain.err;
  EXPECT_FALSE(util::parse_json(plain.out).contains("metrics"));
  const auto r = run({"fit", "--full", "--trace", copy.dir.string(), "--out",
                      observed.string(), "--json", "--metrics",
                      "--trace-out", trace_out.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(slurp(observed), slurp(model));
  const util::JsonValue doc = util::parse_json(r.out);
  EXPECT_GT(doc.at("metrics").at("counters").at("serve.classify.jobs")
                .as_number(),
            0.0);
  std::map<std::string, std::vector<const util::JsonValue*>> ends;
  const util::JsonValue spans = util::parse_json(slurp(trace_out));
  for (const auto& e : spans.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "E") {
      ends[e.at("name").as_string()].push_back(&e);
    }
  }
  EXPECT_EQ(ends["pipeline.run_full"].size(), 1u);
  EXPECT_EQ(ends["cluster.minibatch_kmeans"].size(), 1u);
  ASSERT_EQ(ends["fit.selfcheck"].size(), 1u);
  const util::JsonValue& args = ends["fit.selfcheck"][0]->at("args");
  EXPECT_EQ(args.at("shapes").as_number(),
            doc.at("self_check").at("total").as_number());
  EXPECT_EQ(args.at("agree").as_number(),
            doc.at("self_check").at("agree").as_number());

  const auto text = run({"fit", "--full", "--trace", copy.dir.string(),
                         "--out", observed.string(), "--metrics"});
  ASSERT_EQ(text.code, 0) << text.err;
  EXPECT_NE(text.out.find("\nmetrics:\n"), std::string::npos) << text.out;
  EXPECT_NE(text.out.find("serve.classify.jobs"), std::string::npos);
}

// Without batch_task.csv there is nothing to stream: exit 1, naming it.
TEST(Cli, FullTraceWithoutTaskFileNamesIt) {
  const TraceCopy copy("cwgl_cli_full_no_tasks");
  std::filesystem::remove(copy.dir / "batch_task.csv");
  const std::string missing = (copy.dir / "batch_task.csv").string();
  const auto fit = run({"fit", "--full", "--trace", copy.dir.string(),
                        "--out", (copy.dir / "model.cwgl").string()});
  EXPECT_EQ(fit.code, 1);
  EXPECT_NE(fit.err.find(missing), std::string::npos) << fit.err;
  const auto report =
      run({"characterize", "--full", "--trace", copy.dir.string()});
  EXPECT_EQ(report.code, 1);
  EXPECT_NE(report.err.find(missing), std::string::npos) << report.err;
}

TEST(Cli, PredictAgainstCorruptModelIsCleanError) {
  const auto dir =
      std::filesystem::temp_directory_path() / "cwgl_cli_badmodel_test";
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "bad.cwgl").string();
  {
    std::ofstream bad(model, std::ios::binary);
    bad << "CWGLMDL1 this is not a real snapshot";
  }
  const std::string csv = (dir / "probe.csv").string();
  {
    std::ofstream probe(csv);
    probe << "M1,1,j_x,1,Terminated,100,200,100.00,0.50\n"
          << "R2_1,1,j_x,1,Terminated,200,300,100.00,0.50\n";
  }
  const auto r = run({"predict", "--model", model.c_str(), csv.c_str()});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("model"), std::string::npos) << r.err;
  std::filesystem::remove_all(dir);
}

TEST(Cli, ServeBenchRequiresModel) {
  const auto r = run({"serve-bench", "--jobs", "50"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--model"), std::string::npos);
}

// Every command `help` lists is checked against its synopsis before it
// runs: an undeclared flag exits 2, names the flag and prints nothing on
// stdout (no "generated ..." progress line, no partial report).
TEST(CliTable, EveryCommandRejectsAnUndeclaredFlagBeforeRunning) {
  const auto help = run({"help"});
  ASSERT_EQ(help.code, 0);
  std::vector<std::string> commands{"pipeline"};
  std::istringstream lines(help.out);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 2 && line.compare(0, 2, "  ") == 0 && line[2] != ' ') {
      commands.push_back(line.substr(2, line.find(' ', 2) - 2));
    }
  }
  ASSERT_GE(commands.size(), 15u) << help.out;
  for (const std::string& command : commands) {
    if (command == "help") continue;
    const auto r = run({command, "--bogus"});
    EXPECT_EQ(r.code, 2) << command;
    EXPECT_NE(r.err.find("--bogus"), std::string::npos) << command << r.err;
    EXPECT_EQ(r.out, "") << command;
  }
}

// A flag that would change nothing for a command is not in its synopsis.
TEST(CliTable, IgnoredFlagsAreRejected) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"similarity", "--jobs", "300", "--clusters", "9"}, "--clusters"},
      {{"jct", "--jobs", "300", "--clusters", "3"}, "--clusters"},
      {{"jct", "--jobs", "300", "--wl-iterations", "7"}, "--wl-iterations"},
      {{"jct", "--jobs", "300", "--intern"}, "--intern"},
      {{"cluster", "--jobs", "300", "--intern"}, "--intern"},
      {{"similarity", "--jobs", "300", "--intern"}, "--intern"},
      {{"schedule", "--jobs", "300", "--intern"}, "--intern"},
      {{"schedule", "--jobs", "300", "--natural"}, "--natural"},
      {{"predict", "--model", "m.cwgl", "--input", "jobs.csv"}, "--input"},
      {{"characterize", "--jobs", "300", "--intern"}, "--intern"},
      {{"fit", "--jobs", "300", "--intern"}, "--intern"},
  };
  for (const auto& [argv, flag] : cases) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, 2) << argv[0] << " " << flag;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "");
  }
}

// A value-less flag never swallows the word after it: that word is the
// command's operand, or a surplus operand the command rejects.
TEST(CliTable, ValueLessFlagLeavesTheOperandAlone) {
  const std::string model =
      std::string(CWGL_TEST_DATA_DIR) + "/example_model.cwgl";
  const std::string csv = std::string(CWGL_TEST_DATA_DIR) + "/probe_jobs.csv";
  const auto before = run({"predict", "--model", model, "--json", csv});
  EXPECT_EQ(before.code, 0) << before.err;
  const auto after = run({"predict", "--model", model, csv, "--json"});
  EXPECT_EQ(after.code, 0) << after.err;
  EXPECT_EQ(before.out, after.out);
  EXPECT_EQ(util::parse_json(before.out).at("schema").as_string(),
            "cwgl-predict-v1");

  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"characterize", "--jobs", "300", "--natural", "5"}, "5"},
      {{"census", "extra"}, "extra"},
      {{"predict", "--model", model, csv, "second.csv"}, "second.csv"},
  };
  for (const auto& [argv, operand] : cases) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, 2) << argv[0];
    EXPECT_NE(r.err.find(operand), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "");
  }
}

// Combinations the handlers cannot honor exit 2 with a message that names
// the conflict, before any trace is read or generated.
TEST(CliTable, ConflictingFlagsAreRejected) {
  const std::string trace = std::string(CWGL_TEST_DATA_DIR) + "/example_trace";
  const std::vector<std::vector<std::string>> cases = {
      {"census", "--trace", trace, "--jobs", "50"},
      {"characterize", "--trace", trace, "--seed", "3"},
      {"cluster", "--trace", trace, "--jobs", "50"},
      {"similarity", "--trace", trace, "--seed", "3"},
      {"fit", "--trace", trace, "--jobs", "50", "--out", "unused.cwgl"},
      {"jct", "--trace", trace, "--seed", "3"},
      {"schedule", "--trace", trace, "--jobs", "50"},
      {"ingest", "--trace", trace, "--seed", "3"},
      {"compare", "--trace", trace, "--trace-b", trace, "--jobs", "50"},
      {"compare", "--trace", trace, "--trace-b", trace, "--seed", "3"},
      {"compare", "--trace", trace, "--trace-b", trace, "--seed-b", "4"},
      {"client", "--port", "1", "--ping", "--stats"},
      {"client", "--port", "1", "--drain", "--reload"},
      {"client", "--port", "1", "--ping", "--job", "j"},
      {"client", "--port", "1", "--stats", "--deadline-ms", "5"},
      {"client", "--port", "1", "--ping", "--tasks", "M1", "--job", "j"},
      {"serve", "--model", "m.cwgl", "--port", "0", "--telemetry-interval",
       "1"},
  };
  for (const auto& argv : cases) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, 2) << argv[0] << " " << argv.back();
    EXPECT_EQ(r.out, "") << argv[0];
    EXPECT_FALSE(r.err.empty());
    EXPECT_EQ(r.err.find("unknown option"), std::string::npos) << r.err;
  }
}

// `compare` with one trace names the missing one instead of comparing two
// generated traces.
TEST(CliTable, CompareNeedsBothTraces) {
  const std::string trace = std::string(CWGL_TEST_DATA_DIR) + "/example_trace";
  const auto only_a = run({"compare", "--trace", trace});
  EXPECT_EQ(only_a.code, 2);
  EXPECT_NE(only_a.err.find("--trace-b"), std::string::npos) << only_a.err;
  EXPECT_EQ(only_a.out, "");
  const auto only_b = run({"compare", "--trace-b", trace});
  EXPECT_EQ(only_b.code, 2);
  EXPECT_NE(only_b.err.find("--trace DIR"), std::string::npos) << only_b.err;
  EXPECT_EQ(only_b.out, "");
}

// The command lines cwgl_bench runs are accepted.
TEST(CliTable, BenchmarkCommandLinesAreAccepted) {
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_cli_bench_argv";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "model.cwgl").string();
  const auto fit = run({"fit", "--full", "--trace",
                        std::string(CWGL_TEST_DATA_DIR) + "/example_trace",
                        "--out", model, "--json"});
  EXPECT_EQ(fit.code, 0) << fit.err;
  EXPECT_EQ(util::parse_json(fit.out).at("schema").as_string(), "cwgl-fit-v1");
  const auto predict =
      run({"predict", "--model", model,
           std::string(CWGL_TEST_DATA_DIR) + "/probe_jobs.csv", "--json"});
  EXPECT_EQ(predict.code, 0) << predict.err;
  // A missing snapshot fails the load (exit 1), not the command line (2).
  const std::string missing = (dir / "missing.cwgl").string();
  const std::string socket = (dir / "s.sock").string();
  const std::string telemetry = (dir / "metrics.prom").string();
  const auto serve = run({"serve", "--model", missing, "--socket", socket,
                          "--threads", "2", "--metrics", "--trace-buffer",
                          "65536", "--telemetry-out", telemetry,
                          "--telemetry-interval", "0.5"});
  EXPECT_EQ(serve.code, 1) << serve.err;
  EXPECT_NE(serve.err.find("error:"), std::string::npos) << serve.err;
  std::filesystem::remove_all(dir);
}

// `predict` only classifies; the completion-time regression is `jct`.
TEST(CliTable, PredictWithoutModelPointsAtJct) {
  for (const auto& argv : std::vector<std::vector<std::string>>{
           {"predict", "--jobs", "300", "--sample", "30"},
           {"predict", std::string(CWGL_TEST_DATA_DIR) + "/probe_jobs.csv"}}) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("cwgl jct"), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "");
  }
  const auto jct = run({"jct", "--jobs", "300", "--sample", "30"});
  EXPECT_EQ(jct.code, 0) << jct.err;
  EXPECT_NE(jct.out.find("completion-time predictor"), std::string::npos);
}

// `help`, `--help` and `-h` print the same text, one entry per command.
TEST(CliTable, HelpListsEveryCommandOnce) {
  const auto help = run({"help"});
  ASSERT_EQ(help.code, 0);
  EXPECT_EQ(help.err, "");
  std::multiset<std::string> listed;
  std::istringstream lines(help.out);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > 2 && line.compare(0, 2, "  ") == 0 && line[2] != ' ') {
      listed.insert(line.substr(2, line.find(' ', 2) - 2));
    }
  }
  EXPECT_EQ(listed, (std::multiset<std::string>{
                        "census", "characterize", "client", "cluster",
                        "compare", "fit", "generate", "help", "ingest", "jct",
                        "predict", "schedule", "serve", "serve-bench",
                        "similarity"}));
  EXPECT_NE(help.out.find("(alias: pipeline)"), std::string::npos);
  EXPECT_EQ(run({"--help"}).out, help.out);
  EXPECT_EQ(run({"-h"}).out, help.out);
}

// A rejected command line names every undeclared flag and surplus operand,
// then prints that command's own help entry and no other.
TEST(CliTable, RejectionShowsThatCommandsEntry) {
  const auto r =
      run({"similarity", "--bogus", "--clusters", "9", "extra", "--matrix"});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.out, "");
  EXPECT_NE(r.err.find("--bogus --clusters extra"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("WL similarity summary"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("[--wl-iterations H] [--matrix]"), std::string::npos);
  EXPECT_EQ(r.err.find("census"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find("usage: cwgl"), std::string::npos) << r.err;
}

// `--key=VALUE` is checked like `--key VALUE` and means the same.
TEST(CliTable, EqualsFormMatchesSpacedForm) {
  const auto spaced =
      run({"compare", "--jobs", "800", "--seed", "3", "--seed-b", "4"});
  ASSERT_EQ(spaced.code, 0) << spaced.err;
  const auto joined = run({"compare", "--jobs=800", "--seed=3", "--seed-b=4"});
  EXPECT_EQ(joined.code, 0) << joined.err;
  EXPECT_EQ(joined.out, spaced.out);
  const auto bogus = run({"compare", "--jobs=800", "--bogus=1"});
  EXPECT_EQ(bogus.code, 2);
  EXPECT_NE(bogus.err.find("--bogus"), std::string::npos) << bogus.err;
  EXPECT_EQ(bogus.out, "");
}

// The flags handlers honored before `help` listed them are declared now,
// so these command lines run (or fail on their endpoint or model with
// exit 1) rather than exit 2.
TEST(CliTable, FlagsHandlersHonorAreDeclared) {
  const std::string trace = std::string(CWGL_TEST_DATA_DIR) + "/example_trace";
  const std::vector<std::pair<std::vector<std::string>, int>> cases = {
      {{"cluster", "--jobs", "300", "--sample", "20", "--natural",
        "--wl-iterations", "2"},
       0},
      {{"similarity", "--jobs", "300", "--seed", "3", "--sample", "10",
        "--natural", "--wl-iterations", "2"},
       0},
      {{"schedule", "--trace", trace, "--sample", "20", "--clusters", "3",
        "--wl-iterations", "2"},
       0},
      {{"jct", "--jobs", "300", "--sample", "30", "--natural"}, 0},
      {{"serve", "--model", "/nonexistent/m.cwgl", "--port", "0",
        "--trace-out", "/nonexistent/t.json"},
       1},
      {{"client", "--port", "1", "--ping", "--watch-count", "1"}, 1},
  };
  for (const auto& [argv, code] : cases) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, code) << argv[0] << ": " << r.err;
    EXPECT_EQ(r.err.find("unknown option"), std::string::npos) << r.err;
  }
}

// A flag that counts, sizes or times something exits 2 on a negative value
// or one its type cannot hold, naming the flag, before any work starts; so
// do fewer than 1 cluster and more WL iterations than a model holds (64).
// Every case but the first (which a build without the check runs as a
// label-only characterize) also names a trace or model that does not exist:
// such a build fails on that input instead of starting 4,294,967,295
// workers or generating SIZE_MAX jobs.
TEST(CliTable, NegativeOrOversizedCountsAreUsageErrors) {
  const std::string trace = "/nonexistent/cwgl-trace";
  const std::string model = "/nonexistent/cwgl-model.cwgl";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"characterize", "--wl-iterations", "-1"}, "--wl-iterations"},
      {{"characterize", "--trace", trace, "--wl-iterations", "2147483648"},
       "--wl-iterations"},
      {{"fit", "--trace", trace, "--wl-iterations", "-1"}, "--wl-iterations"},
      {{"characterize", "--trace", trace, "--sample", "-1"}, "--sample"},
      {{"cluster", "--trace", trace, "--sample", "-1"}, "--sample"},
      {{"similarity", "--trace", trace, "--wl-iterations", "-2"},
       "--wl-iterations"},
      {{"jct", "--trace", trace, "--sample", "-1"}, "--sample"},
      {{"schedule", "--trace", trace, "--machines", "-1"}, "--machines"},
      {{"ingest", "--trace", trace, "--threads", "-1"}, "--threads"},
      {{"serve-bench", "--model", model, "--threads", "-1"}, "--threads"},
      {{"serve-bench", "--model", model, "--threads", "4294967296"},
       "--threads"},
      {{"serve-bench", "--model", model, "--jobs", "-1"}, "--jobs"},
      {{"serve", "--model", model, "--port", "0", "--threads", "-1"},
       "--threads"},
      {{"serve", "--model", model, "--port", "0", "--max-inflight", "-1"},
       "--max-inflight"},
      {{"serve", "--model", model, "--port", "0", "--max-batch", "-1"},
       "--max-batch"},
      {{"serve", "--model", model, "--port", "0", "--trace-buffer", "-1"},
       "--trace-buffer"},
      {{"serve", "--model", model, "--port", "0", "--deadline-ms", "-1"},
       "--deadline-ms"},
      {{"serve", "--model", model, "--port", "0", "--admission-wait-ms",
        "-5"},
       "--admission-wait-ms"},
      {{"serve", "--model", model, "--port", "0", "--drain-timeout-ms", "-1"},
       "--drain-timeout-ms"},
      {{"serve", "--model", model, "--port", "0", "--service-delay-us", "-1"},
       "--service-delay-us"},
      {{"characterize", "--trace", trace, "--clusters", "0"}, "--clusters"},
      {{"characterize", "--trace", trace, "--clusters", "-1"}, "--clusters"},
      {{"characterize", "--trace", trace, "--full", "--clusters", "0"},
       "--clusters"},
      {{"characterize", "--trace", trace, "--wl-iterations", "65"},
       "--wl-iterations"},
      {{"cluster", "--trace", trace, "--clusters", "-2"}, "--clusters"},
      {{"cluster", "--trace", trace, "--wl-iterations", "65"},
       "--wl-iterations"},
      {{"fit", "--trace", trace, "--clusters", "0"}, "--clusters"},
      {{"fit", "--trace", trace, "--sample", "50", "--wl-iterations", "65"},
       "--wl-iterations"},
      {{"fit", "--full", "--trace", trace, "--clusters", "-3"}, "--clusters"},
      {{"fit", "--full", "--trace", trace, "--wl-iterations", "65"},
       "--wl-iterations"},
      {{"schedule", "--trace", trace, "--clusters", "0"}, "--clusters"},
      {{"schedule", "--trace", trace, "--wl-iterations", "65"},
       "--wl-iterations"},
      {{"similarity", "--trace", trace, "--wl-iterations", "65"},
       "--wl-iterations"},
  };
  for (const auto& [argv, flag] : cases) {
    const auto r = run(argv);
    EXPECT_EQ(r.code, 2) << argv[0] << " " << flag << ": " << r.err;
    const std::string lowest = flag == "--clusters" ? "1" : "0";
    EXPECT_NE(r.err.find(flag + " must be an integer in [" + lowest + ", "),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.out, "") << argv[0] << " " << flag;
  }
  const auto wl = run({"fit", "--trace", trace, "--wl-iterations", "65"});
  EXPECT_NE(wl.err.find("--wl-iterations must be an integer in [0, 64], got 65"),
            std::string::npos)
      << wl.err;
}

// Commands that read a trace generate 20000 jobs at seed 42 when they are
// not given one.
TEST(CliTable, TraceCommandsGenerateTwentyThousandJobsByDefault) {
  const auto r = run({"census"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("(20000 jobs, seed 42)"), std::string::npos) << r.out;
  const auto seeded = run({"census", "--seed", "7"});
  EXPECT_EQ(seeded.code, 0) << seeded.err;
  EXPECT_NE(seeded.out.find("(20000 jobs, seed 7)"), std::string::npos);
}

// `compare` with no flags compares 5000 generated jobs at seeds 42 and 43.
TEST(CliTable, CompareDefaultsToFiveThousandJobsAtSeeds42And43) {
  const auto bare = run({"compare"});
  ASSERT_EQ(bare.code, 0) << bare.err;
  const auto spelled =
      run({"compare", "--jobs", "5000", "--seed", "42", "--seed-b", "43"});
  ASSERT_EQ(spelled.code, 0) << spelled.err;
  EXPECT_EQ(bare.out, spelled.out);
  const auto other = run({"compare", "--jobs", "5000", "--seed-b", "44"});
  ASSERT_EQ(other.code, 0) << other.err;
  EXPECT_NE(other.out, bare.out);
}

// `serve-bench` classifies 2000 generated jobs at seed 99 by default.
TEST(CliTable, ServeBenchDefaultsToTwoThousandJobsAtSeed99) {
  const std::string model =
      std::string(CWGL_TEST_DATA_DIR) + "/example_model.cwgl";
  const auto workload = [&model](std::vector<std::string> extra) {
    std::vector<std::string> argv{"serve-bench", "--model", model,
                                  "--threads", "1", "--repeat", "1", "--json"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    const auto r = run(argv);
    EXPECT_EQ(r.code, 0) << r.err;
    const util::JsonValue doc = util::parse_json(r.out);
    return std::make_pair(doc.at("jobs").as_number(),
                          doc.at("oov_jobs").as_number());
  };
  const auto bare = workload({});
  EXPECT_EQ(bare, workload({"--jobs", "2000", "--seed", "99"}));
  EXPECT_NE(bare, workload({"--jobs", "2000", "--seed", "42"}));
}

// The `cwgl client` telemetry surface against a live in-process daemon:
// ping carries version/generation, --stats --prometheus renders text
// exposition, --health answers readiness JSON, --watch polls repeatedly,
// and non-ok statuses go to stderr with a nonzero exit so scripts can
// branch on the exit code.
TEST(CliClient, TelemetryRoundTripAgainstLiveDaemon) {
  const auto dir =
      std::filesystem::temp_directory_path() / "cwgl_cli_client_test";
  std::filesystem::create_directories(dir);
  const std::string model = (dir / "model.cwgl").string();
  const auto fit = run({"fit", "--jobs", "200", "--seed", "5", "--sample",
                        "30", "--clusters", "3", "--out", model.c_str()});
  ASSERT_EQ(fit.code, 0) << fit.err;

  serve::DaemonConfig cfg;
  cfg.endpoint.tcp_port = 0;  // ephemeral
  cfg.worker_threads = 2;
  cfg.model_path = model;
  serve::Daemon daemon(
      std::make_shared<const serve::Classifier>(model::load_model(model)),
      cfg);
  daemon.start();
  const std::string port = std::to_string(daemon.tcp_port());

  const auto ping = run({"client", "--port", port.c_str(), "--ping"});
  EXPECT_EQ(ping.code, 0) << ping.err;
  EXPECT_NE(ping.out.find("status ok"), std::string::npos);
  EXPECT_NE(ping.out.find("version cwgl "), std::string::npos);
  EXPECT_NE(ping.out.find("generation 1"), std::string::npos);

  const auto cls = run({"client", "--port", port.c_str(), "--job", "j_cli",
                        "--tasks", "M1,M2_1,R3_2"});
  EXPECT_EQ(cls.code, 0) << cls.err;
  EXPECT_NE(cls.out.find("cluster "), std::string::npos);

  const auto health = run({"client", "--port", port.c_str(), "--health"});
  EXPECT_EQ(health.code, 0) << health.err;
  EXPECT_NE(health.out.find("\"ready\":true"), std::string::npos);

  const auto prom =
      run({"client", "--port", port.c_str(), "--stats", "--prometheus"});
  EXPECT_EQ(prom.code, 0) << prom.err;
  EXPECT_NE(
      prom.out.find("# TYPE cwgl_serve_daemon_requests_total counter"),
      std::string::npos)
      << prom.out;
  EXPECT_NE(prom.out.find("# TYPE cwgl_serve_daemon_compute_us histogram"),
            std::string::npos);
  EXPECT_NE(prom.out.find("cwgl_serve_daemon_compute_us_bucket{le=\"+Inf\"}"),
            std::string::npos);

  // Watch mode: bounded by the hidden --watch-count hook, one blank line
  // between rounds.
  const auto watch = run({"client", "--port", port.c_str(), "--stats",
                          "--watch", "0.01", "--watch-count", "2"});
  EXPECT_EQ(watch.code, 0) << watch.err;
  std::size_t rounds = 0;
  for (std::size_t pos = 0;
       (pos = watch.out.find("status ok", pos)) != std::string::npos; ++pos) {
    ++rounds;
  }
  EXPECT_EQ(rounds, 2u);
  EXPECT_NE(watch.out.find("\n\n"), std::string::npos);

  // Non-ok statuses print to stderr and exit 1 (stdout stays clean).
  const std::string corrupt = (dir / "corrupt.cwgl").string();
  {
    std::ofstream f(corrupt, std::ios::binary);
    f << "not a model";
  }
  const auto bad =
      run({"client", "--port", port.c_str(), "--reload", corrupt.c_str()});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("status error"), std::string::npos) << bad.err;
  EXPECT_EQ(bad.out, "");

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
  std::filesystem::remove_all(dir);
}

TEST(CliClient, MissingEndpointOrRequestRejected) {
  const auto no_ep = run({"client", "--ping"});
  EXPECT_EQ(no_ep.code, 2);
  EXPECT_NE(no_ep.err.find("endpoint"), std::string::npos);
  const auto no_req = run({"client", "--port", "1"});
  EXPECT_EQ(no_req.code, 2);
  EXPECT_NE(no_req.err.find("pick one of"), std::string::npos);
}

}  // namespace
}  // namespace cwgl::cli

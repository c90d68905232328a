// `cwgl predict` streams its task file and classifies and renders each job
// on the worker that built its DAG. These tests hold its stdout, byte for
// byte, to the oracle in tests/support/predict_oracle.hpp: the command as
// it read the whole file into a Trace and classified one job at a time.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli/commands.hpp"
#include "cli/predict.hpp"
#include "core/ingest.hpp"
#include "trace/group_stream.hpp"
#include "model/format.hpp"
#include "serve/classifier.hpp"
#include "support/golden.hpp"
#include "support/predict_oracle.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace cwgl {
namespace {

struct Output {
  int code = 0;
  std::string out;
  std::string err;
};

Output run_cli(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"cwgl"};
  for (const std::string& token : tokens) argv.push_back(token.c_str());
  std::ostringstream out, err;
  Output r;
  r.code = cli::run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

Output run_oracle(const std::string& model, const std::string& input,
               bool json) {
  std::ostringstream out, err;
  Output r;
  r.code = oracle::predict(model, input, json, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

/// `cwgl predict` against the oracle, in text and JSON mode.
void expect_predict_matches_oracle(const std::string& model,
                                   const std::string& input) {
  for (const bool json : {false, true}) {
    SCOPED_TRACE(json ? "--json" : "text");
    std::vector<std::string> argv{"predict", "--model", model, input};
    if (json) argv.push_back("--json");
    const Output streamed = run_cli(argv);
    const Output expected = run_oracle(model, input, json);
    ASSERT_EQ(expected.code, 0) << expected.err;
    EXPECT_EQ(streamed.code, 0) << streamed.err;
    golden::expect_identical(expected.out, streamed.out);
  }
}

/// The paper's mix, or the benchmark's diverse one, where about half the
/// DAG jobs are new shapes.
trace::GeneratorConfig mix(bool diverse, std::uint64_t seed,
                           std::size_t jobs) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_jobs = jobs;
  cfg.emit_instances = false;
  if (diverse) {
    cfg.p_tiny = 0.1;
    cfg.size_geometric_p = 0.10;
    cfg.p_extra_dep = 0.5;
  }
  return cfg;
}

/// Per mix: held-out traces at seeds 1-5, and a sampled and a full
/// snapshot fitted on a trace at seed 11. Built once for the suite.
class PredictDifferential : public ::testing::Test {
 protected:
  struct Mix {
    std::vector<std::string> held_out;  ///< batch_task.csv paths
    std::vector<std::string> models;    ///< sampled, then full
  };

  static void SetUpTestSuite() {
    std::filesystem::remove_all(root_);
    for (const bool diverse : {false, true}) {
      const std::filesystem::path dir = root_ / (diverse ? "diverse" : "paper");
      const std::string train = (dir / "train").string();
      trace::write_trace(
          trace::TraceGenerator(mix(diverse, 11, 2000)).generate(), train);
      Mix m;
      for (std::vector<std::string> argv :
           {std::vector<std::string>{"fit", "--trace", train, "--sample", "200"},
            std::vector<std::string>{"fit", "--trace", train, "--full"}}) {
        m.models.push_back(
            (dir / ("model" + std::to_string(m.models.size()) + ".cwgl"))
                .string());
        argv.insert(argv.end(), {"--out", m.models.back()});
        const Output r = run_cli(argv);
        ASSERT_EQ(r.code, 0) << r.err;
      }
      if (!diverse) {
        conflated_ = (dir / "model_conflated.cwgl").string();
        const Output r = run_cli(
            {"fit", "--trace", train, "--conflated", "--out", conflated_});
        ASSERT_EQ(r.code, 0) << r.err;
      }
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const std::filesystem::path held =
            dir / ("held" + std::to_string(seed));
        trace::write_trace(
            trace::TraceGenerator(mix(diverse, seed, 1000)).generate(), held);
        m.held_out.push_back((held / "batch_task.csv").string());
      }
      mixes_.push_back(std::move(m));
    }
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(root_); }

  // Per process: ctest runs each test of the suite in its own.
  inline static const std::filesystem::path root_ =
      std::filesystem::temp_directory_path() /
      ("cwgl_predict_differential_" + std::to_string(::getpid()));
  inline static std::vector<Mix> mixes_;
  /// A `fit --conflated` snapshot of the paper mix's training trace.
  inline static std::string conflated_;
};

TEST_F(PredictDifferential, ProbeJobsAgainstTheExampleModel) {
  expect_predict_matches_oracle(
      std::string(CWGL_TEST_DATA_DIR) + "/example_model.cwgl",
      std::string(CWGL_TEST_DATA_DIR) + "/probe_jobs.csv");
}

TEST_F(PredictDifferential, GeneratedTracesAgainstSampledAndFullSnapshots) {
  ASSERT_EQ(mixes_.size(), 2u);
  for (const Mix& m : mixes_) {
    for (const std::string& model : m.models) {
      for (const std::string& input : m.held_out) {
        SCOPED_TRACE(model + " on " + input);
        expect_predict_matches_oracle(model, input);
      }
    }
  }
}

// The CLI's pool follows hardware_concurrency, so on a one-core host the
// command streams serially. This runs the stream with the predict
// transform on four workers, down to chunks of a few rows, so most jobs
// are cut by a chunk edge and rendered at the stitch.
TEST_F(PredictDifferential, PooledStreamMatchesTheOracle) {
  util::ThreadPool pool(4);
  for (const Mix& m : mixes_) {
    for (const std::string& model : m.models) {
      const serve::Classifier classifier(model::load_model(model));
      for (const bool json : {false, true}) {
        const std::string& input = m.held_out[json ? 1 : 0];
        const Output expected = run_oracle(model, input, json);
        ASSERT_EQ(expected.code, 0) << expected.err;
        for (const std::size_t chunk : {std::size_t{256}, std::size_t{4096},
                                        trace::kDefaultChunkBytes}) {
          SCOPED_TRACE(model + (json ? " --json" : " text") + " chunk " +
                       std::to_string(chunk));
          core::IngestOptions options;
          options.chunk_bytes = chunk;
          std::ifstream in(input);
          core::IngestStats stats;
          const std::vector<std::string> jobs = core::stream_transformed(
              in, options, &pool, stats,
              cli::PredictionRenderer(classifier, json));
          EXPECT_EQ(stats.dags, jobs.size());
          std::ostringstream out;
          cli::write_predictions(out, jobs, model, classifier.num_clusters(),
                                 json);
          golden::expect_identical(expected.out, out.str());
        }
      }
    }
  }
}

/// One job's rows: `tasks` are task names, all terminated and available.
void add_job(std::string& csv, const std::string& job,
             const std::vector<std::string>& tasks) {
  int n = 0;
  for (const std::string& task : tasks) {
    ++n;
    csv += task + "," + std::to_string(n) + "," + job + ",1,Terminated," +
           std::to_string(10 * n) + "," + std::to_string(10 * n + 5) +
           ",100.00,0.50\n";
  }
}

/// Jobs that probe the memo's key: exact repeats under other names
/// (including names that need JSON escaping or overflow the text column),
/// jobs sharing a graph but differing in one task type, and isomorphic jobs
/// whose tasks are numbered or ordered differently.
std::string memo_probe_csv() {
  const std::vector<std::vector<std::string>> graphs = {
      {"M1", "R2_1", "R3_2"},
      {"M1", "M2", "R3_1_2"},
      {"M1", "R2_1", "R3_1", "J4_2_3"},
      {"M1", "M2", "M3", "R4_1_2_3", "R5_4"},
  };
  const std::vector<std::vector<std::string>> variants = {
      // one task type changed
      {"M1", "J2_1", "R3_2"},
      {"M1", "R2", "R3_1_2"},
      {"M1", "R2_1", "M3_1", "J4_2_3"},
      {"M1", "M2", "M3", "J4_1_2_3", "R5_4"},
      // isomorphic, numbered differently
      {"M2", "R3_2", "R1_3"},
      {"M3", "M1", "R2_1_3"},
      // isomorphic, rows in another order
      {"J4_2_3", "R3_1", "R2_1", "M1"},
      {"R5_4", "R4_1_2_3", "M3", "M2", "M1"},
  };
  std::string csv;
  int job = 0;
  const auto name = [&job](const char* suffix) {
    return "j_" + std::to_string(job++) + suffix;
  };
  for (int round = 0; round < 3; ++round) {
    for (const auto& g : graphs) add_job(csv, name(""), g);
    for (const auto& v : variants) add_job(csv, name(""), v);
    for (const auto& g : graphs) {
      add_job(csv, "\"" + name("_\"\"quoted\\") + "\"", g);
      add_job(csv, name("_a_name_longer_than_the_text_column"), g);
    }
  }
  return csv;
}

// The memo key holds every input of Classifier::classify: a key without
// the task types would hand a label variant its base graph's answer.
TEST_F(PredictDifferential, MemoKeySeparatesWhatClassifyReads) {
  const std::filesystem::path dir = root_ / "memo_probe";
  std::filesystem::create_directories(dir);
  const std::string input = (dir / "batch_task.csv").string();
  {
    std::ofstream out(input);
    out << memo_probe_csv();
  }
  ASSERT_FALSE(mixes_.empty());
  const std::string& full = mixes_.front().models.back();
  const std::string& sampled = mixes_.front().models.front();

  // The probe discriminates: on the type-labelled snapshot, a label
  // variant's answer differs from its base graph's.
  const Output labelled = run_oracle(full, input, true);
  ASSERT_EQ(labelled.code, 0) << labelled.err;
  const util::JsonValue doc = util::parse_json(labelled.out);
  const auto& jobs = doc.at("jobs").as_array();
  ASSERT_EQ(jobs.size(), 3u * (4 + 8 + 8));
  const auto answer = [&jobs](std::size_t i) {
    const util::JsonValue& j = jobs[i];
    return std::to_string(j.at("similarity").as_number()) + " " +
           j.at("nearest").as_string() + " " +
           std::to_string(j.at("oov_hits").as_number());
  };
  std::size_t differing = 0;
  for (std::size_t g = 0; g < 4; ++g) differing += answer(g) != answer(4 + g);
  EXPECT_GT(differing, 0u);

  util::ThreadPool pool(4);
  for (const std::string& model : {full, conflated_, sampled}) {
    SCOPED_TRACE(model);
    expect_predict_matches_oracle(model, input);
    // Four workers sharing the memo, a few rows a chunk.
    const serve::Classifier classifier(model::load_model(model));
    for (const bool json : {false, true}) {
      const Output expected = run_oracle(model, input, json);
      core::IngestOptions options;
      options.chunk_bytes = 64;
      std::ifstream in(input);
      core::IngestStats stats;
      const std::vector<std::string> rendered = core::stream_transformed(
          in, options, &pool, stats,
          cli::PredictionRenderer(classifier, json));
      std::ostringstream out;
      cli::write_predictions(out, rendered, model, classifier.num_clusters(),
                             json);
      golden::expect_identical(expected.out, out.str());
    }
  }
}

}  // namespace
}  // namespace cwgl

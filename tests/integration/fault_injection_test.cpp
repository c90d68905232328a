// Fault-injection integration suite: a deliberately corrupted trace pushed
// through the whole pipeline, strict vs lenient, plus (when compiled with
// -DCWGL_FAILPOINTS=ON) injected I/O, worker and stitch faults, and faults
// around the full-trace run's validation, which runs beside its clustering.
//
// The corrupted trace carries four distinct kinds of damage:
//   1. an unterminated quote (CSV-structure corruption, truncates a record)
//   2. a shuffled-columns row (parses as CSV, fails TaskRecord::from_fields)
//   3. a truncated record (file cut mid-row — also a from_fields failure)
//   4. a cyclic job (structurally valid rows, corrupt dependency graph)
// Lenient mode must quarantine all four with exact counts and still build
// every healthy job; strict mode must fail with a typed error naming the
// first offense.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli/commands.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "model/format.hpp"
#include "model/model.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"
#include "serve/classifier.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace cwgl {
namespace {

/// Healthy diamond job: M1 -> {R2, R3} -> J4.
void append_healthy_job(std::string& csv, int id) {
  const std::string j = "j_ok" + std::to_string(id);
  csv += "M1,2," + j + ",1,Terminated,100,200,100.00,0.50\n";
  csv += "R2_1,2," + j + ",1,Terminated,200,300,100.00,0.50\n";
  csv += "R3_1,2," + j + ",1,Terminated,200,320,100.00,0.50\n";
  csv += "J4_2_3,1," + j + ",1,Terminated,320,400,50.00,0.25\n";
}

/// The corrupted batch_task.csv described in the file header. Healthy jobs
/// surround every kind of damage so recovery (not just detection) is
/// exercised.
std::string corrupted_task_csv(int healthy_jobs = 12) {
  std::string csv;
  int id = 0;
  append_healthy_job(csv, id++);
  // (1) unterminated quote: swallows the rest of the line.
  csv += "\"M1,1,j_quote,1,Terminated,10,20,100.00,0.50\n";
  append_healthy_job(csv, id++);
  // (2) shuffled columns: status where instance_num belongs, etc.
  csv += "j_shuffled,M1,Terminated,1,1,10,20,100.00,0.50\n";
  append_healthy_job(csv, id++);
  // (3) truncated record: the file was cut mid-row (too few fields).
  csv += "M1,1,j_truncated,1,Term\n";
  append_healthy_job(csv, id++);
  // (4) cyclic job: M1 depends on 2, R2 depends on 1.
  csv += "M1_2,1,j_cycle,1,Terminated,10,20,100.00,0.50\n";
  csv += "R2_1,1,j_cycle,1,Terminated,30,40,100.00,0.50\n";
  while (id < healthy_jobs) append_healthy_job(csv, id++);
  return csv;
}

TEST(FaultInjection, LenientIngestQuarantinesAllFourCorruptionKinds) {
  util::Diagnostics diagnostics;
  core::IngestOptions options;
  options.diagnostics = &diagnostics;
  std::istringstream in(corrupted_task_csv());
  core::IngestStats stats;
  const auto dags = core::stream_dag_jobs(in, options, nullptr, &stats);

  // Every healthy job was built despite the surrounding damage.
  EXPECT_EQ(dags.size(), 12u);
  for (const auto& dag : dags) {
    EXPECT_EQ(dag.size(), 4);
  }
  // Exact quarantine accounting, by kind:
  EXPECT_EQ(diagnostics.count_of("csv", "unterminated-quote"), 1u);
  EXPECT_EQ(diagnostics.count_of("ingest", "malformed-row"), 2u);
  EXPECT_EQ(diagnostics.count_of("dag", "cycle"), 1u);
  EXPECT_EQ(diagnostics.total(), 4u);
  // And the stream stats agree: 1 CSV-quarantined + 2 malformed rows.
  EXPECT_EQ(stats.stream.malformed, 3u);
  EXPECT_EQ(stats.stream.rows, 12u * 4u + 2u);  // healthy rows + cycle rows
}

TEST(FaultInjection, LenientPooledAgreesWithSerial) {
  const std::string csv = corrupted_task_csv(40);
  std::istringstream serial_in(csv);
  core::IngestStats serial_stats;
  const auto serial =
      core::stream_dag_jobs(serial_in, {}, nullptr, &serial_stats);

  util::ThreadPool pool(4);
  core::IngestOptions options;
  options.chunk_bytes = 200;  // a job or two a chunk, most cut by an edge
  std::istringstream pooled_in(csv);
  core::IngestStats pooled_stats;
  const auto pooled =
      core::stream_dag_jobs(pooled_in, options, &pool, &pooled_stats);

  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(pooled[i].job_name, serial[i].job_name);
  }
  EXPECT_EQ(pooled_stats.stream.malformed, serial_stats.stream.malformed);
  EXPECT_EQ(pooled_stats.dags, serial_stats.dags);
}

TEST(FaultInjection, StrictFailsNamingFirstOffense) {
  // The first damage in file order is the unterminated quote — a CSV-level
  // ParseError. The error must name what and where, not just "bad input".
  std::istringstream in(corrupted_task_csv());
  core::IngestOptions options;
  options.strict = true;
  try {
    core::stream_dag_jobs(in, options);
    FAIL() << "strict ingest accepted a corrupt trace";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unterminated"), std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, StrictNamesCorruptJobWhenCsvIsClean) {
  // Remove CSV-level damage; the first remaining offense is the cyclic job.
  std::string csv;
  append_healthy_job(csv, 0);
  csv += "M1_2,1,j_cycle,1,Terminated,10,20,100.00,0.50\n";
  csv += "R2_1,1,j_cycle,1,Terminated,30,40,100.00,0.50\n";
  append_healthy_job(csv, 1);
  std::istringstream in(csv);
  core::IngestOptions options;
  options.strict = true;
  try {
    core::stream_dag_jobs(in, options);
    FAIL() << "strict ingest accepted a cyclic job";
  } catch (const util::GraphError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("j_cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
  }
}

/// Writes the corrupted trace to a temp dir for CLI-level tests.
class CorruptedTraceDir {
 public:
  CorruptedTraceDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("cwgl_fault_trace_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    std::ofstream out(dir_ / "batch_task.csv");
    out << corrupted_task_csv();
  }
  ~CorruptedTraceDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

int run_cli_command(std::initializer_list<const char*> tokens,
                    std::string* out_text = nullptr,
                    std::string* err_text = nullptr) {
  std::vector<const char*> argv{"cwgl"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  std::ostringstream out, err;
  const int code =
      cli::run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(FaultInjection, CliLenientIngestExitsZeroAndReportsQuarantine) {
  CorruptedTraceDir trace;
  std::string out;
  const int code =
      run_cli_command({"ingest", "--trace", trace.path().c_str(), "--serial"},
                      &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("diagnostics:"), std::string::npos) << out;
  EXPECT_NE(out.find("csv/unterminated-quote: 1"), std::string::npos) << out;
  EXPECT_NE(out.find("dag/cycle: 1"), std::string::npos) << out;
}

TEST(FaultInjection, CliStrictIngestFailsWithTypedError) {
  CorruptedTraceDir trace;
  std::string out, err;
  const int code = run_cli_command(
      {"ingest", "--trace", trace.path().c_str(), "--serial", "--strict"},
      &out, &err);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("unterminated"), std::string::npos) << err;
}

TEST(FaultInjection, CliJsonDiagnosticsReport) {
  CorruptedTraceDir trace;
  std::string out;
  const int code = run_cli_command(
      {"ingest", "--trace", trace.path().c_str(), "--serial", "--json"}, &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("\"total\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"unterminated-quote\""), std::string::npos) << out;
}

#if defined(CWGL_FAILPOINTS_ENABLED)

class FailpointFixture : public ::testing::Test {
 protected:
  void TearDown() override { util::failpoint::clear(); }
};

std::string healthy_csv(int jobs = 64) {
  std::string csv;
  for (int i = 0; i < jobs; ++i) append_healthy_job(csv, i);
  return csv;
}

TEST_F(FailpointFixture, InjectedReadErrorSurfacesFromSerialIngest) {
  util::failpoint::configure("ingest.read_block=error*1");
  std::istringstream in(healthy_csv());
  EXPECT_THROW(core::stream_dag_jobs(in, {}), util::FailpointError);
}

TEST_F(FailpointFixture, InjectedShortReadsChangeNothingButTiming) {
  // Differential check: forcing every block refill down to 1 byte must
  // yield byte-identical parse results — the scanner's buffering logic may
  // not depend on block granularity.
  const std::string csv = healthy_csv(32);
  std::istringstream clean_in(csv);
  const auto clean = core::stream_dag_jobs(clean_in, {});

  util::failpoint::configure("ingest.read_block=short-read:1");
  std::istringstream short_in(csv);
  core::IngestStats stats;
  const auto shorted = core::stream_dag_jobs(short_in, {}, nullptr, &stats);
  ASSERT_EQ(shorted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(shorted[i].job_name, clean[i].job_name);
    EXPECT_EQ(shorted[i].dag.edges(), clean[i].dag.edges());
  }
  EXPECT_EQ(stats.stream.malformed, 0u);
}

TEST_F(FailpointFixture, WorkerFaultDoesNotDeadlockPooledIngest) {
  // A worker that fails on a chunk while others wait for their turn at the
  // stitch or read on: the failure must end the stream at that chunk's
  // turn and release every waiter. Run several times — the interleaving
  // varies.
  for (int round = 0; round < 5; ++round) {
    util::failpoint::configure("ingest.worker_chunk=error@0.5;seed=" +
                               std::to_string(round));
    util::ThreadPool pool(4);
    core::IngestOptions options;
    options.chunk_bytes = 128;
    std::istringstream in(healthy_csv(256));
    try {
      core::stream_dag_jobs(in, options, &pool);
    } catch (const util::FailpointError&) {
      // expected most rounds
    }
  }
}

TEST_F(FailpointFixture, StitchFaultPropagates) {
  util::failpoint::configure("ingest.stitch=error*1");
  util::ThreadPool pool(2);
  core::IngestOptions options;
  options.chunk_bytes = 128;
  std::istringstream in(healthy_csv(64));
  EXPECT_THROW(core::stream_dag_jobs(in, options, &pool),
               util::FailpointError);
}

TEST_F(FailpointFixture, InjectedReadErrorSurfacesFromPooledIngest) {
  // A read part-way through fails: the error surfaces, whichever worker
  // read it, once the chunks before it are stitched.
  util::failpoint::configure("ingest.read_block=error@0.2*1;seed=3");
  util::ThreadPool pool(4);
  core::IngestOptions options;
  options.chunk_bytes = 128;
  std::istringstream in(healthy_csv(64));
  EXPECT_THROW(core::stream_dag_jobs(in, options, &pool),
               util::FailpointError);
}

TEST_F(FailpointFixture, PooledShortReadsChangeNothingButTiming) {
  const std::string csv = healthy_csv(32);
  std::istringstream clean_in(csv);
  const auto clean = core::stream_dag_jobs(clean_in, {});

  util::failpoint::configure("ingest.read_block=short-read:3");
  util::ThreadPool pool(4);
  std::istringstream short_in(csv);
  core::IngestStats stats;
  const auto shorted = core::stream_dag_jobs(short_in, {}, &pool, &stats);
  ASSERT_EQ(shorted.size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(shorted[i].job_name, clean[i].job_name);
    EXPECT_EQ(shorted[i].dag.edges(), clean[i].dag.edges());
  }
  EXPECT_EQ(stats.stream.malformed, 0u);
}

TEST_F(FailpointFixture, SubmitFaultSettlesCleanly) {
  // pool.submit failing mid-worker-spawn must not use-after-free the
  // stream the started workers share, or hang; the submission error
  // propagates.
  util::failpoint::configure("pool.submit=error*1");
  util::ThreadPool pool(4);
  std::istringstream in(healthy_csv(64));
  EXPECT_THROW(core::stream_dag_jobs(in, {}, &pool), util::FailpointError);
}

trace::Trace full_trace_input() {
  trace::GeneratorConfig cfg;
  cfg.seed = 23;
  cfg.num_jobs = 2000;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::uint64_t triggers(const std::string& site) {
  for (const util::failpoint::SiteReport& r : util::failpoint::report()) {
    if (r.site == site) return r.triggers;
  }
  return 0;
}

// A full-trace run submits the validation's exact reference to its pool
// before anything else; when that submission fails, the reference runs
// inline and the agreement is the serial run's.
TEST_F(FailpointFixture, ReferenceSubmitFaultFallsBackInline) {
  const trace::Trace data = full_trace_input();
  const core::CharacterizationPipeline pipeline{core::PipelineConfig{}};
  const core::FullTraceResult serial = pipeline.run_full(data);
  ASSERT_GT(serial.agreement.items, 0u);

  util::failpoint::configure("pool.submit=error*1");
  util::ThreadPool pool(4);
  const core::FullTraceResult pooled = pipeline.run_full(data, &pool);
  EXPECT_EQ(triggers("pool.submit"), 1u);
  EXPECT_EQ(pooled.shape_labels, serial.shape_labels);
  EXPECT_EQ(pooled.agreement.items, serial.agreement.items);
  EXPECT_TRUE(same_bits(pooled.agreement.ari, serial.agreement.ari));
  EXPECT_TRUE(same_bits(pooled.agreement.nmi, serial.agreement.nmi));
}

// The mini-batch restarts fail while the reference, which reads the run's
// locals, still runs on a worker (held up 200 ms): the error surfaces only
// once the reference has finished, its span closed. Each submission waits
// 20 ms first, so a worker, not the caller helping the pool, takes the
// reference.
TEST_F(FailpointFixture, RestartFaultSurfacesAfterTheReferenceIsJoined) {
  const trace::Trace data = full_trace_input();
  const core::CharacterizationPipeline pipeline{core::PipelineConfig{}};
  util::failpoint::configure(
      "pool.submit=delay:20ms;pool.chunk=error*1;"
      "pipeline.full_validate=delay:200ms");
  util::ThreadPool pool(4);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.start();
  obs::Stopwatch watch;
  bool typed = false;
  try {
    pipeline.run_full(data, &pool);
  } catch (const util::FailpointError&) {
    typed = true;
  }
  const double elapsed_ms = watch.millis();
  tracer.stop();
  EXPECT_TRUE(typed);
  int reference_tid = -1;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name == "pipeline.full_validate") reference_tid = e.tid;
  }
  const int caller_tid = tracer.events().front().tid;
  EXPECT_NE(reference_tid, caller_tid);
  EXPECT_EQ(triggers("pool.chunk"), 1u);
  EXPECT_GE(elapsed_ms, 200.0);
  int begins = 0;
  int ends = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.name == "pipeline.full_validate" && e.phase == 'B') ++begins;
    if (e.name == "pipeline.full_validate" && e.phase == 'E') ++ends;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

// A failing reference is the run's error, raised at the join.
TEST_F(FailpointFixture, ReferenceFaultIsTheRunsError) {
  const trace::Trace data = full_trace_input();
  const core::CharacterizationPipeline pipeline{core::PipelineConfig{}};
  util::failpoint::configure("pipeline.full_validate=error");
  util::ThreadPool pool(4);
  EXPECT_THROW(pipeline.run_full(data, &pool), util::FailpointError);
  EXPECT_THROW(pipeline.run_full(data), util::FailpointError);
}

TEST_F(FailpointFixture, DelayInjectionOnlySlowsThingsDown) {
  util::failpoint::configure(
      "ingest.stitch=delay:1ms@0.25;ingest.worker_chunk=delay:1ms@0.25;"
      "seed=7");
  util::ThreadPool pool(2);
  core::IngestOptions options;
  options.chunk_bytes = 512;
  const std::string csv = healthy_csv(64);
  std::istringstream in(csv);
  core::IngestStats stats;
  const auto dags = core::stream_dag_jobs(in, options, &pool, &stats);
  EXPECT_EQ(dags.size(), 64u);
  EXPECT_EQ(stats.stream.malformed, 0u);
}

TEST_F(FailpointFixture, WriteTraceFaultIsTyped) {
  util::failpoint::configure("io.write_trace=error");
  trace::Trace empty;
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_fp_write";
  EXPECT_THROW(trace::write_trace(empty, dir), util::FailpointError);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Minimal valid model snapshot for the model-store failpoint tests.
model::FittedModel tiny_fitted_model() {
  model::FittedModel m;
  m.wl.iterations = 1;
  m.dictionary = {"77", "82", "1:x"};
  model::ClusterProfile profile;
  profile.population = 1;
  profile.population_fraction = 1.0;
  profile.mean_size = 2.0;
  profile.median_size = 2.0;
  profile.mean_critical_path = 2.0;
  profile.median_critical_path = 2.0;
  profile.mean_width = 1.0;
  profile.median_width = 1.0;
  m.profiles = {profile};
  model::Representative rep;
  rep.job_name = "j_1";
  rep.training_index = 0;
  rep.features.items = {{0, 1.0}, {2, 2.0}};
  rep.self_norm = rep.features.norm();
  m.representatives = {{rep}};
  return m;
}

TEST_F(FailpointFixture, MidWriteCrashLeavesPreviousSnapshotIntact) {
  const auto path =
      std::filesystem::temp_directory_path() / "cwgl_fp_model.cwgl";
  const auto tmp =
      std::filesystem::temp_directory_path() / "cwgl_fp_model.cwgl.tmp";
  const model::FittedModel m = tiny_fitted_model();

  // Publish a good snapshot first — this is what a crashed re-save must
  // never damage (the property automated hot reload depends on).
  model::save_model(m, path);
  ASSERT_EQ(model::load_model(path), m);

  // Crash after roughly half the re-save reached the disk: the torn bytes
  // are confined to the .tmp sibling; the published file never changes.
  util::failpoint::configure("model.write=error*1");
  EXPECT_THROW(model::save_model(m, path), util::FailpointError);
  util::failpoint::clear();
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(model::load_model(path), m);

  // The torn temp file exists, is short, and strict decoding rejects it —
  // even a reader pointed at the wrong path gets a typed error, not
  // garbage-in-garbage-out.
  ASSERT_TRUE(std::filesystem::exists(tmp));
  EXPECT_LT(std::filesystem::file_size(tmp), model::serialize_model(m).size());
  EXPECT_THROW(model::load_model(tmp), model::ModelError);

  // A clean re-save recovers and replaces the torn temp.
  model::save_model(m, path);
  EXPECT_EQ(model::load_model(path), m);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::remove(path);
}

TEST_F(FailpointFixture, MidWriteCrashOnFirstSaveLeavesNoPublishedFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "cwgl_fp_model_first.cwgl";
  const auto tmp =
      std::filesystem::temp_directory_path() / "cwgl_fp_model_first.cwgl.tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);

  // With no previous snapshot, a mid-write crash publishes NOTHING: a
  // reloader polling `path` sees "absent", never "partial".
  util::failpoint::configure("model.write=error*1");
  EXPECT_THROW(model::save_model(tiny_fitted_model(), path),
               util::FailpointError);
  util::failpoint::clear();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(tmp));
  std::filesystem::remove(tmp);
}

TEST_F(FailpointFixture, ModelReadFaultIsTyped) {
  const auto path =
      std::filesystem::temp_directory_path() / "cwgl_fp_model_read.cwgl";
  model::save_model(tiny_fitted_model(), path);
  util::failpoint::configure("model.read=error*1");
  EXPECT_THROW(model::load_model(path), util::FailpointError);
  util::failpoint::clear();
  EXPECT_EQ(model::load_model(path), tiny_fitted_model());
  std::filesystem::remove(path);
}

// --- serving-daemon failpoints -------------------------------------------
// serve.accept drops a connection whole, serve.batch fails a dispatch batch,
// serve.reload rejects a swap attempt. In every case the daemon stays up
// and the no-silent-drop contract holds: whatever was admitted gets a typed
// answer.

serve::DaemonConfig fp_daemon_config(const std::string& tag) {
  serve::DaemonConfig cfg;
  cfg.endpoint.socket_path =
      (std::filesystem::temp_directory_path() / (tag + ".sock")).string();
  cfg.worker_threads = 1;
  return cfg;
}

serve::Request fp_classify(std::uint64_t id) {
  serve::Request r;
  r.type = serve::RequestType::Classify;
  r.id = id;
  r.job_name = "j_fp";
  r.tasks = {"M1", "R2_1"};
  return r;
}

TEST_F(FailpointFixture, InjectedAcceptFaultDropsOneConnectionDaemonSurvives) {
  const auto cfg = fp_daemon_config("cwgl_fp_accept");
  serve::Daemon daemon(
      std::make_shared<const serve::Classifier>(tiny_fitted_model()), cfg);
  daemon.start();

  // First connection is accepted then dropped whole: the client observes a
  // hangup (typed ProtocolError), never a partial response.
  util::failpoint::configure("serve.accept=error*1");
  {
    serve::Client dropped(cfg.endpoint);
    EXPECT_THROW(dropped.call(fp_classify(1)), serve::ProtocolError);
  }
  util::failpoint::clear();

  // The daemon itself is unharmed: the next connection serves normally.
  serve::Client client(cfg.endpoint);
  const serve::Response r = client.call(fp_classify(2));
  EXPECT_EQ(r.status, serve::ResponseStatus::Ok) << r.message;
}

TEST_F(FailpointFixture, InjectedBatchFaultAnswersTypedErrorAndRecovers) {
  const auto cfg = fp_daemon_config("cwgl_fp_batch");
  serve::Daemon daemon(
      std::make_shared<const serve::Classifier>(tiny_fitted_model()), cfg);
  daemon.start();
  serve::Client client(cfg.endpoint);

  util::failpoint::configure("serve.batch=error*1");
  const serve::Response failed = client.call(fp_classify(1));
  EXPECT_EQ(failed.status, serve::ResponseStatus::Error);
  EXPECT_NE(failed.message.find("batch dispatch failed"), std::string::npos)
      << failed.message;
  util::failpoint::clear();

  // Same connection, next batch: back to serving.
  const serve::Response ok = client.call(fp_classify(2));
  EXPECT_EQ(ok.status, serve::ResponseStatus::Ok) << ok.message;
  const serve::DaemonStats s = daemon.stats();
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.served + s.shed + s.timeouts + s.rejected_draining + s.errors,
            s.requests);
}

TEST_F(FailpointFixture, InjectedReloadFaultKeepsOldModelServing) {
  const auto model_path =
      std::filesystem::temp_directory_path() / "cwgl_fp_reload.cwgl";
  model::save_model(tiny_fitted_model(), model_path);
  const auto cfg = fp_daemon_config("cwgl_fp_reload");
  serve::Daemon daemon(
      std::make_shared<const serve::Classifier>(tiny_fitted_model()), cfg);
  daemon.start();
  const auto before = daemon.snapshot();

  util::failpoint::configure("serve.reload=error*1");
  std::string error;
  EXPECT_FALSE(daemon.reload_now(model_path.string(), &error));
  EXPECT_FALSE(error.empty());
  util::failpoint::clear();

  // Rejected swap: pointer unchanged, failure counted, still serving.
  EXPECT_EQ(daemon.snapshot().get(), before.get());
  EXPECT_EQ(daemon.stats().reload_failures, 1u);
  serve::Client client(cfg.endpoint);
  EXPECT_EQ(client.call(fp_classify(1)).status, serve::ResponseStatus::Ok);

  // And a clean retry swaps.
  EXPECT_TRUE(daemon.reload_now(model_path.string(), &error)) << error;
  EXPECT_EQ(daemon.stats().reloads, 1u);
  std::filesystem::remove(model_path);
}

#endif  // CWGL_FAILPOINTS_ENABLED

}  // namespace
}  // namespace cwgl

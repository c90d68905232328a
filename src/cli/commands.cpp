#include "cli/commands.hpp"

#include "cli/args.hpp"
#include "cli/predict.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include <chrono>
#include <optional>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"

#include "cluster/scale.hpp"
#include "core/comparison.hpp"
#include "core/ingest.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "serve/classifier.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "core/report_json.hpp"
#include "core/report_text.hpp"
#include "core/topology_census.hpp"
#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "sched/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/instance_census.hpp"
#include "trace/io.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace cwgl::cli {

namespace {

/// A command line that passed the table's checks but names a combination
/// the command cannot honor; run_cli prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Integer flag `key` as a T, or nullopt when absent: how every flag that
/// counts, sizes or times something is read. A value outside [lo, hi] is a
/// UsageError naming the flag; cast instead, `--threads -1` would ask for
/// 4,294,967,295 workers.
template <typename T>
std::optional<T> in_range(const Args& args, std::string_view key,
                          unsigned long long lo, unsigned long long hi) {
  const std::optional<long long> value = args.get_int(key);
  if (!value) return std::nullopt;
  if (*value < 0 || static_cast<unsigned long long>(*value) < lo ||
      static_cast<unsigned long long>(*value) > hi) {
    throw UsageError("--" + std::string(key) + " must be an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got " + std::to_string(*value));
  }
  return static_cast<T>(*value);
}

/// `in_range` over everything T holds from 0 up.
template <typename T>
std::optional<T> non_negative(const Args& args, std::string_view key) {
  return in_range<T>(
      args, key, 0,
      static_cast<unsigned long long>(std::numeric_limits<T>::max()));
}

/// The synthetic trace that --jobs N and --seed S configure, with the
/// calling command's defaults; instance rows are off.
trace::GeneratorConfig generator_config(const Args& args, std::size_t jobs,
                                        long long seed = 42) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = non_negative<std::size_t>(args, "jobs").value_or(jobs);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed").value_or(seed));
  cfg.emit_instances = false;
  return cfg;
}

/// --trace DIR, or "" when the command generates its trace. Naming
/// --jobs or --seed next to --trace is a UsageError.
std::string trace_dir(const Args& args) {
  std::string dir = args.get("trace");
  if (!dir.empty() && (args.has("jobs") || args.has("seed"))) {
    throw UsageError("--trace cannot be combined with --jobs/--seed, which "
                     "configure a generated trace");
  }
  return dir;
}

/// Loads --trace DIR, or generates --jobs N (default 20000) with --seed.
trace::Trace load_or_generate(const Args& args, std::ostream& out) {
  const std::string dir = trace_dir(args);
  if (!dir.empty()) {
    std::size_t skipped = 0;
    obs::Stopwatch timer;
    trace::Trace data = trace::read_trace(dir, &skipped);
    out << "loaded " << data.tasks.size() << " task rows from " << dir << " ("
        << skipped << " malformed skipped) in "
        << util::format_double(timer.millis(), 1) << " ms\n";
    return data;
  }
  const trace::GeneratorConfig cfg = generator_config(args, 20000);
  obs::Stopwatch timer;
  trace::Trace data = trace::TraceGenerator(cfg).generate();
  out << "generated " << data.tasks.size() << " task rows (" << cfg.num_jobs
      << " jobs, seed " << cfg.seed << ") in "
      << util::format_double(timer.millis(), 1) << " ms\n";
  return data;
}

/// The pipeline flags, range-checked before any trace is read: at least one
/// cluster (more than the shapes are clamped later), and no more WL
/// iterations than a model snapshot can hold.
core::PipelineConfig pipeline_config(const Args& args) {
  core::PipelineConfig cfg;
  cfg.sample_size = non_negative<std::size_t>(args, "sample").value_or(100);
  if (args.has("natural")) cfg.sampling = core::SamplingMode::Natural;
  if (const auto k = in_range<int>(args, "clusters", 1,
                                   std::numeric_limits<int>::max())) {
    cfg.clustering.clusters = *k;
  }
  if (const auto h = in_range<int>(args, "wl-iterations", 0,
                                   model::kMaxWlIterations)) {
    cfg.similarity.wl.iterations = *h;
  }
  return cfg;
}

/// Observability switches shared by `ingest`, `characterize`, `fit`,
/// `predict` and `serve-bench`: `--metrics[=FILE]` snapshots the global
/// registry after the run (inline in the report, or to FILE when given) and
/// `--trace-out FILE` records spans as Chrome trace-event JSON. Either
/// switch opens the registry's timing gate for the duration of the command
/// so latency histograms fill in.
struct ObsOptions {
  bool metrics = false;
  std::string metrics_file;
  std::string trace_file;

  bool engaged() const { return metrics || !trace_file.empty(); }
};

/// Parses the switches and arms collection. The registry is reset first so
/// the snapshot covers exactly this command's work — which also makes two
/// identical serial runs produce identical counter values.
ObsOptions start_observation(const Args& args) {
  ObsOptions o;
  o.metrics = args.has("metrics");
  o.metrics_file = args.get("metrics");
  o.trace_file = args.get("trace-out");
  if (o.engaged()) {
    auto& registry = obs::MetricsRegistry::global();
    registry.reset();
    registry.set_timing_enabled(true);
  }
  if (!o.trace_file.empty()) obs::Tracer::global().start();
  return o;
}

/// Stops the tracer and writes the --trace-out file.
void finish_trace(const ObsOptions& o, std::ostream& err) {
  if (o.trace_file.empty()) return;
  auto& tracer = obs::Tracer::global();
  tracer.stop();
  std::ofstream file(o.trace_file);
  if (file) {
    tracer.write_json(file);
    file << "\n";
  } else {
    err << "warning: cannot write trace to " << o.trace_file << "\n";
  }
}

/// Disarms metric timing and writes the --metrics side file. Returns the
/// snapshot JSON for inline embedding when --metrics was given, "" otherwise.
std::string finish_metrics(const ObsOptions& o, std::ostream& err) {
  if (!o.engaged()) return "";
  obs::MetricsRegistry::global().set_timing_enabled(false);
  if (!o.metrics) return "";
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  std::ostringstream json;
  snapshot.write_json(json);
  if (!o.metrics_file.empty()) {
    std::ofstream file(o.metrics_file);
    if (file) {
      file << json.str() << "\n";
    } else {
      err << "warning: cannot write metrics to " << o.metrics_file << "\n";
    }
  }
  return json.str();
}

/// Disarms collection and writes the side files, for a command whose report
/// follows its last span. Returns what finish_metrics returns.
std::string finish_observation(const ObsOptions& o, std::ostream& err) {
  finish_trace(o, err);
  return finish_metrics(o, err);
}

/// Text-mode tail: prints the snapshot inline unless it went to a file.
void print_metrics_text(const ObsOptions& o, std::ostream& out) {
  if (!o.metrics || !o.metrics_file.empty()) return;
  out << "\nmetrics:\n";
  obs::MetricsRegistry::global().snapshot().write_text(out);
}

/// Parses `--full[=minibatch|landmark]` into the pipeline config. Returns
/// false (after printing to `err`) on an unrecognized method name.
bool parse_full_method(const Args& args, const char* command,
                       core::PipelineConfig& cfg, std::ostream& err) {
  const std::string text = args.get("full");
  if (!text.empty() && !cluster::parse_scale_method(text, cfg.full_method)) {
    err << command << ": unknown --full method '" << text
        << "' (expected minibatch or landmark)\n";
    return false;
  }
  return true;
}

/// The `--full` run `characterize` and `fit` share. With --trace DIR it
/// streams DIR/batch_task.csv through the pipeline's streaming overload:
/// each job is interned as soon as its rows are read, and
/// batch_instance.csv is never opened. Otherwise it generates the trace
/// and runs the Trace overload. `pipeline_timer` is reset as the pipeline
/// starts, so it counts reading a streamed task file but not generating.
core::FullTraceResult run_full_trace(
    const Args& args, const core::CharacterizationPipeline& pipeline,
    util::ThreadPool& pool, core::FittedFeatures* fitted,
    std::ostream& progress, obs::Stopwatch& pipeline_timer) {
  const std::string dir = trace_dir(args);
  if (dir.empty()) {
    const trace::Trace data = load_or_generate(args, progress);
    pipeline_timer.reset();
    return pipeline.run_full(data, &pool, fitted);
  }
  const auto path = std::filesystem::path(dir) / "batch_task.csv";
  std::ifstream in(path);
  if (!in) throw util::Error("cannot open " + path.string());
  pipeline_timer.reset();
  try {
    core::IngestStats stats;
    core::FullTraceResult result =
        pipeline.run_full(in, &pool, fitted, &stats);
    progress << "streamed " << stats.stream.rows << " task rows from " << dir
             << " (" << stats.stream.malformed << " malformed skipped)\n";
    return result;
  } catch (const util::Error&) {
    // The pipeline stops on a stream that went bad; name the file.
    if (in.bad()) {
      throw util::Error("I/O error while reading " + path.string());
    }
    throw;
  }
}

void print_full_trace_report(std::ostream& out,
                             const core::FullTraceResult& result) {
  out << "full-trace clustering (" << cluster::to_string(result.method);
  if (result.degraded) out << ", degraded from landmark";
  out << "): " << result.total_jobs() << " jobs, " << result.table.size()
      << " distinct shapes ("
      << util::format_double(100.0 * result.stats.distinct_ratio(), 1)
      << "%)\n";
  if (result.method == cluster::ScaleMethod::Landmark) {
    out << "landmark embedding: " << result.landmarks << " landmarks, "
        << result.embedding_dims << " dims\n";
  }
  out << "\ngroup  population      share   med.size  med.depth  med.width  "
         "chains  short\n";
  for (const core::ClusterGroupStats& g : result.groups) {
    out << "    " << g.letter() << "  " << std::setw(10) << g.population
        << "  " << std::setw(8)
        << util::format_double(100.0 * g.population_fraction, 1) << "%  "
        << std::setw(9) << util::format_double(g.size.median, 1) << "  "
        << std::setw(9) << util::format_double(g.critical_path.median, 1)
        << "  " << std::setw(9) << util::format_double(g.parallelism.median, 1)
        << "  " << std::setw(5)
        << util::format_double(100.0 * g.chain_fraction, 0) << "%  "
        << std::setw(4) << util::format_double(100.0 * g.short_job_fraction, 0)
        << "%\n";
  }
  if (result.agreement.items > 0) {
    out << "\nagreement vs exact sampled pipeline ("
        << result.agreement.items
        << " jobs): ARI " << util::format_double(result.agreement.ari, 3)
        << ", NMI " << util::format_double(result.agreement.nmi, 3) << "\n";
  } else {
    out << "\nagreement validation skipped (sample too small)\n";
  }
}

void write_full_trace_json(std::ostream& out,
                           const core::FullTraceResult& result,
                           double load_ms, double pipeline_ms, double total_ms,
                           const std::string& metrics_json) {
  util::JsonWriter j(out);
  j.begin_object();
  j.field("schema", "cwgl-full-v1");
  j.field("jobs", static_cast<unsigned long long>(result.total_jobs()));
  j.field("distinct_shapes", result.table.size());
  j.field("distinct_ratio", result.stats.distinct_ratio());
  j.field("method", cluster::to_string(result.method));
  j.field("degraded", result.degraded);
  j.field("clusters", result.groups.size());
  j.field("inertia", result.inertia);
  if (result.method == cluster::ScaleMethod::Landmark) {
    j.field("landmarks", result.landmarks);
    j.field("embedding_dims", result.embedding_dims);
  }
  j.key("groups");
  j.begin_array();
  for (const core::ClusterGroupStats& g : result.groups) {
    j.begin_object();
    j.field("letter", std::string(1, g.letter()));
    j.field("population", static_cast<unsigned long long>(g.population));
    j.field("population_fraction", g.population_fraction);
    j.field("mean_size", g.size.mean);
    j.field("median_size", g.size.median);
    j.field("mean_critical_path", g.critical_path.mean);
    j.field("median_critical_path", g.critical_path.median);
    j.field("mean_width", g.parallelism.mean);
    j.field("median_width", g.parallelism.median);
    j.field("chain_fraction", g.chain_fraction);
    j.field("short_job_fraction", g.short_job_fraction);
    j.field("medoid_shape", g.medoid);
    j.end_object();
  }
  j.end_array();
  j.key("agreement");
  j.begin_object();
  j.field("jobs", result.agreement.items);
  j.field("ari", result.agreement.ari);
  j.field("nmi", result.agreement.nmi);
  j.field("clusters_full", result.agreement.clusters_a);
  j.field("clusters_exact", result.agreement.clusters_b);
  j.end_object();
  j.key("intern");
  j.begin_object();
  j.field("total_jobs", result.stats.total_jobs);
  j.field("distinct_shapes", result.stats.distinct_shapes);
  j.field("hits", result.stats.hits);
  j.field("misses", result.stats.misses);
  j.field("isomorphism_probes", result.stats.isomorphism_probes);
  j.field("hash_collisions", result.stats.hash_collisions);
  j.end_object();
  j.key("timings");
  j.begin_object();
  j.field("load_ms", load_ms);
  j.field("pipeline_ms", pipeline_ms);
  j.field("total_ms", total_ms);
  j.end_object();
  if (!metrics_json.empty()) {
    j.key("metrics");
    j.raw(metrics_json);
  }
  j.end_object();
  out << "\n";
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string dir = args.get("out");
  if (dir.empty()) {
    err << "generate: --out DIR is required\n";
    return 2;
  }
  trace::GeneratorConfig cfg = generator_config(args, 10000);
  cfg.emit_instances = !args.has("no-instances");
  obs::Stopwatch timer;
  const trace::Trace data = trace::TraceGenerator(cfg).generate();
  trace::write_trace(data, dir);
  out << "wrote " << data.tasks.size() << " task rows and "
      << data.instances.size() << " instance rows to " << dir << " in "
      << util::format_double(timer.millis(), 1) << " ms\n";
  return 0;
}

int cmd_census(const Args& args, std::ostream& out, std::ostream&) {
  const trace::Trace data = load_or_generate(args, out);
  core::print_trace_census(out, core::TraceCensus::compute(data));
  const auto jobs = core::build_all_dag_jobs(data, trace::SamplingCriteria{});
  out << "\nfiltered DAG jobs: " << jobs.size() << "\n";
  core::print_pattern_census(out, core::PatternCensus::compute(jobs));
  const auto topo = core::TopologyCensus::compute(jobs);
  out << "distinct topologies: " << topo.distinct_topologies << " ("
      << util::format_double(100.0 * topo.recurring_fraction, 1)
      << "% of jobs recur)\n";
  if (!data.instances.empty()) {
    const auto inst = trace::InstanceCensus::compute(data);
    out << "\ninstances: " << inst.instances << " on " << inst.machines_used
        << " machines; busiest 10% of machines carry "
        << util::format_double(100.0 * inst.top_decile_share, 1)
        << "% of instance time; retries "
        << util::format_double(100.0 * inst.retry_fraction, 1)
        << "%; cpu usage/plan mean "
        << util::format_double(inst.cpu_usage_ratio.mean, 2) << "\n";
  }
  return 0;
}

int cmd_characterize(const Args& args, std::ostream& out, std::ostream& err) {
  const bool as_json = args.has("json");
  const bool full = args.has("full");
  core::PipelineConfig cfg = pipeline_config(args);
  if (full && !parse_full_method(args, "characterize", cfg, err)) return 2;
  const ObsOptions obs_opts = start_observation(args);
  std::ostringstream sink;  // keep the JSON stream pure of progress chatter
  std::ostream& progress = as_json ? static_cast<std::ostream&>(sink) : out;
  obs::Stopwatch total_timer;

  if (full) {
    // Full-trace path: cluster EVERY eligible job (no sampling) via the
    // scalable backends. A streamed --trace is read inside the pipeline,
    // so load_ms is only what precedes it.
    util::ThreadPool pool;
    obs::Stopwatch timer;
    const core::FullTraceResult result =
        run_full_trace(args, core::CharacterizationPipeline(cfg), pool,
                       nullptr, progress, timer);
    const double pipeline_ms = timer.millis();
    const double load_ms = total_timer.millis() - pipeline_ms;
    const std::string metrics_json = finish_observation(obs_opts, err);
    if (as_json) {
      write_full_trace_json(out, result, load_ms, pipeline_ms,
                            total_timer.millis(), metrics_json);
      return 0;
    }
    out << "full-trace pipeline completed in "
        << util::format_double(pipeline_ms, 1) << " ms\n";
    print_full_trace_report(out, result);
    print_metrics_text(obs_opts, out);
    return 0;
  }

  const trace::Trace data = load_or_generate(args, progress);
  const double load_ms = total_timer.millis();
  util::ThreadPool pool;
  obs::Stopwatch timer;
  const auto result = core::CharacterizationPipeline(cfg).run(data, &pool);
  const double pipeline_ms = timer.millis();
  const std::string metrics_json = finish_observation(obs_opts, err);
  if (as_json) {
    core::ReportExtras extras;
    extras.timings_ms = {{"load_ms", load_ms},
                         {"pipeline_ms", pipeline_ms},
                         {"total_ms", total_timer.millis()}};
    extras.metrics_json = metrics_json;
    core::write_json(out, result, extras);
    out << "\n";
    return 0;
  }
  out << "pipeline completed in " << util::format_double(pipeline_ms, 1)
      << " ms\n";
  const auto& s = result.interned.stats;
  out << "shape interning: " << s.distinct_shapes << " distinct shapes for "
      << s.total_jobs << " jobs ("
      << util::format_double(100.0 * s.distinct_ratio(), 1) << "%), "
      << s.isomorphism_probes << " isomorphism probes, "
      << s.hash_collisions << " hash collisions\n";
  out << "\n";
  core::print_trace_census(out, result.census);
  out << "\n";
  core::print_conflation_report(out, result.conflation);
  out << "\n";
  core::print_structural_report(out, result.structure_before,
                                "Fig 4: job features before node conflation");
  out << "\n";
  core::print_structural_report(out, result.structure_after,
                                "Fig 5: job features after node conflation");
  out << "\n";
  core::print_task_type_report(out, result.task_types);
  out << "\n";
  core::print_pattern_census(out, result.patterns);
  out << "\n";
  core::print_similarity_summary(out, result.similarity.stats(result.sample));
  out << "\n";
  core::print_clustering_analysis(out, result.clustering);
  out << "\n";
  core::print_resource_report(out,
                              core::ResourceUsageReport::compute(result.sample));
  print_metrics_text(obs_opts, out);
  return 0;
}

int cmd_cluster(const Args& args, std::ostream& out, std::ostream&) {
  const core::PipelineConfig cfg = pipeline_config(args);
  const trace::Trace data = load_or_generate(args, out);
  const std::string out_dir = args.get("out");
  util::ThreadPool pool;
  const auto result = core::CharacterizationPipeline(cfg).run(data, &pool);
  core::print_clustering_analysis(out, result.clustering);
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    for (const auto& group : result.clustering.groups) {
      if (group.population == 0) continue;
      const core::JobDag& medoid = result.sample[group.medoid];
      const auto path = std::filesystem::path(out_dir) /
                        ("group_" + std::string(1, group.letter()) + ".dot");
      std::ofstream file(path);
      file << graph::to_dot(medoid.dag, medoid.vertex_names(), medoid.job_name);
      out << "wrote " << path.string() << " (" << medoid.job_name << ", "
          << medoid.size() << " tasks)\n";
    }
  }
  return 0;
}

int cmd_similarity(const Args& args, std::ostream& out, std::ostream&) {
  const core::PipelineConfig cfg = pipeline_config(args);
  const trace::Trace data = load_or_generate(args, out);
  const bool want_matrix = args.has("matrix");
  util::ThreadPool pool;
  const auto sample = core::CharacterizationPipeline(cfg).build_sample(data);
  const auto similarity =
      core::SimilarityAnalysis::compute(sample, cfg.similarity, &pool);
  core::print_similarity_summary(out, similarity.stats(sample));
  if (want_matrix) {
    out << "\n";
    core::print_similarity_matrix(out, similarity);
  }
  return 0;
}

int cmd_ingest(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string dir = trace_dir(args);
  const bool serial = args.has("serial");
  const bool strict = args.has("strict");
  const bool intern = args.has("intern");
  const bool as_json = args.has("json");
  const unsigned threads = non_negative<unsigned>(args, "threads").value_or(0);
  const trace::GeneratorConfig gcfg = generator_config(args, 20000);
  const ObsOptions obs_opts = start_observation(args);
  // Without --trace, synthesize a task CSV in memory so the command is
  // self-contained (the bytes parsed are identical to the on-disk format).
  std::stringstream generated;
  std::ifstream file;
  std::istream* in = nullptr;
  std::uintmax_t input_bytes = 0;
  if (!dir.empty()) {
    const auto path = std::filesystem::path(dir) / "batch_task.csv";
    file.open(path);
    if (!file) {
      err << "ingest: cannot open " << path.string() << "\n";
      return 2;
    }
    std::error_code ec;
    input_bytes = std::filesystem::file_size(path, ec);
    in = &file;
  } else {
    const trace::Trace data = trace::TraceGenerator(gcfg).generate();
    trace::write_batch_task_csv(generated, data.tasks);
    input_bytes = generated.str().size();
    in = &generated;
  }

  std::optional<util::ThreadPool> pool;
  if (!serial) pool.emplace(threads);
  util::Diagnostics diagnostics;
  core::IngestOptions options;
  options.strict = strict;
  options.diagnostics = &diagnostics;
  core::IngestStats stats;
  core::InternedIngest shapes;
  std::size_t dag_count = 0;
  obs::Stopwatch timer;
  if (intern) {
    shapes = core::stream_shape_jobs(*in, options, serial ? nullptr : &*pool);
    stats = shapes.stats;
    dag_count = shapes.shape_of.size();
  } else {
    // Count the DAGs in stats.dags without keeping them.
    core::stream_transformed(*in, options, serial ? nullptr : &*pool, stats,
                             [](std::size_t, core::JobDag&&) {});
    dag_count = stats.dags;
  }
  const double ms = timer.millis();
  const double seconds = std::max(ms, 0.001) / 1000.0;
  const double mb = static_cast<double>(input_bytes) / (1024.0 * 1024.0);
  const double rows_per_s = static_cast<double>(stats.stream.rows) / seconds;
  // The stream falls back to the serial path when the pool has fewer
  // than two workers (e.g. --threads defaulting on a single-core machine);
  // report the mode that actually ran, not the one requested.
  const bool pooled = !serial && pool->size() >= 2;
  const std::string metrics_json = finish_observation(obs_opts, err);

  if (as_json) {
    // One machine-readable document (schema documented in the README):
    // mode/input/quality/built, elapsed wall-clock, throughput, the
    // diagnostics report, and the metrics snapshot when --metrics was given.
    util::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "cwgl-ingest-v1");
    j.field("mode", pooled ? "pooled" : "serial");
    j.field("workers", pooled ? pool->size() : std::size_t{1});
    j.key("input");
    j.begin_object();
    j.field("bytes", static_cast<unsigned long long>(input_bytes));
    j.field("rows", stats.stream.rows);
    j.field("job_groups", stats.stream.jobs);
    j.end_object();
    j.key("quality");
    j.begin_object();
    j.field("malformed_rows", stats.stream.malformed);
    j.field("fragmented_jobs", stats.stream.fragmented);
    j.end_object();
    j.key("built");
    j.begin_object();
    j.field("dags", stats.dags);
    j.field("eligible", stats.eligible);
    j.end_object();
    j.field("elapsed_ms", ms);
    j.key("throughput");
    j.begin_object();
    j.field("rows_per_s", rows_per_s);
    j.field("mb_per_s", mb / seconds);
    j.end_object();
    j.field("dag_count", dag_count);
    if (intern) {
      j.key("intern");
      j.begin_object();
      j.field("total_jobs", shapes.intern.total_jobs);
      j.field("distinct_shapes", shapes.intern.distinct_shapes);
      j.field("distinct_ratio", shapes.intern.distinct_ratio());
      j.field("hits", shapes.intern.hits);
      j.field("misses", shapes.intern.misses);
      j.field("isomorphism_probes", shapes.intern.isomorphism_probes);
      j.field("hash_collisions", shapes.intern.hash_collisions);
      j.end_object();
    }
    j.key("diagnostics");
    {
      std::ostringstream diag;
      diagnostics.write_json(diag);
      j.raw(diag.str());
    }
    if (!metrics_json.empty()) {
      j.key("metrics");
      j.raw(metrics_json);
    }
    j.end_object();
    out << "\n";
    return 0;
  }

  out << "mode:        "
      << (pooled ? "pooled (" + std::to_string(pool->size()) + " workers)"
                 : "serial")
      << "\n";
  out << "input:       " << util::format_double(mb, 1) << " MiB, "
      << stats.stream.rows << " rows, " << stats.stream.jobs << " job groups\n";
  out << "quality:     " << stats.stream.malformed << " malformed rows, "
      << stats.stream.fragmented << " fragmented jobs\n";
  out << "built:       " << stats.dags << " DAG jobs (of " << stats.eligible
      << " eligible)\n";
  out << "time:        " << util::format_double(ms, 1) << " ms\n";
  out << "throughput:  " << util::format_double(mb / seconds, 1) << " MB/s, "
      << util::format_double(rows_per_s / 1e6, 2) << " M rows/s\n";
  out << "(checksum: " << dag_count << " dags)\n";
  if (intern) {
    out << "shapes:      " << shapes.intern.distinct_shapes << " distinct of "
        << shapes.intern.total_jobs << " jobs ("
        << util::format_double(100.0 * shapes.intern.distinct_ratio(), 1)
        << "%), " << shapes.intern.hits << " hits, "
        << shapes.intern.isomorphism_probes << " isomorphism probes, "
        << shapes.intern.hash_collisions << " hash collisions\n";
  }
  diagnostics.write_text(out);
  print_metrics_text(obs_opts, out);
  return 0;
}

int cmd_compare(const Args& args, std::ostream& out, std::ostream&) {
  const std::string dir_a = args.get("trace");
  const std::string dir_b = args.get("trace-b");
  trace::Trace a, b;
  if (!dir_a.empty() || !dir_b.empty()) {
    if (dir_a.empty() || dir_b.empty()) {
      throw UsageError(std::string(dir_a.empty() ? "--trace" : "--trace-b") +
                       " DIR is missing (give both traces, or neither)");
    }
    if (args.has("jobs") || args.has("seed") || args.has("seed-b")) {
      throw UsageError("--jobs/--seed/--seed-b cannot be used with traces");
    }
    a = trace::read_trace(dir_a);
    b = trace::read_trace(dir_b);
  } else {
    // Without traces, compare two generated "days" (different seeds).
    trace::GeneratorConfig cfg = generator_config(args, 5000);
    a = trace::TraceGenerator(cfg).generate();
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed-b").value_or(43));
    b = trace::TraceGenerator(cfg).generate();
  }
  const auto cmp = core::TraceComparison::compute(a, b);
  out << "workload drift (Jensen-Shannon divergence, 0 = identical, 0.693 = disjoint)\n";
  out << "  DAG jobs analyzed:      " << cmp.jobs_a << " vs " << cmp.jobs_b << "\n";
  out << "  job size:               " << util::format_double(cmp.size_divergence, 4) << "\n";
  out << "  shape mix:              " << util::format_double(cmp.shape_divergence, 4) << "\n";
  out << "  critical path:          " << util::format_double(cmp.depth_divergence, 4) << "\n";
  out << "  parallelism:            " << util::format_double(cmp.width_divergence, 4) << "\n";
  out << "  task-type mix:          " << util::format_double(cmp.task_type_divergence, 4) << "\n";
  out << "  DAG-fraction delta:     " << util::format_double(cmp.dag_fraction_delta, 4) << "\n";
  out << "  headline drift:         " << util::format_double(cmp.max_divergence(), 4) << "\n";
  return 0;
}

int cmd_fit(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string out_path = args.get("out", "model.cwgl");
  const bool as_json = args.has("json");
  const bool full = args.has("full");
  std::ostringstream sink;  // keep the JSON stream pure of progress chatter
  std::ostream& progress = as_json ? static_cast<std::ostream&>(sink) : out;
  core::PipelineConfig cfg = pipeline_config(args);
  if (args.has("conflated")) cfg.analyze_conflated = true;
  if (full && !parse_full_method(args, "fit", cfg, err)) return 2;
  const ObsOptions obs_opts = start_observation(args);

  util::ThreadPool pool;
  obs::Stopwatch timer;  // reset once the trace is in hand (or streaming)
  core::FittedFeatures fitted;
  const core::CharacterizationPipeline pipeline(cfg);
  model::FittedModel snapshot;
  // Self-check inputs: the training jobs (exemplars on a full fit) and the
  // cluster each must land back in when classified through the snapshot.
  std::vector<core::JobDag> check_jobs;
  std::vector<int> check_labels;
  std::string full_method;
  bool full_degraded = false;
  cluster::AgreementReport agreement;
  if (full) {
    core::FullTraceResult result =
        run_full_trace(args, pipeline, pool, &fitted, progress, timer);
    full_method = cluster::to_string(result.method);
    full_degraded = result.degraded;
    agreement = result.agreement;
    snapshot = model::build_model_full(result, std::move(fitted), cfg);
    check_labels = result.shape_labels;
    check_jobs = std::move(result.table.exemplars);
  } else {
    const trace::Trace data = load_or_generate(args, progress);
    timer.reset();
    core::PipelineResult result = pipeline.run(data, &pool, &fitted);
    snapshot = model::build_model(result, std::move(fitted), cfg);
    check_labels = result.clustering.labels;
    check_jobs = std::move(result.sample);
  }
  model::save_model(snapshot, out_path);
  const double elapsed_ms = timer.millis();
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(out_path, ec);
  const model::SectionSizes sections = model::section_sizes(snapshot);

  // Round-trip self-check: reload the snapshot from disk and classify every
  // training job through it — each must land back in its own cluster, or
  // the model does not faithfully represent the fit.
  const serve::Classifier classifier(model::load_model(out_path));
  std::atomic<std::size_t> agreed{0};
  {
    obs::Span span("fit.selfcheck");
    util::parallel_for_chunked(
        pool, 0, check_jobs.size(), 16, [&](std::size_t lo, std::size_t hi) {
          std::size_t hits = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            if (classifier.classify(check_jobs[i]).cluster == check_labels[i]) {
              ++hits;
            }
          }
          agreed += hits;
        });
    span.arg("shapes", check_jobs.size());
    span.arg("agree", agreed.load());
  }
  const std::size_t agree = agreed.load();
  const bool self_check_ok = agree == check_jobs.size();
  const std::string metrics_json = finish_observation(obs_opts, err);

  if (as_json) {
    util::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "cwgl-fit-v1");
    j.field("full", full);
    if (full) {
      j.field("method", full_method);
      j.field("degraded", full_degraded);
      j.key("agreement");
      j.begin_object();
      j.field("jobs", agreement.items);
      j.field("ari", agreement.ari);
      j.field("nmi", agreement.nmi);
      j.end_object();
    }
    j.field("clusters", snapshot.num_clusters());
    j.field("training_jobs",
            static_cast<unsigned long long>(snapshot.training_weight()));
    j.field("representatives", snapshot.training_jobs());
    j.field("dictionary_size", snapshot.dictionary.size());
    j.field("elapsed_ms", elapsed_ms);
    j.key("snapshot");
    j.begin_object();
    j.field("path", out_path);
    j.field("bytes", static_cast<unsigned long long>(bytes));
    j.key("sections");
    j.begin_object();
    j.field("conf", static_cast<unsigned long long>(sections.conf));
    j.field("dict", static_cast<unsigned long long>(sections.dict));
    j.field("prof", static_cast<unsigned long long>(sections.prof));
    j.field("reps", static_cast<unsigned long long>(sections.reps));
    j.field("shpc", static_cast<unsigned long long>(sections.shpc));
    j.field("total", static_cast<unsigned long long>(sections.total));
    j.end_object();
    j.end_object();
    j.key("self_check");
    j.begin_object();
    j.field("agree", agree);
    j.field("total", check_jobs.size());
    j.field("ok", self_check_ok);
    j.end_object();
    if (!metrics_json.empty()) {
      j.key("metrics");
      j.raw(metrics_json);
    }
    j.end_object();
    out << "\n";
  } else {
    out << "fitted " << snapshot.num_clusters() << " clusters over "
        << snapshot.training_weight() << " jobs ("
        << snapshot.training_jobs() << " representatives, "
        << snapshot.dictionary.size() << " WL signatures) in "
        << util::format_double(elapsed_ms, 1) << " ms\n";
    if (full) {
      out << "full-trace fit (" << full_method
          << (full_degraded ? ", degraded" : "") << ")";
      if (agreement.items > 0) {
        out << ": agreement vs exact sample ARI "
            << util::format_double(agreement.ari, 3) << ", NMI "
            << util::format_double(agreement.nmi, 3);
      }
      out << "\n";
    }
    out << "wrote " << out_path << " (" << bytes
        << " bytes; sections conf=" << sections.conf
        << " dict=" << sections.dict << " prof=" << sections.prof
        << " reps=" << sections.reps << " shpc=" << sections.shpc << ")\n";
    out << "self-check: " << agree << "/" << check_jobs.size()
        << " training jobs reproduce their cluster\n";
    print_metrics_text(obs_opts, out);
  }
  if (!self_check_ok) {
    err << "fit: self-check FAILED — snapshot disagrees with the pipeline\n";
    return 1;
  }
  return 0;
}

/// `predict`: classify incoming jobs against a fitted snapshot. The task
/// file streams through the ingest on the command's pool, and each job is
/// classified and rendered on the worker that built its DAG; the report is
/// written in trace order once the whole file has been read cleanly.
int cmd_predict(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string model_path = args.get("model");
  const std::string input = args.positional(0);
  const bool as_json = args.has("json");
  if (model_path.empty() || input.empty()) {
    err << "predict: classification needs a snapshot and a task CSV "
           "(cwgl predict --model FILE TASK_CSV); the completion-time "
           "regression is `cwgl jct`\n";
    return 2;
  }
  const ObsOptions obs_opts = start_observation(args);

  const serve::Classifier classifier = [&] {
    obs::Span span("predict.load");
    return serve::Classifier(model::load_model(model_path));
  }();
  std::ifstream file(input);
  if (!file) {
    err << "predict: cannot open " << input << "\n";
    return 2;
  }
  util::ThreadPool pool;
  core::IngestStats stats;
  const std::vector<std::string> jobs = core::stream_transformed(
      file, core::IngestOptions{}, &pool, stats,
      PredictionRenderer(classifier, as_json));
  // A stream that died mid-read ends like a short file, and a job whose
  // rows reappear after its group closed would be classified as two jobs.
  if (file.bad()) {
    err << "predict: I/O error while reading " << input << "\n";
    return 1;
  }
  if (const std::size_t fragmented = stats.stream.fragmented) {
    throw util::ParseError(
        "predict: " + std::to_string(fragmented) +
        " job group(s) reappear after their job's rows ended; a job's "
        "task rows must be contiguous (sort " + input + " by job)");
  }
  if (jobs.empty()) {
    err << "predict: no classifiable DAG jobs in " << input << " ("
        << stats.stream.rows << " rows, " << stats.stream.malformed
        << " malformed)\n";
    return 2;
  }

  // The snapshot is taken first so the write span can close the trace.
  const std::string metrics_json = finish_metrics(obs_opts, err);
  {
    obs::Span span("predict.write");
    span.arg("jobs", jobs.size());
    write_predictions(out, jobs, model_path, classifier.num_clusters(),
                      as_json, metrics_json);
    if (!as_json) print_metrics_text(obs_opts, out);
  }
  finish_trace(obs_opts, err);
  return 0;
}

int cmd_serve_bench(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string model_path = args.get("model");
  const bool as_json = args.has("json");
  const trace::GeneratorConfig gcfg = generator_config(args, 2000, 99);
  const unsigned threads = non_negative<unsigned>(args, "threads").value_or(0);
  const auto repeat = static_cast<int>(args.get_int("repeat").value_or(3));
  const ObsOptions obs_opts = start_observation(args);
  if (model_path.empty()) {
    err << "serve-bench: --model FILE is required\n";
    return 2;
  }

  const serve::Classifier classifier(model::load_model(model_path));
  const trace::Trace data = trace::TraceGenerator(gcfg).generate();
  const auto jobs =
      core::build_all_dag_jobs(data, trace::SamplingCriteria{});
  if (jobs.empty()) {
    err << "serve-bench: generated workload contains no DAG jobs\n";
    return 2;
  }

  util::ThreadPool pool(threads);
  const std::size_t dict_before = classifier.dictionary_size();
  serve::BatchStats best;
  for (int r = 0; r < std::max(repeat, 1); ++r) {
    const serve::BatchStats stats =
        serve::classify_batch(classifier, jobs, &pool);
    if (stats.jobs_per_second > best.jobs_per_second) best = stats;
  }
  // The serving contract: inference must never grow the frozen dictionary.
  if (classifier.dictionary_size() != dict_before) {
    err << "serve-bench: dictionary grew under inference — serving contract "
           "violated\n";
    return 1;
  }
  const std::string metrics_json = finish_observation(obs_opts, err);

  if (as_json) {
    util::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "cwgl-serve-bench-v1");
    j.field("model", model_path);
    j.field("jobs", best.jobs);
    j.field("threads", pool.size());
    j.field("repeat", static_cast<std::size_t>(std::max(repeat, 1)));
    j.field("jobs_per_second", best.jobs_per_second);
    j.key("latency_us");
    j.begin_object();
    j.field("p50", best.p50_latency_us);
    j.field("p90", best.p90_latency_us);
    j.field("p99", best.p99_latency_us);
    j.field("max", best.max_latency_us);
    j.end_object();
    j.field("oov_jobs", best.oov_jobs);
    if (!metrics_json.empty()) {
      j.key("metrics");
      j.raw(metrics_json);
    }
    j.end_object();
    out << "\n";
    return 0;
  }

  out << "served " << best.jobs << " jobs on " << pool.size()
      << " threads (best of " << std::max(repeat, 1) << ")\n";
  out << "throughput:  " << util::format_double(best.jobs_per_second / 1e3, 1)
      << " K jobs/s\n";
  out << "latency:     p50 " << util::format_double(best.p50_latency_us, 0)
      << " us, p90 " << util::format_double(best.p90_latency_us, 0)
      << " us, p99 " << util::format_double(best.p99_latency_us, 0)
      << " us, max " << util::format_double(best.max_latency_us, 0) << " us\n";
  out << "oov jobs:    " << best.oov_jobs << " of " << best.jobs << "\n";
  out << "groups:      ";
  for (std::size_t c = 0; c < best.cluster_counts.size(); ++c) {
    out << (c > 0 ? "  " : "") << model::FittedModel::letter(c) << "="
        << best.cluster_counts[c];
  }
  out << "\n";
  print_metrics_text(obs_opts, out);
  return 0;
}

/// `jct`: fit and evaluate the completion-time regression on a sample.
int cmd_jct(const Args& args, std::ostream& out, std::ostream& err) {
  const core::PipelineConfig cfg = pipeline_config(args);
  const trace::Trace data = load_or_generate(args, out);
  const auto sample = core::CharacterizationPipeline(cfg).build_sample(data);
  const std::size_t split = sample.size() / 2;
  const std::vector<core::JobDag> train(sample.begin(), sample.begin() + split);
  const std::vector<core::JobDag> test(sample.begin() + split, sample.end());
  if (train.empty() || test.empty()) {
    err << "jct: sample too small\n";
    return 2;
  }
  const auto model = core::JctPredictor::fit(train, {}, core::PredictorConfig{});
  const auto eval = model.evaluate(test, {});
  out << "completion-time predictor (fit on " << train.size()
      << " jobs, evaluated on " << eval.jobs << " held-out jobs)\n";
  out << "  R^2:  " << util::format_double(eval.r2, 3) << "\n";
  out << "  MAE:  " << util::format_double(eval.mae, 1) << " s (mean actual "
      << util::format_double(eval.mean_actual, 1) << " s)\n";
  out << "example predictions (first 5 held-out jobs):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, test.size()); ++i) {
    out << "  " << util::pad_right(test[i].job_name, 12) << " predicted "
        << util::pad_left(util::format_double(model.predict(test[i]), 0), 6)
        << " s, actual "
        << util::pad_left(
               util::format_double(core::JctPredictor::actual_wall_time(test[i]), 0), 6)
        << " s\n";
  }
  return 0;
}

/// Parses the endpoint switches shared by `serve` and `client`.
serve::Endpoint endpoint_from(const Args& args) {
  serve::Endpoint ep;
  ep.socket_path = args.get("socket");
  if (const auto port = args.get_int("port")) {
    ep.tcp_port = static_cast<int>(*port);
  }
  return ep;
}

int cmd_serve(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string model_path = args.get("model");
  serve::DaemonConfig cfg;
  cfg.endpoint = endpoint_from(args);
  cfg.model_path = model_path;
  if (model_path.empty() || !cfg.endpoint.valid()) {
    err << "serve: need --model FILE and an endpoint "
           "(--socket PATH | --port N)\n";
    return 2;
  }
  using Ms = std::chrono::milliseconds;
  using Us = std::chrono::microseconds;
  cfg.worker_threads = non_negative<unsigned>(args, "threads").value_or(0);
  if (const auto v = non_negative<std::size_t>(args, "max-inflight")) {
    cfg.max_inflight = *v;
  }
  if (const auto v = non_negative<std::size_t>(args, "max-batch")) {
    cfg.max_batch = *v;
  }
  if (const auto v = non_negative<Ms::rep>(args, "deadline-ms")) {
    cfg.default_deadline = Ms(*v);
  }
  if (const auto v = non_negative<Ms::rep>(args, "admission-wait-ms")) {
    cfg.admission_wait = Ms(*v);
  }
  if (const auto v = non_negative<Ms::rep>(args, "drain-timeout-ms")) {
    cfg.drain_timeout = Ms(*v);
  }
  if (const auto v = non_negative<Us::rep>(args, "service-delay-us")) {
    cfg.service_delay = Us(*v);
  }

  // Telemetry plane switches.
  cfg.telemetry_path = args.get("telemetry-out");
  if (!cfg.telemetry_path.empty()) {
    const double interval_s =
        args.get_double("telemetry-interval").value_or(10.0);
    if (interval_s <= 0.0) {
      err << "serve: --telemetry-interval must be positive\n";
      return 2;
    }
    cfg.telemetry_interval =
        std::chrono::milliseconds(static_cast<long>(interval_s * 1000.0));
  } else if (args.has("telemetry-interval")) {
    throw UsageError("--telemetry-interval needs --telemetry-out FILE");
  }
  cfg.trace_buffer =
      non_negative<std::size_t>(args, "trace-buffer").value_or(0);
  const bool want_log = args.has("log");
  const std::string log_file = args.get("log");
  obs::Logger::Options log_options;
  log_options.json = args.has("log-json");
  if (const std::string level_text = args.get("log-level");
      !level_text.empty()) {
    if (!obs::parse_log_level(level_text, log_options.level)) {
      err << "serve: unknown --log-level '" << level_text
          << "' (debug|info|warn|error)\n";
      return 2;
    }
  }
  if (want_log) {
    if (log_file.empty()) {
      obs::Logger::global().configure(&err, log_options);
    } else {
      std::string log_error;
      if (!obs::Logger::global().open(log_file, log_options, &log_error)) {
        err << "serve: " << log_error << "\n";
        return 2;
      }
    }
  }
  cfg.logger = &obs::Logger::global();

  const ObsOptions obs = start_observation(args);

  auto classifier =
      std::make_shared<const serve::Classifier>(model::load_model(model_path));
  out << "loaded " << model_path << " ("
      << classifier->num_clusters() << " clusters, "
      << classifier->dictionary_size() << " WL signatures)\n";
  serve::Daemon daemon(std::move(classifier), cfg);
  daemon.start();
  daemon.install_signal_handlers();
  if (!cfg.endpoint.socket_path.empty()) {
    out << "serving on unix:" << cfg.endpoint.socket_path;
  } else {
    out << "serving on tcp:" << daemon.tcp_port();
  }
  out << " (SIGHUP reloads the model, SIGTERM/SIGINT drains)\n"
      << std::flush;

  const int rc = daemon.wait();
  const serve::DaemonStats s = daemon.stats();
  out << "drained: " << s.requests << " requests (" << s.served << " served, "
      << s.shed << " shed, " << s.timeouts << " timed out, " << s.errors
      << " errors, " << s.rejected_draining << " rejected draining), "
      << s.reloads << " reloads\n";
  finish_observation(obs, err);
  print_metrics_text(obs, out);
  return rc;
}

/// Rehydrates an obs::MetricsSnapshot from the JSON the daemon's `stats`
/// payload carries (MetricsSnapshot::write_json format). Lives here, not in
/// obs, because obs sits below util and cannot parse JSON.
obs::MetricsSnapshot snapshot_from_json(const util::JsonValue& doc) {
  obs::MetricsSnapshot snap;
  if (const util::JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, value] : counters->as_object()) {
      snap.counters.push_back(
          {name, static_cast<std::uint64_t>(value.as_number())});
    }
  }
  if (const util::JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [name, value] : gauges->as_object()) {
      snap.gauges.push_back(
          {name, static_cast<std::int64_t>(value.at("value").as_number()),
           static_cast<std::int64_t>(value.at("max").as_number())});
    }
  }
  if (const util::JsonValue* histograms = doc.find("histograms")) {
    for (const auto& [name, value] : histograms->as_object()) {
      obs::MetricsSnapshot::HistogramEntry h;
      h.name = name;
      h.count = static_cast<std::uint64_t>(value.at("count").as_number());
      h.sum = static_cast<std::uint64_t>(value.at("sum").as_number());
      h.max = static_cast<std::uint64_t>(value.at("max").as_number());
      h.p50 = static_cast<std::uint64_t>(value.at("p50").as_number());
      h.p90 = static_cast<std::uint64_t>(value.at("p90").as_number());
      h.p99 = static_cast<std::uint64_t>(value.at("p99").as_number());
      if (const util::JsonValue* v = value.find("p50_est")) {
        h.p50_est = v->as_number();
      }
      if (const util::JsonValue* v = value.find("p90_est")) {
        h.p90_est = v->as_number();
      }
      if (const util::JsonValue* v = value.find("p99_est")) {
        h.p99_est = v->as_number();
      }
      if (const util::JsonValue* buckets = value.find("buckets")) {
        for (const util::JsonValue& b : buckets->as_array()) {
          h.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
        }
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

/// One client request/response round trip plus output formatting. Non-`ok`
/// statuses print to stderr and return 1, so scripts can branch on the exit
/// code instead of scraping stdout.
int client_round_trip(const serve::Endpoint& ep, const serve::Request& req,
                      bool prometheus, std::ostream& out, std::ostream& err) {
  serve::Client client(ep);
  const serve::Response resp = client.call(req);
  if (resp.status != serve::ResponseStatus::Ok) {
    err << "status " << serve::to_string(resp.status);
    if (!resp.message.empty()) err << ": " << resp.message;
    err << "\n";
    return 1;
  }
  if (req.type == serve::RequestType::Stats && prometheus) {
    // Render the daemon's metrics snapshot as Prometheus text exposition;
    // everything else (flat counters, flight records) is JSON-only.
    if (resp.payload.empty()) {
      err << "client: daemon sent no stats payload (pre-telemetry build?)\n";
      return 1;
    }
    const util::JsonValue doc = util::parse_json(resp.payload);
    const util::JsonValue* metrics = doc.find("metrics");
    if (metrics == nullptr) {
      err << "client: stats payload carries no 'metrics' member\n";
      return 1;
    }
    obs::write_prometheus(out, snapshot_from_json(*metrics));
    return 0;
  }
  out << "status " << serve::to_string(resp.status);
  if (!resp.message.empty()) out << ": " << resp.message;
  out << "\n";
  if (req.type == serve::RequestType::Ping) {
    if (!resp.version.empty()) out << "version " << resp.version << "\n";
    if (resp.generation > 0) out << "generation " << resp.generation << "\n";
  }
  if (req.type == serve::RequestType::Classify) {
    out << "cluster " << resp.cluster << " (id " << resp.cluster_id
        << "), similarity " << util::format_double(resp.similarity, 4)
        << ", nearest " << resp.nearest << ", oov " << resp.oov_hits << "\n";
    out << "forecast critical_path "
        << util::format_double(resp.predicted_critical_path, 1) << ", width "
        << util::format_double(resp.predicted_width, 1) << "\n";
  }
  for (const auto& [key, value] : resp.stats) {
    out << "  " << util::pad_right(key, 20) << " " << value << "\n";
  }
  if ((req.type == serve::RequestType::Stats ||
       req.type == serve::RequestType::Health ||
       req.type == serve::RequestType::Trace) &&
      !resp.payload.empty()) {
    out << resp.payload << "\n";
  }
  return 0;
}

int cmd_client(const Args& args, std::ostream& out, std::ostream& err) {
  const serve::Endpoint ep = endpoint_from(args);
  serve::Request req;
  req.id = 1;
  const std::string tasks = args.get("tasks");
  const bool prometheus = args.has("prometheus");
  using Type = serve::RequestType;
  constexpr std::pair<std::string_view, Type> kRequests[] = {
      {"ping", Type::Ping},   {"stats", Type::Stats},   {"health", Type::Health},
      {"trace", Type::Trace}, {"reload", Type::Reload}, {"drain", Type::Drain}};
  int picked = 0;
  for (const auto& [flag, type] : kRequests) {
    if (args.has(flag)) {
      req.type = type;
      ++picked;
    }
  }
  if (picked > 1) {
    throw UsageError("--ping, --stats, --health, --trace, --reload and "
                     "--drain are separate requests; give one");
  }
  if (picked == 0 && !tasks.empty()) {
    req.type = Type::Classify;
    req.job_name = args.get("job", "job");
    for (const auto part : util::split(tasks, ',')) {
      if (!part.empty()) req.tasks.emplace_back(part);
    }
    if (const auto d = args.get_double("deadline-ms")) req.deadline_ms = *d;
  } else if (picked == 0) {
    err << "client: pick one of --ping, --stats, --health, --trace, "
           "--reload[=FILE], --drain, or --job NAME --tasks M1,R2_1,...\n";
    return 2;
  } else if (args.has("job") || args.has("deadline-ms")) {
    throw UsageError("--job and --deadline-ms need a --tasks request");
  }
  req.model_path = args.get("reload");
  if (!ep.valid()) {
    err << "client: need an endpoint (--socket PATH | --port N)\n";
    return 2;
  }
  const double watch_s = args.get_double("watch").value_or(0.0);
  const long watch_count = args.get_int("watch-count").value_or(0);

  if (watch_s <= 0.0) return client_round_trip(ep, req, prometheus, out, err);

  // Watch mode: re-poll on a fresh connection each round (a daemon restart
  // between polls just works), separating rounds with a blank line.
  long polls = 0;
  int rc = 0;
  for (;;) {
    if (polls > 0) out << "\n";
    rc = client_round_trip(ep, req, prometheus, out, err);
    out << std::flush;
    ++polls;
    if (rc != 0) return rc;
    if (watch_count > 0 && polls >= watch_count) return rc;
    std::this_thread::sleep_for(std::chrono::duration<double>(watch_s));
  }
}

int cmd_schedule(const Args& args, std::ostream& out, std::ostream&) {
  core::PipelineConfig cfg = pipeline_config(args);
  cfg.sampling = core::SamplingMode::Natural;
  sched::SimulatorConfig sim_cfg;
  sim_cfg.machines = non_negative<std::size_t>(args, "machines").value_or(4);
  const double online = args.get_double("online").value_or(0.0);
  if (online > 0.0) {
    sim_cfg.online.enabled = true;
    sim_cfg.online.base_fraction = online;
    sim_cfg.online.amplitude = std::min(0.2, 0.9 - online);
  }
  const double inter_arrival = args.get_double("inter-arrival").value_or(1.0);

  const trace::Trace data = load_or_generate(args, out);
  util::ThreadPool pool;
  const auto result = core::CharacterizationPipeline(cfg).run(data, &pool);
  const auto& labels = result.clustering.labels;
  auto jobs = sched::jobs_from_dags(result.sample, inter_arrival);
  sched::attach_hints(jobs, labels);
  const auto profiles = sched::profiles_from_groups(
      result.sample, labels, static_cast<int>(result.clustering.groups.size()));

  const sched::Simulator sim(sim_cfg);
  const sched::FifoPolicy fifo;
  const sched::CriticalPathFirstPolicy cpf;
  const sched::ShortestJobFirstPolicy sjf;
  const sched::GroupHintPolicy hint;
  out << util::pad_right("policy", 22) << util::pad_left("makespan", 10)
      << util::pad_left("mean JCT", 10) << util::pad_left("preempt", 9)
      << util::pad_left("util", 7) << "\n";
  for (const sched::SchedulingPolicy* policy :
       std::initializer_list<const sched::SchedulingPolicy*>{&fifo, &cpf, &sjf,
                                                             &hint}) {
    const auto r = sim.run(jobs, *policy, profiles);
    out << util::pad_right(std::string(policy->name()), 22)
        << util::pad_left(util::format_double(r.makespan, 0), 10)
        << util::pad_left(util::format_double(r.mean_jct, 1), 10)
        << util::pad_left(std::to_string(r.preemptions), 9)
        << util::pad_left(util::format_double(r.mean_utilization, 2), 7)
        << "\n";
  }
  return 0;
}

/// One `cwgl` command. Its synopsis is the declaration run_cli checks a
/// command line against: the flags it names, no others, and at most
/// `operands` bare operands. A flag written without a value (`--json`)
/// never takes the next word as one.
struct Command {
  std::string_view name;
  std::string_view alias;     ///< a second name, or empty
  std::string_view summary;   ///< `cwgl help` text, lines split by '\n'
  std::string_view synopsis;  ///< lines split by '\n'
  std::size_t operands;
  int (*run)(const Args&, std::ostream& out, std::ostream& err);
};

constexpr Command kCommands[] = {
    {"generate", "", "write a synthetic Alibaba-v2018 trace to disk",
     "--out DIR [--jobs N] [--seed S] [--no-instances]", 0, cmd_generate},
    {"census", "", "whole-trace statistics (DAG share, resources, shapes)",
     "(--trace DIR | [--jobs N] [--seed S])", 0, cmd_census},
    {"characterize", "pipeline",
     "the full paper pipeline, printing every figure's data; --json\n"
     "adds \"timings\" and, with --metrics, a \"metrics\" snapshot.\n"
     "The costly stages run once per distinct DAG shape of the\n"
     "sample, and every figure is still per job. --full[=METHOD]\n"
     "clusters EVERY eligible job (minibatch or landmark), checked\n"
     "by ARI/NMI against the exact pipeline. --full --trace DIR\n"
     "streams DIR/batch_task.csv, whose job rows must be contiguous,\n"
     "and never reads batch_instance.csv; reading is then part of\n"
     "\"pipeline_ms\", and \"load_ms\" is only what precedes it",
     "(--trace DIR | [--jobs N] [--seed S]) [--sample K] [--natural]\n"
     "[--clusters K] [--wl-iterations H] [--json]\n"
     "[--full[=METHOD]] [--metrics[=FILE]] [--trace-out FILE]", 0,
     cmd_characterize},
    {"cluster", "", "similarity map + spectral groups + medoid .dot files",
     "(--trace DIR | [--jobs N] [--seed S]) [--sample K] [--natural]\n"
     "[--clusters K] [--wl-iterations H] [--out DIR]", 0, cmd_cluster},
    {"similarity", "", "WL similarity summary (add --matrix for the full CSV)",
     "(--trace DIR | [--jobs N] [--seed S]) [--sample K] [--natural]\n"
     "[--wl-iterations H] [--matrix]", 0, cmd_similarity},
    {"ingest", "",
     "streaming ingest throughput, batch_task.csv -> DAG jobs, in\n"
     "rows/s and MB/s. Damaged records are quarantined and reported;\n"
     "--strict fails on the first. --intern counts distinct shapes;\n"
     "--json: schema cwgl-ingest-v1; --metrics snapshots metrics;\n"
     "--trace-out writes Chrome trace-event JSON",
     "(--trace DIR | [--jobs N] [--seed S]) [--threads T] [--json]\n"
     "[--serial] [--strict] [--intern] [--metrics[=FILE]]\n"
     "[--trace-out FILE]", 0, cmd_ingest},
    {"compare", "", "workload drift between two traces (JS divergence)",
     "(--trace DIR --trace-b DIR |\n"
     " [--jobs N] [--seed S] [--seed-b S])", 0, cmd_compare},
    {"fit", "",
     "run the pipeline, save the fitted WL/cluster model as a\n"
     "cwgl-model-v2 snapshot, and self-check that it reproduces the\n"
     "pipeline's clusters. A sampled fit keeps one representative per\n"
     "job; --full[=METHOD] fits EVERY eligible job, one representative\n"
     "per distinct shape with its count, and with --trace DIR streams\n"
     "DIR/batch_task.csv (job rows contiguous; batch_instance.csv is\n"
     "never read); --json: schema cwgl-fit-v1 with section sizes,\n"
     "self-check and, with --metrics, a \"metrics\" snapshot;\n"
     "--trace-out writes Chrome trace-event JSON, the self-check as\n"
     "its fit.selfcheck span",
     "(--trace DIR | [--jobs N] [--seed S]) [--out FILE] [--json]\n"
     "[--sample K] [--natural] [--clusters K] [--wl-iterations H]\n"
     "[--conflated] [--full[=METHOD]] [--metrics[=FILE]]\n"
     "[--trace-out FILE]", 0, cmd_fit},
    {"predict", "",
     "classify the DAG jobs of a task CSV against a fitted snapshot\n"
     "(cluster, similarity, forecast; --json: cwgl-predict-v1, with\n"
     "--metrics a \"metrics\" snapshot). The file is streamed, so a\n"
     "job's task rows must be contiguous (sort it by job); nothing is\n"
     "printed unless all of it reads cleanly. --trace-out writes\n"
     "Chrome trace-event JSON. The completion-time regression is\n"
     "`cwgl jct`",
     "--model FILE TASK_CSV [--json] [--metrics[=FILE]]\n"
     "[--trace-out FILE]", 1, cmd_predict},
    {"jct", "", "completion-time regression, R^2/MAE on a held-out half",
     "(--trace DIR | [--jobs N] [--seed S]) [--sample K] [--natural]", 0,
     cmd_jct},
    {"serve-bench", "",
     "batched multithreaded classification throughput against a\n"
     "fitted snapshot (--json: schema cwgl-serve-bench-v1)",
     "--model FILE [--jobs N] [--seed S] [--threads T] [--repeat R]\n"
     "[--json] [--metrics[=FILE]] [--trace-out FILE]", 0, cmd_serve_bench},
    {"schedule", "",
     "simulate scheduling policies on a naturally sampled workload",
     "(--trace DIR | [--jobs N] [--seed S]) [--sample K]\n"
     "[--clusters K] [--wl-iterations H] [--machines M] [--online F]\n"
     "[--inter-arrival S]", 0, cmd_schedule},
    {"serve", "",
     "classification daemon on a unix or loopback-tcp socket; prints\n"
     "`serving on ...` when ready, sheds overload, keeps deadlines,\n"
     "reloads the model on SIGHUP or `reload`, drains on SIGTERM.\n"
     "Every --telemetry-interval SEC --telemetry-out gets Prometheus\n"
     "text; --log[=FILE] logs at --log-level debug|info|warn|error,\n"
     "--log-json as JSON lines; --trace-buffer N keeps trace spans",
     "--model FILE (--socket PATH | --port N) [--threads T]\n"
     "[--max-inflight N] [--max-batch N] [--deadline-ms D]\n"
     "[--admission-wait-ms W] [--drain-timeout-ms D] [--log-json]\n"
     "[--service-delay-us U] [--metrics[=FILE]] [--trace-out FILE]\n"
     "[--telemetry-out FILE [--telemetry-interval SEC]]\n"
     "[--log[=FILE]] [--log-level LVL] [--trace-buffer N]", 0, cmd_serve},
    {"client", "",
     "send one request to a running daemon and print the typed\n"
     "response; exits 0 only on `ok` (other statuses go to stderr).\n"
     "--stats dumps counters and telemetry (--prometheus: text\n"
     "exposition); --trace drains the span buffer; --watch=SEC polls\n"
     "every SEC seconds, forever or --watch-count N times",
     "(--socket PATH | --port N)\n"
     "(--ping | --stats [--prometheus] | --health | --trace |\n"
     " --reload[=FILE] | --drain |\n"
     " --tasks M1,R2_1,... [--job NAME] [--deadline-ms D])\n"
     "[--watch=SEC [--watch-count N]]", 0, cmd_client},
};

/// Writes `text` line by line; lines after the first start with `indent`.
void print_lines(std::ostream& out, std::string_view text, std::size_t indent) {
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find('\n', start);
    out << text.substr(start, end - start) << "\n";
    if (end == std::string_view::npos) return;
    out << std::string(indent, ' ');
    start = end + 1;
  }
}

/// One command's block of `cwgl help`.
void print_command(std::ostream& out, const Command& c) {
  out << "  " << util::pad_right(c.name, 14);
  print_lines(out, c.summary, 16);
  if (!c.alias.empty()) {
    out << std::string(16, ' ') << "(alias: " << c.alias << ")\n";
  }
  out << std::string(18, ' ');
  print_lines(out, c.synopsis, 18);
}

void print_usage(std::ostream& out) {
  out << "cwgl — cloud workload graph learning (IPPS'21 reproduction)\n\n"
         "usage: cwgl <command> [options]\n\ncommands:\n";
  for (const Command& c : kCommands) print_command(out, c);
  out << "  help          this text\n\n"
         "Traces are directories holding batch_task.csv (and optionally\n"
         "batch_instance.csv) in the cluster-trace-v2018 column layout.\n";
}

/// Adds each flag `synopsis` names to `declared`, and to `value_less` unless
/// it is written with a value: `--key VALUE`, `--key=VALUE`, `--key[=VALUE]`.
void scan_flags(std::string_view synopsis, Args::FlagSet& declared,
                Args::FlagSet& value_less) {
  for (std::size_t at = synopsis.find("--"); at != std::string_view::npos;
       at = synopsis.find("--", at)) {
    const std::size_t end = std::min(
        synopsis.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2),
        synopsis.size());
    const std::string name(synopsis.substr(at + 2, end - at - 2));
    const std::string_view rest = synopsis.substr(end);
    declared.insert(name);
    const bool takes_value = rest.starts_with('=') || rest.starts_with("[=") ||
                             (rest.size() > 1 && rest[0] == ' ' &&
                              rest[1] >= 'A' && rest[1] <= 'Z');
    if (!takes_value) value_less.insert(name);
    at = end;
  }
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  const std::string_view name = argc < 2 ? "" : argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    print_usage(out);
    return 0;
  }
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (c.name == name || (!c.alias.empty() && c.alias == name)) command = &c;
  }
  if (command == nullptr) {
    if (argc >= 2) err << "unknown command: " << name << "\n\n";
    print_usage(err);
    return 2;
  }
  Args::FlagSet declared, value_less;
  scan_flags(command->synopsis, declared, value_less);
  const Args args = Args::parse(argc, argv, 2, value_less);
  std::string undeclared;
  for (const auto& [key, value] : args.values()) {
    if (!declared.count(key)) undeclared.append(" --").append(key);
  }
  for (std::size_t i = command->operands; i < args.positional_count(); ++i) {
    undeclared.append(" ").append(args.positional(i));
  }
  if (!undeclared.empty()) {
    err << "cwgl " << command->name << ": unknown option or operand:"
        << undeclared << "\n\n";
    print_command(err, *command);
    return 2;
  }
  try {
    return command->run(args, out, err);
  } catch (const UsageError& e) {
    err << "cwgl " << command->name << ": " << e.what() << "\n";
    return 2;
  } catch (const util::Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace cwgl::cli

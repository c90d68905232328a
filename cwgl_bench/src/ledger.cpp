// The traced run: every layer's public entry points called in-process, each
// call wrapped in a bench-side span with the global tracer armed. Stage
// times come from the recorded spans; the library's own pipeline spans give
// the split inside run_full.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stack>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "child.hpp"
#include "cluster/scale.hpp"
#include "core/pipeline.hpp"
#include "core/shape_store.hpp"
#include "loadgen.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/tracer.hpp"
#include "run.hpp"
#include "trace/io.hpp"

namespace cwgl::e2e {

namespace {

/// Total milliseconds per span name, plus the main thread's outermost spans.
struct SpanTimes {
  std::map<std::string, double> ms;
  double top_level_ms = 0.0;

  double at(const std::string& name) const {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
  }
};

SpanTimes span_times(const std::vector<obs::TraceEvent>& events) {
  SpanTimes t;
  if (events.empty()) return t;
  const int main_tid = events.front().tid;
  std::map<int, std::stack<std::uint64_t>> open;
  for (const obs::TraceEvent& e : events) {
    auto& stack = open[e.tid];
    if (e.phase == 'B') {
      stack.push(e.ts_us);
      continue;
    }
    if (stack.empty()) continue;
    const double ms = static_cast<double>(e.ts_us - stack.top()) / 1000.0;
    stack.pop();
    t.ms[e.name] += ms;
    if (e.tid == main_tid && stack.empty()) t.top_level_ms += ms;
  }
  return t;
}

/// Per-item latencies of `fn(i)` for i in [0, n), in microseconds.
template <typename Fn>
std::vector<double> timed_each(std::size_t n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::Stopwatch watch;
    fn(i);
    us.push_back(watch.seconds() * 1e6);
  }
  return us;
}

}  // namespace

void ledger_phase(const RunContext& ctx, double cli_fit_s, Results& out) {
  const core::PipelineConfig cfg;  // `cwgl fit --full` defaults
  const RequestStream& stream = ctx.requests;
  const std::filesystem::path snapshot_path = ctx.out / "ledger.cwgl";

  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.set_timing_enabled(true);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.start();
  obs::Stopwatch wall;

  // --- trace: read, instances, streaming scan ------------------------------
  trace::Trace data;
  {
    obs::Span span("trace.read_trace");
    data = trace::read_trace(ctx.trace_dir);
  }
  std::size_t instance_rows = 0;
  {
    obs::Span span("trace.read_instances");
    std::ifstream in(ctx.trace_dir / "batch_instance.csv");
    instance_rows = trace::read_batch_instance_csv(in).size();
  }
  trace::StreamStats scan;
  double scan_ms = 0.0;
  {
    obs::Span span("trace.scan");
    obs::Stopwatch watch;
    std::ifstream in(ctx.trace_dir / "batch_task.csv");
    scan = trace::consume_jobs_in_task_csv(
        in,
        [](std::string&&, std::vector<trace::TaskRecord>&&) { return true; });
    scan_ms = watch.millis();
  }

  // --- core: the fit pipeline, then a bench-side intern loop ---------------
  util::ThreadPool pool;
  core::FittedFeatures fitted;
  core::FullTraceResult result;
  {
    obs::Span span("core.run_full");
    result = core::CharacterizationPipeline(cfg).run_full(data, &pool, &fitted);
  }
  std::vector<double> intern_us;
  core::ShapeStore::Stats intern_stats;
  {
    obs::Span span("core.intern");
    const trace::TraceIndex index(data);
    core::ShapeStore store;
    std::uint64_t seq = 0;
    for (std::size_t g : trace::select_jobs(index, cfg.criteria)) {
      const trace::JobGroup& group = index.jobs()[g];
      std::vector<trace::TaskRecord> records;
      records.reserve(group.tasks.size());
      for (std::size_t i : group.tasks) records.push_back(data.tasks[i]);
      auto job = core::build_job_dag(group.job_name, records);
      if (!job) continue;
      obs::Stopwatch watch;
      store.intern(std::move(*job), seq++);
      intern_us.push_back(watch.seconds() * 1e6);
    }
    intern_stats = store.stats();
  }

  // --- cluster: the scalable backend alone, on the pipeline's features -----
  {
    obs::Span span("cluster.scale");
    std::vector<kernel::SparseVector> normalized = fitted.vectors;
    for (kernel::SparseVector& v : normalized) {
      const double norm = v.norm();
      if (norm > 0.0) {
        for (auto& item : v.items) item.second /= norm;
      }
    }
    cluster::ScaleOptions options;
    options.method = cfg.full_method;
    options.clusters = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(cfg.clustering.clusters), normalized.size()));
    options.seed = cfg.clustering.seed;
    cluster::cluster_at_scale(normalized, result.table.weights(),
                              fitted.dictionary.size(), options);
  }
  const std::size_t dict_size = fitted.dictionary.size();

  // --- model: build, save, load --------------------------------------------
  model::FittedModel snapshot;
  {
    obs::Span span("model.build");
    snapshot = model::build_model_full(result, std::move(fitted), cfg);
  }
  {
    obs::Span span("model.save");
    model::save_model(snapshot, snapshot_path);
  }
  std::optional<model::FittedModel> loaded;
  {
    obs::Span span("model.load");
    loaded.emplace(model::load_model(snapshot_path));
  }

  // --- serve: Classifier, the fit's self-check, the request stream ---------
  std::optional<serve::Classifier> classifier;
  {
    obs::Span span("serve.classifier_build");
    classifier.emplace(std::move(*loaded));
  }
  std::size_t self_agree = 0;
  {
    obs::Span span("serve.selfcheck");
    for (std::size_t i = 0; i < result.table.exemplars.size(); ++i) {
      if (classifier->classify(result.table.exemplars[i]).cluster ==
          result.shape_labels[i]) {
        ++self_agree;
      }
    }
  }
  std::size_t classify_wrong = 0;
  std::vector<double> classify_us;
  {
    obs::Span span("serve.classify");
    classify_us = timed_each(stream.dags.size(), [&](std::size_t k) {
      const serve::Prediction p = classifier->classify(stream.dags[k]);
      if (p.cluster != stream.expected[k].cluster ||
          p.nearest_job != stream.expected[k].nearest_job ||
          p.similarity != stream.expected[k].similarity) {
        ++classify_wrong;
      }
    });
  }
  std::vector<double> build_us;
  {
    obs::Span span("serve.build_dag");
    build_us = timed_each(stream.requests.size(), [&](std::size_t k) {
      (void)request_dag(stream.requests[k]);
    });
  }
  std::size_t codec_wrong = 0;
  std::vector<double> codec_us;
  {
    obs::Span span("serve.codec");
    codec_us = timed_each(stream.requests.size(), [&](std::size_t k) {
      const serve::Request req =
          serve::decode_request(serve::encode_request(stream.requests[k]));
      const serve::Prediction& p = stream.expected[k];
      serve::Response resp;
      resp.id = req.id;
      resp.cluster = std::string(1, p.cluster_letter);
      resp.cluster_id = p.cluster;
      resp.similarity = p.similarity;
      resp.nearest = p.nearest_job;
      resp.oov_hits = p.oov_hits;
      resp.predicted_critical_path = p.predicted_critical_path;
      resp.predicted_width = p.predicted_width;
      if (!matches(serve::decode_response(serve::encode_response(resp)), p)) {
        ++codec_wrong;
      }
    });
  }
  std::size_t seen = 0;
  {
    obs::Span span("serve.request_shapes");
    core::ShapeStore store;
    std::unordered_set<const core::ShapeStore::Node*> training;
    std::uint64_t seq = 0;
    for (const core::JobDag& job : result.table.exemplars) {
      training.insert(store.intern(job, seq++));
    }
    for (const core::JobDag& job : stream.dags) {
      if (training.contains(store.intern(job, seq++))) ++seen;
    }
  }
  const double ledger_ms = wall.millis();
  tracer.stop();
  registry.set_timing_enabled(false);
  const SpanTimes spans = span_times(tracer.events());

  // --- correctness ---------------------------------------------------------
  out.check(self_agree == result.table.exemplars.size(),
            "in-process self-check");
  out.check(read_file(snapshot_path) == read_file(ctx.model),
            "in-process snapshot equals the CLI snapshot byte for byte");
  out.count(stream.dags.size(), classify_wrong, "in-process classify");
  out.count(stream.requests.size(), codec_wrong, "codec round trip");

  // --- metrics -------------------------------------------------------------
  const double requests = static_cast<double>(stream.requests.size());
  std::size_t oov = 0;
  for (const serve::Prediction& p : stream.expected) oov += p.oov_hits > 0;

  out.add("trace.read_trace_ms", spans.at("trace.read_trace"), "ms");
  out.add("trace.read_instances_ms", spans.at("trace.read_instances"), "ms");
  out.add("trace.instance_rows", static_cast<double>(instance_rows), "count");
  out.add("trace.scan_rows_per_s",
          scan_ms > 0.0 ? static_cast<double>(scan.rows) * 1000.0 / scan_ms
                        : 0.0,
          "rows/s");
  out.add("core.run_full_ms", spans.at("core.run_full"), "ms");
  out.add("core.intern_ms", spans.at("pipeline.full_intern"), "ms");
  out.add("core.intern.distinct_ratio", intern_stats.distinct_ratio(), "ratio");
  out.add("core.intern.iso_probes",
          static_cast<double>(intern_stats.isomorphism_probes), "count");
  out.add("core.intern.hash_collisions",
          static_cast<double>(intern_stats.hash_collisions), "count");
  out.add("core.intern.job_p99_us", quantile(intern_us, 0.99), "us");
  out.add("core.intern.job_max_us",
          intern_us.empty()
              ? 0.0
              : *std::max_element(intern_us.begin(), intern_us.end()),
          "us");
  out.add("kernel.featurize_ms", spans.at("pipeline.full_featurize"), "ms");
  out.add("kernel.dict_size", static_cast<double>(dict_size), "count");
  out.add("cluster.scale_ms", spans.at("cluster.scale"), "ms");
  out.add("cluster.validate_ms", spans.at("pipeline.full_validate"), "ms");
  out.add("model.build_ms", spans.at("model.build"), "ms");
  out.add("model.save_ms", spans.at("model.save"), "ms");
  out.add("model.bytes",
          static_cast<double>(std::filesystem::file_size(snapshot_path)),
          "bytes");
  out.add("model.load_ms", spans.at("model.load"), "ms");
  out.add("serve.classifier_build_ms", spans.at("serve.classifier_build"),
          "ms");
  out.add("serve.selfcheck_ms", spans.at("serve.selfcheck"), "ms");
  out.add("serve.selfcheck.dots",
          static_cast<double>(result.table.exemplars.size()) *
              static_cast<double>(snapshot.training_jobs()),
          "count");
  out.add("serve.classify_p50_us", quantile(classify_us, 0.50), "us");
  out.add("serve.classify_p99_us", quantile(classify_us, 0.99), "us");
  out.add("serve.build_dag_us", quantile(build_us, 0.50), "us");
  out.add("serve.codec_us", quantile(codec_us, 0.50), "us");
  out.add("serve.request_shape_seen_fraction",
          requests > 0.0 ? static_cast<double>(seen) / requests : 0.0,
          "fraction");
  out.add("serve.oov_fraction",
          requests > 0.0 ? static_cast<double>(oov) / requests : 0.0,
          "fraction");

  // The CLI's fit runs exactly these stages. Their traced sum minus the
  // untraced CLI wall is what tracing adds, less what the CLI spends
  // outside them (exec, thread pool, JSON output).
  const double fit_path_ms =
      spans.at("trace.read_trace") + spans.at("core.run_full") +
      spans.at("model.build") + spans.at("model.save") +
      spans.at("model.load") + spans.at("serve.classifier_build") +
      spans.at("serve.selfcheck");
  out.add("obs.fit_trace_overhead_pct",
          cli_fit_s > 0.0
              ? 100.0 * (fit_path_ms / 1000.0 - cli_fit_s) / cli_fit_s
              : 0.0,
          "%");
  out.add("ledger.coverage",
          ledger_ms > 0.0 ? spans.top_level_ms / ledger_ms : 0.0, "ratio");
  out.add("ledger.wall_ms", ledger_ms, "ms");
}

}  // namespace cwgl::e2e

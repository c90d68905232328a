// cwgl_bench: end-to-end benchmark of the paths users wait on — `cwgl fit
// --full` on a trace, and classification against the fitted snapshot by
// `cwgl predict` and by a resident `cwgl serve` daemon — plus a separate
// traced run that splits the time by layer.
//
//   cwgl_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
//              [--out DIR] [--smoke]
//
// Prints one `workload metric value unit` line per metric, then one JSON
// line {"correct", "attempted", "failed", "metrics"} holding all of them.
// Writes DIR/BENCH_e2e_<workload>[_traced].json (cwgl-bench-v1). Exits 1
// when any correctness check failed, 2 on bad arguments.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench/common.hpp"
#include "child.hpp"
#include "run.hpp"
#include "serve/classifier.hpp"
#include "model/format.hpp"
#include "util/error.hpp"

namespace cwgl::e2e {

void Results::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Results::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Results::count(std::uint64_t attempted, std::uint64_t failed,
                    const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::cerr << "cwgl_bench: FAILED " << what << " (" << failed << " of "
              << attempted << ")\n";
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 3;
  double seconds = 40.0;
  bool traced = false;
  bool smoke = false;
  std::string out = "cwgl_bench_out";
};

/// Shortest text that reads back as the same double; non-finite values
/// (a window where every answer failed) print as a huge finite number so
/// the JSON stays valid.
std::string number(double v) {
  if (!std::isfinite(v)) v = 1e300;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.traced = value() == "1";
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      std::cerr << "cwgl_bench: unknown argument '" << arg << "'\n";
      return false;
    }
  }
  if (find_workload(o.workload) == nullptr) {
    std::cerr << "cwgl_bench: --workload must be one of:";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return false;
  }
  if (!(o.seconds > 0.0)) {
    std::cerr << "cwgl_bench: --seconds must be positive\n";
    return false;
  }
  return true;
}

int run(const Options& o) {
  Workload w = *find_workload(o.workload);
  if (o.smoke) {
    w.jobs = w.diverse ? 600 : 2000;
    w.rate = 200.0;
    if (w.reload_every_s > 0.0) w.reload_every_s = 0.25;
  }
  RunContext ctx;
  ctx.workload = &w;
  ctx.smoke = o.smoke;
  ctx.out = o.out;
  ctx.model = ctx.out / "model.cwgl";
  std::filesystem::create_directories(ctx.out);
  Results results;
  const HostCpu host0 = host_cpu();

  // Inputs: the training trace and a held-out trace at seed + 1, half as
  // large again so the daemon's stream need not repeat a job. Both are
  // cached on disk, where `cwgl fit` and `cwgl predict` read them; making
  // them is not part of any measured window.
  obs::Stopwatch prep;
  const std::string family = w.diverse ? "diverse" : "paper";
  ctx.trace_dir = prepare_trace(ctx.out / "traces", family + "-train",
                                generator_config(w, o.seed, w.jobs));
  trace::GeneratorConfig held_out =
      generator_config(w, o.seed + 1, w.jobs * 3 / 2);
  held_out.emit_instances = false;
  ctx.requests = make_requests(
      prepare_trace(ctx.out / "traces", family + "-heldout", held_out));
  const double prep_s = prep.seconds();

  const int min_runs = o.smoke ? 1 : 3;
  const double fit_s = fit_phase(ctx, o.traced ? 0.0 : 0.4 * o.seconds,
                                 o.traced ? 1 : min_runs, results);
  // Reference answers from the snapshot `cwgl predict` and the daemon
  // load, computed before anything is timed against them.
  predict(ctx.requests, serve::Classifier(model::load_model(ctx.model)));
  if (o.traced) {
    ledger_phase(ctx, fit_s, results);
    serve_layers(ctx, 0.25 * o.seconds, results);
  } else {
    predict_phase(ctx, 0.3 * o.seconds, min_runs, results);
    serve_phase(ctx, 0.3 * o.seconds, results);
  }
  results.add("bench.prep_s", prep_s, "s");
  results.add("host.steal_pct", steal_pct(host0, host_cpu()), "%");

  bench::Reporter reporter("e2e_" + std::string(w.name) +
                           (o.traced ? "_traced" : ""));
  std::string json = "{\"correct\": ";
  json += results.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(results.attempted());
  json += ", \"failed\": " + std::to_string(results.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Results::Metric& m : results.metrics()) {
    std::cout << w.name << " " << m.name << " " << number(m.value) << " "
              << m.unit << "\n";
    reporter.set(m.name, m.value, m.unit);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return results.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cwgl::e2e

int main(int argc, char** argv) {
  cwgl::e2e::Options options;
  if (!cwgl::e2e::parse(argc, argv, options)) return 2;
  // bench::Reporter writes next to the run's other outputs.
  ::setenv("CWGL_BENCH_OUT", options.out.c_str(), 1);
  try {
    return cwgl::e2e::run(options);
  } catch (const std::exception& e) {
    std::cerr << "cwgl_bench: " << e.what() << "\n";
    return 1;
  }
}

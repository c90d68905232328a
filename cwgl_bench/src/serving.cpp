// End-to-end phases: the real `cwgl` binary as a child process, measured
// from outside with tracing off.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "child.hpp"
#include "loadgen.hpp"
#include "model/format.hpp"
#include "run.hpp"
#include "util/json.hpp"

namespace cwgl::e2e {

namespace {

using namespace std::chrono_literals;

std::string cwgl_bin() { return CWGL_BIN; }

/// A `cwgl serve` child on DIR/s.sock with two classifier threads.
class Server {
 public:
  Server(const RunContext& ctx, std::vector<std::string> extra = {})
      : ep_{(ctx.out / "s.sock").string(), -1},
        child_(argv(ctx, std::move(extra)), ctx.out / "serve.out",
               ctx.out / "serve.err") {
    // Set-up is spawn to the first answered ping: exec, model load,
    // Classifier construction and bind.
    const auto limit = child_.started() + 20s;
    for (;;) {
      if (ping_ok()) break;
      if (Clock::now() > limit) throw util::Error("daemon never became ready");
      if (auto u = child_.wait_for(0ms)) {
        throw util::Error("daemon exited during start-up with code " +
                          std::to_string(u->exit_code));
      }
      std::this_thread::sleep_for(500us);
    }
    ready_s_ =
        std::chrono::duration<double>(Clock::now() - child_.started()).count();
  }

  double ready_s() const { return ready_s_; }
  pid_t pid() const { return child_.pid(); }
  const serve::Endpoint& endpoint() const { return ep_; }

  serve::Response call(serve::RequestType type) {
    serve::Client client(ep_);
    limit_receive_wait(client);
    serve::Request r;
    r.type = type;
    r.id = 1;
    return client.call(r);
  }

  /// Graceful drain; returns the daemon's exit code.
  int drain() {
    try {
      call(serve::RequestType::Drain);
    } catch (const std::exception&) {
      // The exit code below tells whether the daemon went down cleanly.
    }
    if (auto u = child_.wait_for(10s)) return u->exit_code;
    return -1;
  }

 private:
  static std::vector<std::string> argv(const RunContext& ctx,
                                       std::vector<std::string> extra) {
    std::filesystem::remove(ctx.out / "s.sock");
    std::vector<std::string> a = {cwgl_bin(), "serve", "--model",
                                  ctx.model.string(), "--socket",
                                  (ctx.out / "s.sock").string(), "--threads",
                                  "2"};
    a.insert(a.end(), extra.begin(), extra.end());
    return a;
  }

  bool ping_ok() {
    try {
      return call(serve::RequestType::Ping).status == serve::ResponseStatus::Ok;
    } catch (const std::exception&) {
      return false;
    }
  }

  serve::Endpoint ep_;
  Child child_;
  double ready_s_ = 0.0;
};

/// Answers every request of the stream must get, checked on arrival.
OpenLoop::Check checker(const RunContext& ctx) {
  const RequestStream* stream = &ctx.requests;
  return [stream](std::size_t k, const serve::Response& r) {
    return matches(r, stream->expected[k]);
  };
}

/// One open-loop window against `server`, cut into slices of at least a
/// second and 1000 requests. Each slice has its own latency quantiles and
/// daemon CPU per answer, and the window reports the median slice: a burst
/// of noise from other tenants of the host moves one slice, not the
/// result. Daemon CPU comes from its process CPU clock at slice boundaries.
/// Reloads, when the workload asks for them, go out on a second connection.
struct Window {
  LoadResult load;
  std::vector<double> p50_us, p99_us, cpu_us_per_req;  ///< one per slice
  std::vector<double> reload_ms;
  std::uint64_t reload_failures = 0;

  double p50() const { return median(p50_us); }
  double p99() const { return median(p99_us); }
  double cpu_per_request() const { return median(cpu_us_per_req); }
};

Window run_window(const RunContext& ctx, Server& server, double seconds,
                  double reload_every_s) {
  const double rate = ctx.workload->rate;
  Window w;
  OpenLoop load(server.endpoint(), ctx.requests.requests, rate,
                std::chrono::duration<double>(seconds), checker(ctx));
  const std::size_t total = load.size();
  const std::size_t per_slice = std::min(
      total, static_cast<std::size_t>(std::max(1000.0, std::ceil(rate))));
  const std::size_t slices = total / per_slice;
  const auto slice_start = [&](std::size_t k) {
    return k * per_slice;  // the last slice takes the remainder
  };

  std::optional<serve::Client> control;
  if (reload_every_s > 0.0) {
    control.emplace(server.endpoint());
    limit_receive_wait(*control);
  }
  serve::Request reload;
  reload.type = serve::RequestType::Reload;
  const auto every = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(reload_every_s));
  auto next_reload = load.due(0) + every;

  std::vector<double> cpu{cpu_seconds(server.pid())};
  for (std::size_t k = 1; k <= slices; ++k) {
    // Past the last slice boundary, reloads continue to the window's end.
    const auto boundary =
        k < slices ? load.due(slice_start(k)) : load.due(total - 1);
    while (control && next_reload < boundary) {
      std::this_thread::sleep_until(next_reload);
      ++reload.id;
      const auto t0 = Clock::now();
      const serve::Response resp = control->call(reload);
      w.reload_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (resp.status != serve::ResponseStatus::Ok) ++w.reload_failures;
      next_reload += every;
    }
    if (k < slices) {
      std::this_thread::sleep_until(boundary);
      cpu.push_back(cpu_seconds(server.pid()));
    }
  }
  w.load = load.finish();
  cpu.push_back(cpu_seconds(server.pid()));

  for (std::size_t k = 0; k < slices; ++k) {
    const auto first = w.load.latency_us.begin() +
                       static_cast<std::ptrdiff_t>(slice_start(k));
    const auto last = k + 1 == slices
                          ? w.load.latency_us.end()
                          : w.load.latency_us.begin() +
                                static_cast<std::ptrdiff_t>(slice_start(k + 1));
    const std::vector<double> slice(first, last);
    const auto answered = static_cast<double>(std::count_if(
        slice.begin(), slice.end(), [](double v) { return std::isfinite(v); }));
    w.p50_us.push_back(quantile(slice, 0.50));
    w.p99_us.push_back(quantile(slice, 0.99));
    w.cpu_us_per_req.push_back(
        answered > 0.0 ? (cpu[k + 1] - cpu[k]) * 1e6 / answered : 0.0);
  }
  return w;
}

void count_window(const Window& w, const std::string& what, Results& out) {
  out.count(w.load.latency_us.size(), w.load.failed, what + " requests");
  if (!w.load.error.empty()) {
    out.check(false, what + " socket: " + w.load.error);
  }
  out.count(w.reload_ms.size(), w.reload_failures, what + " reloads");
}

/// Unmeasured load before a window, so the daemon's caches and lazy state
/// are warm when timing starts.
void warm_up(const RunContext& ctx, Server& server, Results& out) {
  count_window(run_window(ctx, server, ctx.smoke ? 0.2 : 1.0, 0.0), "warm-up",
               out);
}

void add_lateness(const LoadResult& load, Results& out) {
  out.add("loadgen.late_p99_us", quantile(load.late_us, 0.99), "us");
  out.add("loadgen.late_max_us",
          *std::max_element(load.late_us.begin(), load.late_us.end()), "us");
}

/// Runs `cwgl <args>` with stdout to DIR/<name>.json at least `min_runs`
/// times and until `budget_s` has passed. `check(usage, doc)` returns
/// what is wrong with one run's output, or "" when it is right.
template <typename Check>
void repeat_cli(const RunContext& ctx, const std::string& name,
                std::vector<std::string> args, double budget_s, int min_runs,
                Results& out, Check&& check) {
  args.insert(args.begin(), cwgl_bin());
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int run = 0; run < min_runs || Clock::now() < until; ++run) {
    Child child(args, ctx.out / (name + ".json"), ctx.out / (name + ".err"));
    const Usage u = child.wait();
    std::string problem;
    try {
      problem = u.exit_code != 0
                    ? "exit code " + std::to_string(u.exit_code)
                    : check(u, util::parse_json(
                                   read_file(ctx.out / (name + ".json"))));
    } catch (const std::exception& e) {
      problem = e.what();
    }
    out.check(problem.empty(), name + ": " + problem);
  }
}

}  // namespace

double fit_phase(const RunContext& ctx, double budget_s, int min_runs,
                 Results& out) {
  std::vector<double> wall, cpu, rss, jobs_per_s;
  double ari = 0.0;
  // A fit counts when its self-check passes and its snapshot loads.
  repeat_cli(ctx, "fit",
             {"fit", "--full", "--trace", ctx.trace_dir.string(), "--out",
              ctx.model.string(), "--json"},
             budget_s, min_runs, out,
             [&](const Usage& u, const util::JsonValue& doc) -> std::string {
               if (!doc.at("self_check").at("ok").as_bool()) {
                 return "self-check";
               }
               model::load_model(ctx.model);
               ari = doc.at("agreement").at("ari").as_number();
               wall.push_back(u.wall_s);
               cpu.push_back(u.cpu_s);
               rss.push_back(u.peak_rss_mb);
               jobs_per_s.push_back(doc.at("training_jobs").as_number() /
                                    u.wall_s);
               return "";
             });
  out.add("fit.jobs_per_s", median(jobs_per_s), "jobs/s");
  out.add("fit.cpu_s", median(cpu), "s");
  out.add("fit.peak_rss_mb", median(rss), "MB");
  out.add("cluster.agreement_ari", ari, "ARI");
  out.add("fit.runs", static_cast<double>(wall.size()), "count");
  return median(wall);
}

void predict_phase(const RunContext& ctx, double budget_s, int min_runs,
                   Results& out) {
  const RequestStream& stream = ctx.requests;
  std::vector<double> jobs_per_s;
  // Every job must get the in-process answer.
  repeat_cli(ctx, "predict",
             {"predict", "--model", ctx.model.string(),
              stream.task_csv.string(), "--json"},
             budget_s, min_runs, out,
             [&](const Usage& u, const util::JsonValue& doc) -> std::string {
               const util::JsonValue::Array& jobs = doc.at("jobs").as_array();
               if (jobs.size() != stream.expected.size()) return "job count";
               for (std::size_t i = 0; i < jobs.size(); ++i) {
                 const serve::Prediction& p = stream.expected[i];
                 if (jobs[i].at("job").as_string() !=
                         stream.requests[i].job_name ||
                     jobs[i].at("cluster").as_string() !=
                         std::string(1, p.cluster_letter) ||
                     jobs[i].at("nearest").as_string() != p.nearest_job ||
                     std::abs(jobs[i].at("similarity").as_number() -
                              p.similarity) > 1e-9) {
                   return "wrong answer for " + stream.requests[i].job_name;
                 }
               }
               jobs_per_s.push_back(static_cast<double>(jobs.size()) /
                                    u.wall_s);
               return "";
             });
  out.add("predict.jobs_per_s", median(jobs_per_s), "jobs/s");
}

void serve_phase(const RunContext& ctx, double window_s, Results& out) {
  const int spawns = ctx.smoke ? 2 : 5;
  std::vector<double> setup;
  std::optional<Server> server;
  for (int i = 0; i < spawns; ++i) {
    if (server) out.check(server->drain() == 0, "daemon drain after set-up");
    server.emplace(ctx);
    setup.push_back(server->ready_s());
  }
  out.count(setup.size(), 0, "daemon set-ups");
  warm_up(ctx, *server, out);
  const Window w =
      run_window(ctx, *server, window_s, ctx.workload->reload_every_s);
  const double rss = proc_peak_rss_mb(server->pid());
  out.check(server->drain() == 0, "daemon drain");
  count_window(w, "serve", out);

  out.add("setup_s", median(setup), "s");
  out.add("serve.p50_us", w.p50(), "us");
  out.add("serve.p99_us", w.p99(), "us");
  out.add("serve.cpu_us_per_req", w.cpu_per_request(), "us");
  out.add("serve.rss_mb", rss, "MB");
  add_lateness(w.load, out);
}

void serve_layers(const RunContext& ctx, double window_s, Results& out) {
  // Telemetry off: wire round trip, daemon-side split, reload cost.
  Server plain(ctx);
  {
    serve::Client client(plain.endpoint());
    limit_receive_wait(client);
    serve::Request ping;
    ping.type = serve::RequestType::Ping;
    std::vector<double> rtt;
    for (int i = 0; i < 200; ++i) {
      ping.id = static_cast<std::uint64_t>(i + 1);
      const auto t0 = Clock::now();
      const serve::Response r = client.call(ping);
      rtt.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      out.check(r.status == serve::ResponseStatus::Ok, "ping");
    }
    out.add("serve.ping_rtt_p50_us", median(rtt), "us");
  }
  warm_up(ctx, plain, out);
  const serve::Response before = plain.call(serve::RequestType::Stats);
  const Window off =
      run_window(ctx, plain, window_s, ctx.workload->reload_every_s);
  const serve::Response after = plain.call(serve::RequestType::Stats);
  count_window(off, "serve (telemetry off)", out);
  add_lateness(off.load, out);
  // Daemon latency and CPU per request swing too much between runs on a
  // shared host to be gated, so BENCHMARK.json lists them with the traced
  // run's layer metrics.
  out.add("serve.p50_us", off.p50(), "us");
  out.add("serve.p99_us", off.p99(), "us");
  out.add("serve.cpu_us_per_req", off.cpu_per_request(), "us");

  const double batches = static_cast<double>(after.stats.at("batches") -
                                             before.stats.at("batches"));
  const double requests = static_cast<double>(after.stats.at("requests") -
                                              before.stats.at("requests"));
  out.add("serve.daemon.batch_size_mean",
          batches > 0.0 ? requests / batches : 0.0, "requests");
  const util::JsonValue histograms =
      util::parse_json(after.payload).at("metrics").at("histograms");
  const auto estimate = [&](const char* histogram, const char* q) {
    return histograms.at(histogram).at(q).as_number();
  };
  out.add("serve.daemon.queue_wait_p50_us",
          estimate("serve.daemon.queue_wait_us", "p50_est"), "us");
  out.add("serve.daemon.batch_wait_p50_us",
          estimate("serve.daemon.batch_wait_us", "p50_est"), "us");
  out.add("serve.daemon.compute_p50_us",
          estimate("serve.daemon.compute_us", "p50_est"), "us");
  out.add("serve.daemon.compute_p99_us",
          estimate("serve.daemon.compute_us", "p99_est"), "us");

  std::vector<double> reload_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const serve::Response r = plain.call(serve::RequestType::Reload);
    reload_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    out.check(r.status == serve::ResponseStatus::Ok, "reload");
  }
  out.add("serve.reload_ms", median(reload_ms), "ms");
  out.check(plain.drain() == 0, "daemon drain (telemetry off)");

  // Telemetry on, same rate: the extra daemon CPU per request is what the
  // metrics registry, span buffer and periodic exporter cost.
  Server traced(ctx, {"--metrics", "--trace-buffer", "65536", "--telemetry-out",
                      (ctx.out / "telemetry.prom").string(),
                      "--telemetry-interval", "0.5"});
  warm_up(ctx, traced, out);
  const Window on =
      run_window(ctx, traced, window_s, ctx.workload->reload_every_s);
  out.check(traced.drain() == 0, "daemon drain (telemetry on)");
  count_window(on, "serve (telemetry on)", out);
  const double base = off.cpu_per_request();
  out.add("obs.trace_overhead_pct",
          base > 0.0 ? 100.0 * (on.cpu_per_request() - base) / base : 0.0,
          "%");
}

}  // namespace cwgl::e2e

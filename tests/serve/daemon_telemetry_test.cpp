// Telemetry-plane contract of the resident daemon: `ping` carries version
// and model generation, `health`/`stats` answer rich JSON payloads that are
// never torn under concurrent traffic and reloads, the flight recorder
// attributes request latency to queue/batch/compute (compute split into
// classify and write), `trace` drains the global span buffer, and the
// queue-depth gauge is consistent across overload and drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "model/fit.hpp"
#include "model/format.hpp"
#include "obs/tracer.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "trace/generator.hpp"
#include "util/json.hpp"

namespace cwgl::serve {
namespace {

using namespace std::chrono_literals;

model::FittedModel fit_tiny() {
  trace::GeneratorConfig gcfg;
  gcfg.num_jobs = 120;
  gcfg.seed = 11;
  gcfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gcfg).generate();
  core::PipelineConfig cfg;
  cfg.sample_size = 30;
  cfg.clustering.clusters = 3;
  core::FittedFeatures fitted;
  const auto result =
      core::CharacterizationPipeline(cfg).run(data, nullptr, &fitted);
  return model::build_model(result, std::move(fitted), cfg);
}

const model::FittedModel& tiny_model() {
  static const model::FittedModel m = fit_tiny();
  return m;
}

std::shared_ptr<const Classifier> tiny_classifier() {
  return std::make_shared<const Classifier>(tiny_model());
}

DaemonConfig tcp_config() {
  DaemonConfig cfg;
  cfg.endpoint.tcp_port = 0;  // ephemeral
  cfg.worker_threads = 2;
  return cfg;
}

Endpoint client_endpoint(const Daemon& d) {
  Endpoint ep;
  ep.tcp_port = d.tcp_port();
  return ep;
}

Request classify_request(std::uint64_t id, double deadline_ms = 0.0) {
  Request r;
  r.type = RequestType::Classify;
  r.id = id;
  r.job_name = "j_test";
  r.tasks = {"M1", "M2_1", "R3_2", "J4_2"};
  r.deadline_ms = deadline_ms;
  return r;
}

Request control_request(RequestType type, std::uint64_t id) {
  Request r;
  r.type = type;
  r.id = id;
  return r;
}

util::JsonValue payload_of(const Response& r) {
  EXPECT_FALSE(r.payload.empty());
  return util::parse_json(r.payload);
}

TEST(DaemonTelemetry, PingReportsVersionAndGeneration) {
  Daemon daemon(tiny_classifier(), tcp_config());
  daemon.start();
  Client client(client_endpoint(daemon));

  const Response pong = client.call(control_request(RequestType::Ping, 1));
  ASSERT_EQ(pong.status, ResponseStatus::Ok);
  EXPECT_EQ(pong.version.rfind("cwgl ", 0), 0u) << pong.version;
  EXPECT_NE(pong.version.find("(cwgl-serve-v1)"), std::string::npos)
      << pong.version;
  EXPECT_EQ(pong.generation, 1u);

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
}

TEST(DaemonTelemetry, HealthReportsReadinessQueueAndReloadOutcome) {
  const auto path =
      std::filesystem::temp_directory_path() / "cwgl_telemetry_health.cwgl";
  model::save_model(tiny_model(), path);

  DaemonConfig cfg = tcp_config();
  cfg.model_path = path.string();
  cfg.max_inflight = 17;
  Daemon daemon(tiny_classifier(), cfg);
  daemon.start();
  Client client(client_endpoint(daemon));

  const Response before = client.call(control_request(RequestType::Health, 1));
  ASSERT_EQ(before.status, ResponseStatus::Ok);
  EXPECT_EQ(before.generation, 1u);
  const util::JsonValue h1 = payload_of(before);
  EXPECT_TRUE(h1.at("ready").as_bool());
  EXPECT_FALSE(h1.at("draining").as_bool());
  EXPECT_EQ(h1.at("generation").as_number(), 1.0);
  EXPECT_GE(h1.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(h1.at("queue").at("capacity").as_number(), 17.0);
  EXPECT_TRUE(h1.at("last_reload").is_null());

  // A successful reload bumps the generation and records the outcome.
  Request reload = control_request(RequestType::Reload, 2);
  const Response swapped = client.call(reload);
  ASSERT_EQ(swapped.status, ResponseStatus::Ok) << swapped.message;

  const Response after = client.call(control_request(RequestType::Health, 3));
  ASSERT_EQ(after.status, ResponseStatus::Ok);
  EXPECT_EQ(after.generation, 2u);
  const util::JsonValue h2 = payload_of(after);
  EXPECT_EQ(h2.at("generation").as_number(), 2.0);
  EXPECT_TRUE(h2.at("last_reload").at("ok").as_bool());
  EXPECT_EQ(h2.at("last_reload").at("path").as_string(), path.string());
  EXPECT_GE(h2.at("last_reload").at("at_uptime_s").as_number(), 0.0);

  // A rejected reload keeps the generation and records the error.
  const auto corrupt =
      std::filesystem::temp_directory_path() / "cwgl_telemetry_corrupt.cwgl";
  {
    std::ofstream f(corrupt, std::ios::binary | std::ios::trunc);
    f << "not a model";
  }
  Request bad = control_request(RequestType::Reload, 4);
  bad.model_path = corrupt.string();
  EXPECT_EQ(client.call(bad).status, ResponseStatus::Error);
  const Response rejected =
      client.call(control_request(RequestType::Health, 5));
  EXPECT_EQ(rejected.generation, 2u);
  const util::JsonValue h3 = payload_of(rejected);
  EXPECT_FALSE(h3.at("last_reload").at("ok").as_bool());
  EXPECT_FALSE(h3.at("last_reload").at("error").as_string().empty());

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
  std::filesystem::remove(path);
  std::filesystem::remove(corrupt);
}

TEST(DaemonTelemetry, StatsPayloadCarriesDaemonFlightAndMetrics) {
  Daemon daemon(tiny_classifier(), tcp_config());
  daemon.start();
  Client client(client_endpoint(daemon));

  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(client.call(classify_request(id)).status, ResponseStatus::Ok);
  }

  // A worker records a request's timing after writing its response, so the
  // fifth answer can reach the client an instant before the recorder counts
  // it; poll briefly until it does.
  Response s;
  for (std::uint64_t attempt = 0; attempt < 100; ++attempt) {
    s = client.call(control_request(RequestType::Stats, 99 + attempt));
    ASSERT_EQ(s.status, ResponseStatus::Ok);
    if (payload_of(s).at("flight").at("recorded").as_number() >= 5.0) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(s.generation, 1u);
  // Legacy flat map keeps working and gains the new keys.
  EXPECT_EQ(s.stats.at("served"), 5u);
  EXPECT_EQ(s.stats.at("generation"), 1u);
  EXPECT_EQ(s.stats.at("queue_depth"), 0u);

  const util::JsonValue doc = payload_of(s);
  const auto& daemon_obj = doc.at("daemon");
  EXPECT_EQ(daemon_obj.at("served").as_number(), 5.0);
  EXPECT_EQ(daemon_obj.at("requests").as_number(), 5.0);
  EXPECT_GE(daemon_obj.at("uptime_s").as_number(), 0.0);

  const auto& flight = doc.at("flight");
  EXPECT_GE(flight.at("recorded").as_number(), 5.0);
  EXPECT_TRUE(flight.at("slow").is_array());
  EXPECT_EQ(flight.at("slow_deadline_fraction").as_number(), 0.5);

  // The embedded global snapshot includes the daemon's instruments.
  const auto& metrics = doc.at("metrics");
  EXPECT_GE(metrics.at("counters").at("serve.daemon.requests").as_number(),
            5.0);
  ASSERT_NE(metrics.at("histograms").find("serve.daemon.queue_wait_us"),
            nullptr);
  ASSERT_NE(metrics.at("histograms").find("serve.daemon.compute_us"), nullptr);
  for (const char* split : {"serve.daemon.classify_us", "serve.daemon.write_us"}) {
    ASSERT_NE(metrics.at("histograms").find(split), nullptr) << split;
    EXPECT_GE(metrics.at("histograms").at(split).at("count").as_number(), 5.0);
  }
  const auto& compute = metrics.at("histograms").at("serve.daemon.compute_us");
  EXPECT_GE(compute.at("count").as_number(), 5.0);
  ASSERT_NE(compute.find("p50_est"), nullptr);

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
}

TEST(DaemonTelemetry, FlightRecorderAttributesLatencyToQueueBatchCompute) {
  DaemonConfig cfg = tcp_config();
  cfg.worker_threads = 1;
  cfg.max_batch = 1;
  cfg.service_delay = 15000us;        // compute dominates every request
  cfg.slow_deadline_fraction = 0.04;  // 12ms of the 300ms deadline: even the
                                      // head request (~15ms total) samples,
                                      // and sanitizer slowdown stays far
                                      // from actually expiring the deadline
  Daemon daemon(tiny_classifier(), cfg);
  daemon.start();
  Client client(client_endpoint(daemon));

  // Pipeline three requests so the later ones actually queue.
  constexpr std::uint64_t kCount = 3;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    client.send(classify_request(id, /*deadline_ms=*/300.0));
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const std::optional<Response> r = client.recv();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, ResponseStatus::Ok) << r->message;
  }

  const Response s = client.call(control_request(RequestType::Stats, 50));
  ASSERT_EQ(s.status, ResponseStatus::Ok);
  EXPECT_GE(s.stats.at("slow_sampled"), kCount);
  const util::JsonValue doc = payload_of(s);
  const auto& slow = doc.at("flight").at("slow").as_array();
  ASSERT_GE(slow.size(), static_cast<std::size_t>(kCount));

  std::vector<double> trace_ids;
  for (const auto& entry : slow) {
    EXPECT_EQ(entry.at("status").as_string(), "ok");
    EXPECT_EQ(entry.at("job").as_string(), "j_test");
    EXPECT_EQ(entry.at("deadline_ms").as_number(), 300.0);
    trace_ids.push_back(entry.at("trace_id").as_number());
    EXPECT_GT(entry.at("trace_id").as_number(), 0.0);

    // Latency attribution: the three phases partition the total (each
    // duration truncates to whole microseconds, so allow rounding slack).
    const double queue_wait = entry.at("queue_wait_us").as_number();
    const double batch_wait = entry.at("batch_wait_us").as_number();
    const double compute = entry.at("compute_us").as_number();
    const double total = entry.at("total_us").as_number();
    EXPECT_GE(compute, 14000.0) << "service_delay must land in compute";
    EXPECT_LE(std::abs(queue_wait + batch_wait + compute - total), 3.0);
    EXPECT_GE(total, compute);

    // compute splits at the socket hand-off: the delay sits before it, in
    // classify; the write is the remainder.
    const double classify = entry.at("classify_us").as_number();
    const double write = entry.at("write_us").as_number();
    EXPECT_GE(classify, 14000.0) << "service_delay must land in classify";
    EXPECT_LE(classify + write, compute + 1.0);
  }
  // Trace ids are unique across sampled requests.
  std::sort(trace_ids.begin(), trace_ids.end());
  EXPECT_EQ(std::adjacent_find(trace_ids.begin(), trace_ids.end()),
            trace_ids.end());

  // At least one queued-behind request observed nontrivial queue wait.
  const bool some_queue_wait =
      std::any_of(slow.begin(), slow.end(), [](const util::JsonValue& e) {
        return e.at("queue_wait_us").as_number() >= 1000.0;
      });
  EXPECT_TRUE(some_queue_wait);

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
}

TEST(DaemonTelemetry, TraceRequestDrainsSpanBuffer) {
  DaemonConfig cfg = tcp_config();
  cfg.trace_buffer = 4096;
  Daemon daemon(tiny_classifier(), cfg);
  daemon.start();
  Client client(client_endpoint(daemon));

  for (std::uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(client.call(classify_request(id)).status, ResponseStatus::Ok);
  }

  const Response first = client.call(control_request(RequestType::Trace, 7));
  ASSERT_EQ(first.status, ResponseStatus::Ok);
  const util::JsonValue t1 = payload_of(first);
  EXPECT_TRUE(t1.at("enabled").as_bool());
  const auto& events = t1.at("events").as_array();
  const bool saw_batch =
      std::any_of(events.begin(), events.end(), [](const util::JsonValue& e) {
        return e.at("name").as_string() == "serve.daemon.batch";
      });
  EXPECT_TRUE(saw_batch) << "batch spans must reach the trace buffer";

  // Draining removed the events; a second drain with no traffic in between
  // returns only whatever started after the first (usually nothing).
  const Response second = client.call(control_request(RequestType::Trace, 8));
  const util::JsonValue t2 = payload_of(second);
  EXPECT_LT(t2.at("events").as_array().size(), events.size());

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
  obs::Tracer::global().stop();  // do not leak an armed tracer to other tests
}

// Satellite: concurrent stats/health polling under classify traffic and
// reloads — every poll parses (no torn snapshots), counters are monotone,
// and the terminal identity served+shed+timeouts+rejected+errors == requests
// holds once traffic quiesces.
TEST(DaemonTelemetry, ConcurrentPollingUnderTrafficAndReloadStaysConsistent) {
  const auto path =
      std::filesystem::temp_directory_path() / "cwgl_telemetry_poll.cwgl";
  model::save_model(tiny_model(), path);

  DaemonConfig cfg = tcp_config();
  cfg.model_path = path.string();
  Daemon daemon(tiny_classifier(), cfg);
  daemon.start();
  const Endpoint ep = client_endpoint(daemon);

  std::atomic<bool> traffic_done{false};
  std::atomic<int> ok_count{0};

  constexpr int kClients = 2;
  constexpr int kPerClient = 40;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(ep);
      for (int i = 0; i < kPerClient; ++i) {
        const auto id = static_cast<std::uint64_t>(c * kPerClient + i + 1);
        const Response r = client.call(classify_request(id));
        EXPECT_EQ(r.status, ResponseStatus::Ok) << r.message;
        if (r.status == ResponseStatus::Ok) ok_count.fetch_add(1);
      }
    });
  }

  std::thread reloader([&] {
    Client client(ep);
    for (int i = 0; i < 3; ++i) {
      const Response r =
          client.call(control_request(RequestType::Reload, 9000 + i));
      EXPECT_EQ(r.status, ResponseStatus::Ok) << r.message;
      std::this_thread::sleep_for(5ms);
    }
  });

  std::vector<std::thread> pollers;
  for (int p = 0; p < 2; ++p) {
    pollers.emplace_back([&, p] {
      Client client(ep);
      std::uint64_t last_requests = 0;
      std::uint64_t last_served = 0;
      std::uint64_t last_generation = 0;
      std::uint64_t polls = 0;
      while (!traffic_done.load() || polls < 5) {
        ++polls;
        const Response s = client.call(
            control_request(RequestType::Stats, 100000 + polls * 2));
        ASSERT_EQ(s.status, ResponseStatus::Ok);
        const util::JsonValue stats_doc = payload_of(s);  // parses = untorn
        const auto& d = stats_doc.at("daemon");
        const auto requests =
            static_cast<std::uint64_t>(d.at("requests").as_number());
        const auto served =
            static_cast<std::uint64_t>(d.at("served").as_number());
        // Monotone counters, and outcomes never outrun admissions.
        EXPECT_GE(requests, last_requests);
        EXPECT_GE(served, last_served);
        last_requests = requests;
        last_served = served;
        const std::uint64_t outcomes =
            served + s.stats.at("shed") + s.stats.at("timeouts") +
            s.stats.at("rejected_draining") + s.stats.at("errors");
        EXPECT_LE(outcomes, requests);

        const Response h = client.call(
            control_request(RequestType::Health, 100001 + polls * 2));
        ASSERT_EQ(h.status, ResponseStatus::Ok);
        const util::JsonValue health_doc = payload_of(h);
        EXPECT_TRUE(health_doc.at("ready").as_bool());
        const auto generation =
            static_cast<std::uint64_t>(health_doc.at("generation").as_number());
        EXPECT_GE(generation, 1u);
        EXPECT_GE(generation, last_generation);
        last_generation = generation;
        std::this_thread::sleep_for(1ms);
      }
      (void)p;
    });
  }

  for (auto& t : clients) t.join();
  reloader.join();
  traffic_done.store(true);
  for (auto& t : pollers) t.join();

  // Quiesced: the identity is exact and the generation counted every swap.
  Client client(ep);
  const Response final_stats =
      client.call(control_request(RequestType::Stats, 999999));
  ASSERT_EQ(final_stats.status, ResponseStatus::Ok);
  const auto& m = final_stats.stats;
  EXPECT_EQ(m.at("requests"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.at("served") + m.at("shed") + m.at("timeouts") +
                m.at("rejected_draining") + m.at("errors"),
            m.at("requests"));
  EXPECT_EQ(m.at("served"), static_cast<std::uint64_t>(ok_count.load()));
  EXPECT_EQ(m.at("reloads"), 3u);
  EXPECT_EQ(final_stats.generation, 4u);  // 1 initial + 3 swaps

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
  std::filesystem::remove(path);
}

// Satellite: the queue-depth gauge returns to zero once an overload burst
// has been fully answered, and the high-water mark reflects the bounded
// admission window (never above capacity + the one in-flight pop).
TEST(DaemonTelemetry, QueueDepthGaugeConsistentAcrossOverloadAndDrain) {
  DaemonConfig cfg = tcp_config();
  cfg.worker_threads = 1;
  cfg.max_inflight = 2;
  cfg.max_batch = 1;
  cfg.admission_wait = 0ms;
  cfg.service_delay = 5000us;
  Daemon daemon(tiny_classifier(), cfg);
  daemon.start();
  Client client(client_endpoint(daemon));

  constexpr std::uint64_t kBurst = 40;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    client.send(classify_request(id));
  }
  std::size_t ok = 0, shed = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const std::optional<Response> r = client.recv();
    ASSERT_TRUE(r.has_value());
    if (r->status == ResponseStatus::Ok) ++ok;
    if (r->status == ResponseStatus::Overloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(shed, 1u);

  // Every request is answered, so the queue must be empty; the depth
  // counter can lag the final pop by an instant, so poll briefly.
  std::uint64_t depth = 1;
  std::uint64_t high_water = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const Response h =
        client.call(control_request(RequestType::Health, 5000 + attempt));
    ASSERT_EQ(h.status, ResponseStatus::Ok);
    const util::JsonValue doc = payload_of(h);
    depth = static_cast<std::uint64_t>(doc.at("queue").at("depth").as_number());
    high_water = static_cast<std::uint64_t>(
        doc.at("queue").at("high_water").as_number());
    if (depth == 0) break;
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(depth, 0u);
  EXPECT_GE(high_water, 1u);
  EXPECT_LE(high_water, 3u);  // max_inflight + the in-flight pop

  const Response s = client.call(control_request(RequestType::Stats, 7777));
  EXPECT_EQ(s.stats.at("queue_depth"), 0u);
  EXPECT_EQ(s.stats.at("queue_depth_peak"), high_water);

  daemon.request_drain();
  EXPECT_EQ(daemon.wait(), 0);
}

}  // namespace
}  // namespace cwgl::serve

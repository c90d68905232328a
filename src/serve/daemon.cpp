#include "serve/daemon.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "core/job_dag.hpp"
#include "model/format.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/tracer.hpp"
#include "trace/schema.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

#ifndef CWGL_VERSION
#define CWGL_VERSION "0.0.0"
#endif

namespace cwgl::serve {

namespace {

constexpr const char* kVersion = "cwgl " CWGL_VERSION " (cwgl-serve-v1)";

/// Global `serve.daemon.*` instruments, resolved once. Per-instance atomics
/// carry the same events for tests that run several daemons in one process.
struct GlobalMetrics {
  obs::Counter& connections;
  obs::Counter& requests;
  obs::Counter& served;
  obs::Counter& shed;
  obs::Counter& timeout;
  obs::Counter& errors;
  obs::Counter& rejected_draining;
  obs::Counter& batches;
  obs::Counter& reloads;
  obs::Counter& reload_failures;
  obs::Gauge& queue_depth;
  obs::Histogram& batch_size;
};

GlobalMetrics& gm() {
  auto& r = obs::MetricsRegistry::global();
  static GlobalMetrics m{r.counter("serve.daemon.connections"),
                         r.counter("serve.daemon.requests"),
                         r.counter("serve.daemon.served"),
                         r.counter("serve.daemon.shed"),
                         r.counter("serve.daemon.timeout"),
                         r.counter("serve.daemon.errors"),
                         r.counter("serve.daemon.rejected_draining"),
                         r.counter("serve.daemon.batches"),
                         r.counter("serve.daemon.reloads"),
                         r.counter("serve.daemon.reload_failures"),
                         r.gauge("serve.daemon.queue_depth"),
                         r.histogram("serve.daemon.batch_size")};
  return m;
}

// Signal plumbing: the handler may only touch async-signal-safe state, so it
// writes one byte into the installing daemon's signal pipe through a static
// fd slot (which also enforces "one installing daemon per process").
std::atomic<int> g_signal_fd{-1};
struct sigaction g_old_hup, g_old_int, g_old_term;  // NOLINT

void daemon_signal_handler(int sig) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const char byte = sig == SIGHUP ? 'H' : 'T';
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

}  // namespace

/// One accepted socket plus the lock that serializes response frames onto it
/// (the dispatcher's pool workers and the reader thread both write).
struct Daemon::Connection {
  std::uint64_t id = 0;
  Fd fd;
  std::mutex write_mutex;
  std::atomic<bool> dead{false};  ///< a write failed; stop responding
};

/// One admitted classify request waiting for the dispatcher. The three
/// timestamps are the flight recorder's raw material: admission (set by
/// handle_classify), dispatch (set when the dispatcher pulls the batch),
/// compute start (taken inside serve_one).
struct Daemon::Pending {
  std::shared_ptr<Connection> conn;
  Request req;
  std::chrono::steady_clock::time_point deadline{};
  std::uint64_t trace_id = 0;
  double deadline_ms = 0.0;  ///< effective deadline the request ran under
  std::chrono::steady_clock::time_point admitted_at{};
  std::chrono::steady_clock::time_point dispatched_at{};
};

std::map<std::string, std::uint64_t> DaemonStats::as_map() const {
  return {
      {"connections", connections},
      {"requests", requests},
      {"served", served},
      {"shed", shed},
      {"timeouts", timeouts},
      {"errors", errors},
      {"rejected_draining", rejected_draining},
      {"batches", batches},
      {"reloads", reloads},
      {"reload_failures", reload_failures},
      {"queue_depth_peak", static_cast<std::uint64_t>(queue_depth_peak)},
      {"queue_depth", static_cast<std::uint64_t>(
                          queue_depth < 0 ? 0 : queue_depth)},
      {"generation", generation},
      {"telemetry_exports", telemetry_exports},
      {"slow_sampled", slow_sampled},
  };
}

Daemon::Daemon(std::shared_ptr<const Classifier> classifier,
               DaemonConfig config)
    : config_(std::move(config)),
      classifier_(std::move(classifier)),
      queue_(config_.max_inflight),
      pool_(config_.worker_threads),
      recorder_({config_.slow_ring_capacity, config_.slow_deadline_fraction}),
      log_(config_.logger != nullptr ? config_.logger
                                     : &obs::Logger::global()) {
  if (classifier_ == nullptr) {
    throw ProtocolError("daemon: initial classifier must not be null");
  }
  if (!config_.endpoint.valid()) {
    throw ProtocolError("daemon: endpoint not configured (need a unix socket "
                        "path or a tcp port)");
  }
}

Daemon::~Daemon() {
  if (started_.load() && !stopped_.load()) {
    request_drain();
    wait();
  }
  if (signal_handlers_installed_) {
    ::sigaction(SIGHUP, &g_old_hup, nullptr);
    ::sigaction(SIGINT, &g_old_int, nullptr);
    ::sigaction(SIGTERM, &g_old_term, nullptr);
    g_signal_fd.store(-1, std::memory_order_relaxed);
  }
}

void Daemon::start() {
  if (started_.exchange(true)) throw ProtocolError("daemon: already started");
  int fds[2];
  if (::pipe(fds) != 0) {
    throw ProtocolError(std::string("daemon: pipe: ") + std::strerror(errno));
  }
  control_pipe_read_.reset(fds[0]);
  control_pipe_write_.reset(fds[1]);
  if (::pipe(fds) != 0) {
    throw ProtocolError(std::string("daemon: pipe: ") + std::strerror(errno));
  }
  signal_pipe_read_.reset(fds[0]);
  signal_pipe_write_.reset(fds[1]);

  listen_fd_ = listen_on(config_.endpoint);
  tcp_port_ = config_.endpoint.socket_path.empty()
                  ? local_tcp_port(listen_fd_.get())
                  : -1;
  start_time_ = std::chrono::steady_clock::now();
  if (config_.trace_buffer > 0) {
    obs::Tracer::global().start(config_.trace_buffer);
  }
  log_->info("daemon_started",
             {{"version", kVersion},
              {"endpoint", config_.endpoint.socket_path.empty()
                               ? "tcp:" + std::to_string(tcp_port_)
                               : config_.endpoint.socket_path},
              {"workers", pool_.size()},
              {"max_inflight", config_.max_inflight}});

  accept_thread_ = std::thread(&Daemon::accept_loop, this);
  control_thread_ = std::thread(&Daemon::control_loop, this);
  dispatch_thread_ = std::thread(&Daemon::dispatch_loop, this);
}

void Daemon::install_signal_handlers() {
  if (!started_.load()) {
    throw ProtocolError("daemon: start() before install_signal_handlers()");
  }
  int expected = -1;
  if (!g_signal_fd.compare_exchange_strong(expected, signal_pipe_write_.get(),
                                           std::memory_order_relaxed)) {
    throw ProtocolError(
        "daemon: another daemon already owns this process's signal handlers");
  }
  struct sigaction sa {};
  sa.sa_handler = &daemon_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGHUP, &sa, &g_old_hup);
  ::sigaction(SIGINT, &sa, &g_old_int);
  ::sigaction(SIGTERM, &sa, &g_old_term);
  signal_handlers_installed_ = true;
}

void Daemon::wake_control(char event) noexcept {
  const int fd = control_pipe_write_.get();
  if (fd < 0) return;
  [[maybe_unused]] const ssize_t n = ::write(fd, &event, 1);
}

void Daemon::request_reload() noexcept { wake_control('H'); }

void Daemon::request_drain() noexcept { wake_control('T'); }

std::shared_ptr<const Classifier> Daemon::snapshot() const {
  std::lock_guard lock(snapshot_mutex_);
  return classifier_;
}

bool Daemon::reload_now(const std::string& path, std::string* error) {
  std::lock_guard guard(reload_mutex_);
  return do_reload(path, error);
}

bool Daemon::do_reload(const std::string& path, std::string* error) {
  obs::Span span("serve.daemon.reload");
  try {
    CWGL_FAILPOINT("serve.reload");
    if (path.empty()) {
      throw ProtocolError("reload: no model path configured");
    }
    // Build the replacement entirely off to the side: load + validate +
    // rehydrate the frozen dictionary. Only a fully-constructed classifier
    // ever reaches the snapshot pointer, so a corrupt or torn file can
    // never take down in-flight traffic.
    auto next = std::make_shared<const Classifier>(model::load_model(path));
    {
      std::lock_guard lock(snapshot_mutex_);
      classifier_ = std::move(next);
    }
    reloads_.fetch_add(1, std::memory_order_relaxed);
    gm().reloads.add();
    const std::uint64_t gen =
        generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    {
      std::lock_guard lock(last_reload_mutex_);
      last_reload_any_ = true;
      last_reload_ok_ = true;
      last_reload_message_ = path;
      last_reload_at_s_ = uptime_seconds();
    }
    log_->info("model_reloaded", {{"path", path}, {"generation", gen}});
    return true;
  } catch (const std::exception& e) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    gm().reload_failures.add();
    {
      std::lock_guard lock(last_reload_mutex_);
      last_reload_any_ = true;
      last_reload_ok_ = false;
      last_reload_message_ = e.what();
      last_reload_at_s_ = uptime_seconds();
    }
    log_->error("model_reload_failed", {{"path", path}, {"error", e.what()}});
    if (error != nullptr) *error = e.what();
    return false;
  }
}

void Daemon::control_loop() {
  // With the periodic exporter configured, the control poll doubles as its
  // timer: a timeout means "nothing to control, time to export".
  const bool exporting = !config_.telemetry_path.empty() &&
                         config_.telemetry_interval.count() > 0;
  const int poll_timeout =
      exporting ? static_cast<int>(config_.telemetry_interval.count()) : -1;
  for (;;) {
    struct pollfd fds[2] = {{control_pipe_read_.get(), POLLIN, 0},
                            {signal_pipe_read_.get(), POLLIN, 0}};
    const int ready = ::poll(fds, 2, poll_timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      begin_drain();  // pipes gone: fail toward shutdown, never a hang
      return;
    }
    if (ready == 0) {
      export_telemetry();
      continue;
    }
    bool drain = false;
    bool reload = false;
    for (const auto& p : fds) {
      if ((p.revents & (POLLIN | POLLHUP)) == 0) continue;
      char buf[64];
      const ssize_t n = ::read(p.fd, buf, sizeof buf);
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] == 'T') drain = true;
        if (buf[i] == 'H') reload = true;
      }
    }
    if (reload && !drain) {
      // Async (SIGHUP) reload: retry with exponential backoff; the current
      // model keeps serving across every failed attempt.
      std::lock_guard guard(reload_mutex_);
      std::string err;
      auto backoff = config_.reload_backoff;
      for (int attempt = 0; attempt <= config_.reload_retries; ++attempt) {
        if (attempt > 0) {
          std::this_thread::sleep_for(backoff);
          backoff *= 2;
        }
        if (do_reload(config_.model_path, &err)) break;
        if (draining_.load(std::memory_order_relaxed)) break;
      }
    }
    if (drain) {
      begin_drain();
      return;
    }
  }
}

void Daemon::begin_drain() {
  if (draining_.exchange(true)) return;
  log_->info("drain_started",
             {{"inflight", queue_depth_.load(std::memory_order_relaxed)}});
  const auto deadline = std::chrono::steady_clock::now() + config_.drain_timeout;
  drain_deadline_ns_.store(deadline.time_since_epoch().count(),
                           std::memory_order_relaxed);
  // Closing the queue flips every admission attempt to Closed (typed
  // shutting_down responses) and lets the dispatcher drain what was already
  // admitted — nothing accepted is ever silently dropped.
  queue_.close();
}

void Daemon::accept_loop() {
  for (;;) {
    reap_finished();
    if (draining_.load(std::memory_order_relaxed)) return;
    struct pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    Fd client(raw);
    set_nodelay(client.get());
    try {
      CWGL_FAILPOINT("serve.accept");
    } catch (const std::exception&) {
      continue;  // injected accept fault: the connection is dropped whole
    }
    if (draining_.load(std::memory_order_relaxed)) return;
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(client);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    gm().connections.add();
    std::lock_guard lock(connections_mutex_);
    conn->id = next_connection_id_++;
    if (log_->enabled(obs::LogLevel::Debug)) {
      log_->debug("connection_accepted", {{"conn", conn->id}});
    }
    connections_.emplace(conn->id, conn);
    conn_threads_.emplace(conn->id,
                          std::thread(&Daemon::serve_connection, this, conn));
  }
}

void Daemon::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard lock(connections_mutex_);
    for (const auto id : finished_) {
      auto it = conn_threads_.find(id);
      if (it != conn_threads_.end()) {
        done.push_back(std::move(it->second));
        conn_threads_.erase(it);
      }
    }
    finished_.clear();
  }
  for (auto& t : done) t.join();
}

void Daemon::serve_connection(std::shared_ptr<Connection> conn) {
  std::string payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(conn->fd.get(), payload);
    } catch (const std::exception&) {
      break;  // mid-frame EOF or socket error: nothing sane left to read
    }
    if (!got) break;  // clean EOF: the peer finished
    Request req;
    try {
      req = decode_request(payload);
    } catch (const std::exception& e) {
      // Frame boundaries are intact (the length prefix framed this payload),
      // so a malformed request poisons only itself.
      Response r;
      r.status = ResponseStatus::Error;
      r.message = std::string("bad request: ") + e.what();
      errors_.fetch_add(1, std::memory_order_relaxed);
      gm().errors.add();
      respond(conn, r);
      continue;
    }
    if (req.type == RequestType::Classify) {
      handle_classify(conn, std::move(req));
    } else {
      handle_control(conn, req);
    }
  }
  std::lock_guard lock(connections_mutex_);
  connections_.erase(conn->id);
  finished_.push_back(conn->id);
}

void Daemon::handle_classify(const std::shared_ptr<Connection>& conn,
                             Request req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  gm().requests.add();
  const std::uint64_t id = req.id;

  Pending p;
  p.conn = conn;
  const double deadline_ms =
      req.deadline_ms > 0
          ? req.deadline_ms
          : std::chrono::duration<double, std::milli>(config_.default_deadline)
                .count();
  p.admitted_at = std::chrono::steady_clock::now();
  p.deadline = p.admitted_at +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(deadline_ms));
  p.deadline_ms = deadline_ms;
  p.trace_id = recorder_.next_trace_id();
  p.req = std::move(req);

  switch (queue_.try_push_for(std::move(p), config_.admission_wait)) {
    case util::QueueResult::Ok: {
      const auto depth =
          queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
      std::int64_t seen = queue_depth_peak_.load(std::memory_order_relaxed);
      while (depth > seen && !queue_depth_peak_.compare_exchange_weak(
                                 seen, depth, std::memory_order_relaxed)) {
      }
      gm().queue_depth.add(1);
      break;
    }
    case util::QueueResult::TimedOut: {
      shed_.fetch_add(1, std::memory_order_relaxed);
      gm().shed.add();
      if (log_->enabled(obs::LogLevel::Warn)) {
        log_->warn("request_shed",
                   {{"id", id},
                    {"queue_depth",
                     queue_depth_.load(std::memory_order_relaxed)}});
      }
      Response r;
      r.id = id;
      r.status = ResponseStatus::Overloaded;
      r.message = "admission queue stayed full; request shed";
      respond(conn, r);
      break;
    }
    case util::QueueResult::Closed: {
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      gm().rejected_draining.add();
      if (log_->enabled(obs::LogLevel::Warn)) {
        log_->warn("request_rejected_draining", {{"id", id}});
      }
      Response r;
      r.id = id;
      r.status = ResponseStatus::ShuttingDown;
      r.message = "daemon is draining; no new work admitted";
      respond(conn, r);
      break;
    }
  }
}

void Daemon::handle_control(const std::shared_ptr<Connection>& conn,
                            const Request& req) {
  Response r;
  r.id = req.id;
  switch (req.type) {
    case RequestType::Ping:
      r.status = ResponseStatus::Ok;
      r.message = "pong";
      r.version = kVersion;
      r.generation = generation_.load(std::memory_order_relaxed);
      break;
    case RequestType::Stats:
      r.status = ResponseStatus::Ok;
      r.stats = stats().as_map();
      r.generation = generation_.load(std::memory_order_relaxed);
      r.payload = stats_payload();
      break;
    case RequestType::Health:
      r.status = ResponseStatus::Ok;
      r.generation = generation_.load(std::memory_order_relaxed);
      r.payload = health_payload();
      break;
    case RequestType::Trace: {
      r.status = ResponseStatus::Ok;
      auto& tracer = obs::Tracer::global();
      const std::vector<obs::TraceEvent> events = tracer.drain();
      std::ostringstream payload;
      payload << "{\"enabled\":" << (tracer.enabled() ? "true" : "false")
              << ",\"dropped\":" << tracer.dropped() << ",\"events\":";
      obs::write_trace_events_json(payload, events);
      payload << "}";
      r.payload = payload.str();
      break;
    }
    case RequestType::Reload: {
      if (draining_.load(std::memory_order_relaxed)) {
        r.status = ResponseStatus::ShuttingDown;
        r.message = "daemon is draining";
        break;
      }
      const std::string path =
          req.model_path.empty() ? config_.model_path : req.model_path;
      std::string err;
      if (reload_now(path, &err)) {
        r.status = ResponseStatus::Ok;
        r.message = "reloaded from " + path;
      } else {
        r.status = ResponseStatus::Error;
        r.message = "reload rejected, previous model still serving: " + err;
      }
      break;
    }
    case RequestType::Drain:
      r.status = ResponseStatus::Ok;
      r.message = "draining";
      respond(conn, r);
      request_drain();
      return;
    case RequestType::Classify:  // routed elsewhere; keep the switch total
      r.status = ResponseStatus::Error;
      r.message = "internal: classify routed to control path";
      break;
  }
  respond(conn, r);
}

void Daemon::dispatch_loop() {
  std::vector<Pending> batch;
  for (;;) {
    Pending first;
    switch (queue_.try_pop_for(config_.batch_linger, first)) {
      case util::QueueResult::Closed:
        return;  // drained: every admitted request has been answered
      case util::QueueResult::TimedOut:
        continue;
      case util::QueueResult::Ok:
        break;
    }
    batch.push_back(std::move(first));
    // Take whatever is ALREADY queued up to max_batch — a zero-timeout pop
    // never waits, so batching adds no artificial latency.
    Pending more;
    while (batch.size() < config_.max_batch &&
           queue_.try_pop_for(std::chrono::seconds(0), more) ==
               util::QueueResult::Ok) {
      batch.push_back(std::move(more));
    }
    // One clock read stamps the whole batch: queue_wait ends here for every
    // member, and whatever elapses before its serve_one runs is batch_wait.
    const auto dispatched = std::chrono::steady_clock::now();
    for (Pending& p : batch) p.dispatched_at = dispatched;
    queue_depth_.fetch_sub(static_cast<std::int64_t>(batch.size()),
                           std::memory_order_relaxed);
    gm().queue_depth.add(-static_cast<std::int64_t>(batch.size()));
    process_batch(batch);
    // Drop the batch's Connection refs NOW, not when the next batch arrives:
    // a dispatcher parked on an idle queue must not pin client connections —
    // the fd close after a client's half-close is what tells a pipelined
    // reader that every response has been written.
    batch.clear();
  }
}

void Daemon::process_batch(std::vector<Pending>& batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  gm().batches.add();
  gm().batch_size.record(batch.size());
  obs::Span span("serve.daemon.batch");
  span.arg("size", batch.size());
  try {
    CWGL_FAILPOINT("serve.batch");
  } catch (const std::exception& e) {
    // Injected dispatch fault: every request in the batch is still answered
    // (typed error), upholding the no-silent-drop contract.
    for (const auto& p : batch) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      gm().errors.add();
      Response r;
      r.id = p.req.id;
      r.status = ResponseStatus::Error;
      r.message = std::string("batch dispatch failed: ") + e.what();
      respond(p.conn, r);
    }
    return;
  }

  // RCU read side: one snapshot grab per batch. A concurrent reload swaps
  // the pointer for FUTURE batches; this batch classifies against a model
  // that cannot be mutated or freed under it.
  const std::shared_ptr<const Classifier> model = snapshot();
  const std::int64_t drain_ns =
      drain_deadline_ns_.load(std::memory_order_relaxed);

  const auto serve_one = [&](std::size_t i) {
    Pending& p = batch[i];
    Response r;
    r.id = p.req.id;
    const auto now = std::chrono::steady_clock::now();
    const auto compute_start = now;
    // Stamps the classify/write boundary, writes the reply, then records
    // the request's timing.
    const auto respond_and_record = [&] {
      const auto write_start = std::chrono::steady_clock::now();
      respond(p.conn, r);
      const auto done = std::chrono::steady_clock::now();
      const auto us = [](std::chrono::steady_clock::duration d) {
        const auto n =
            std::chrono::duration_cast<std::chrono::microseconds>(d).count();
        return n < 0 ? std::uint64_t{0} : static_cast<std::uint64_t>(n);
      };
      RequestTiming t;
      t.trace_id = p.trace_id;
      t.job_name = p.req.job_name;
      t.status = std::string(to_string(r.status));
      t.queue_wait_us = us(p.dispatched_at - p.admitted_at);
      t.batch_wait_us = us(compute_start - p.dispatched_at);
      t.compute_us = us(done - compute_start);
      t.classify_us = us(write_start - compute_start);
      t.write_us = us(done - write_start);
      t.total_us = us(done - p.admitted_at);
      t.deadline_ms = p.deadline_ms;
      recorder_.record(t);
    };
    const bool past_drain = drain_ns != 0 &&
                            now.time_since_epoch().count() >= drain_ns;
    if (now >= p.deadline || past_drain) {
      r.status = ResponseStatus::Timeout;
      r.message = past_drain ? "drain deadline exceeded"
                             : "deadline expired before service";
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      gm().timeout.add();
      if (log_->enabled(obs::LogLevel::Warn)) {
        log_->warn("request_timeout",
                   {{"id", p.req.id},
                    {"trace_id", p.trace_id},
                    {"deadline_ms", p.deadline_ms},
                    {"past_drain", past_drain}});
      }
      respond_and_record();
      return;
    }
    if (config_.service_delay.count() > 0) {
      std::this_thread::sleep_for(config_.service_delay);
    }
    try {
      std::vector<trace::TaskRecord> rows;
      rows.reserve(p.req.tasks.size());
      for (const auto& name : p.req.tasks) {
        trace::TaskRecord rec;
        rec.task_name = name;
        rec.job_name = p.req.job_name;
        rec.instance_num = 1;
        rows.push_back(std::move(rec));
      }
      std::vector<core::BuildIssue> issues;
      const auto dag = core::build_job_dag(p.req.job_name, rows, &issues);
      if (!dag) {
        r.status = ResponseStatus::Error;
        r.message = issues.empty() ? "job is not a well-formed dependency DAG"
                                   : issues.front().message;
        errors_.fetch_add(1, std::memory_order_relaxed);
        gm().errors.add();
      } else {
        const Prediction pred = model->classify(*dag);
        r.status = ResponseStatus::Ok;
        r.cluster = std::string(1, pred.cluster_letter);
        r.cluster_id = pred.cluster;
        r.similarity = pred.similarity;
        r.nearest = pred.nearest_job;
        r.oov_hits = pred.oov_hits;
        r.predicted_critical_path = pred.predicted_critical_path;
        r.predicted_width = pred.predicted_width;
        served_.fetch_add(1, std::memory_order_relaxed);
        gm().served.add();
      }
    } catch (const std::exception& e) {
      r.status = ResponseStatus::Error;
      r.message = e.what();
      errors_.fetch_add(1, std::memory_order_relaxed);
      gm().errors.add();
    }
    respond_and_record();
  };

  if (batch.size() == 1 || pool_.size() == 1) {
    for (std::size_t i = 0; i < batch.size(); ++i) serve_one(i);
  } else {
    util::parallel_for(pool_, 0, batch.size(), serve_one);
  }
}

void Daemon::respond(const std::shared_ptr<Connection>& conn,
                     const Response& r) {
  if (conn == nullptr || conn->dead.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(conn->write_mutex);
  if (conn->dead.load(std::memory_order_relaxed)) return;
  try {
    write_frame(conn->fd.get(), encode_response(r));
  } catch (const std::exception&) {
    // The peer vanished mid-conversation; remaining responses for this
    // connection have no reader, so stop attempting them.
    conn->dead.store(true, std::memory_order_relaxed);
  }
}

int Daemon::wait() {
  if (!started_.load()) return 0;
  if (stopped_.exchange(true)) return 0;
  // Blocks here until a drain is requested: the control thread only returns
  // after begin_drain() has closed the queue.
  if (control_thread_.joinable()) control_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The dispatcher finishes (or deadline-times-out) everything admitted
  // before the close, answering each request, then sees Closed and exits.
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  // Every response is out. Half-close the READ side only — readers unblock
  // with EOF, while any response bytes still in socket buffers keep flowing
  // to clients that are draining them.
  std::vector<std::shared_ptr<Connection>> live;
  {
    std::lock_guard lock(connections_mutex_);
    live.reserve(connections_.size());
    for (const auto& [id, c] : connections_) live.push_back(c);
  }
  for (const auto& c : live) ::shutdown(c->fd.get(), SHUT_RD);
  std::map<std::uint64_t, std::thread> readers;
  {
    std::lock_guard lock(connections_mutex_);
    readers.swap(conn_threads_);
    finished_.clear();
  }
  for (auto& [id, t] : readers) {
    if (t.joinable()) t.join();
  }
  listen_fd_.reset();
  if (!config_.endpoint.socket_path.empty()) {
    std::error_code ignored;
    std::filesystem::remove(config_.endpoint.socket_path, ignored);
  }
  // One last export so the scrape file reflects the final counters.
  export_telemetry();
  log_->info("drain_finished",
             {{"served", served_.load(std::memory_order_relaxed)},
              {"timeouts", timeouts_.load(std::memory_order_relaxed)},
              {"shed", shed_.load(std::memory_order_relaxed)}});
  return 0;
}

void Daemon::export_telemetry() {
  if (config_.telemetry_path.empty()) return;
  const std::string tmp = config_.telemetry_path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) throw ProtocolError("cannot open " + tmp);
      obs::write_prometheus(out, obs::MetricsRegistry::global().snapshot());
      out.flush();
      if (!out) throw ProtocolError("write failed: " + tmp);
    }
    // Atomic publish, like save_model: scrapers never see a torn file.
    std::filesystem::rename(tmp, config_.telemetry_path);
    telemetry_exports_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    log_->error("telemetry_export_failed",
                {{"path", config_.telemetry_path}, {"error", e.what()}});
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
  }
}

double Daemon::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

std::string Daemon::stats_payload() const {
  std::ostringstream out;
  util::JsonWriter j(out);
  j.begin_object();
  j.key("daemon");
  j.begin_object();
  for (const auto& [name, value] : stats().as_map()) {
    j.field(name, static_cast<unsigned long long>(value));
  }
  j.field("uptime_s", uptime_seconds());
  j.field("model_path", config_.model_path);
  j.end_object();
  j.key("flight");
  j.begin_object();
  j.field("recorded", static_cast<unsigned long long>(recorder_.recorded()));
  j.field("slow_sampled",
          static_cast<unsigned long long>(recorder_.slow_sampled()));
  j.field("slow_deadline_fraction", config_.slow_deadline_fraction);
  j.key("slow");
  {
    std::ostringstream slow;
    FlightRecorder::write_slow_json(slow, recorder_.slow_requests());
    j.raw(slow.str());
  }
  j.end_object();
  j.key("metrics");
  {
    std::ostringstream metrics;
    obs::MetricsRegistry::global().snapshot().write_json(metrics);
    j.raw(metrics.str());
  }
  j.end_object();
  return out.str();
}

std::string Daemon::health_payload() const {
  const bool draining = draining_.load(std::memory_order_relaxed);
  std::ostringstream out;
  util::JsonWriter j(out);
  j.begin_object();
  j.field("ready", !draining);
  j.field("draining", draining);
  j.field("version", kVersion);
  j.field("generation", static_cast<unsigned long long>(
                            generation_.load(std::memory_order_relaxed)));
  j.field("uptime_s", uptime_seconds());
  j.field("inflight", static_cast<long long>(
                          queue_depth_.load(std::memory_order_relaxed)));
  j.key("queue");
  j.begin_object();
  j.field("depth", static_cast<long long>(
                       queue_depth_.load(std::memory_order_relaxed)));
  j.field("capacity", static_cast<unsigned long long>(config_.max_inflight));
  j.field("high_water", static_cast<long long>(
                            queue_depth_peak_.load(std::memory_order_relaxed)));
  j.end_object();
  j.key("last_reload");
  {
    std::lock_guard lock(last_reload_mutex_);
    if (!last_reload_any_) {
      j.null();
    } else {
      j.begin_object();
      j.field("ok", last_reload_ok_);
      j.field(last_reload_ok_ ? "path" : "error", last_reload_message_);
      j.field("at_uptime_s", last_reload_at_s_);
      j.end_object();
    }
  }
  j.end_object();
  return out.str();
}

DaemonStats Daemon::stats() const {
  DaemonStats s;
  s.connections = connections_total_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.generation = generation_.load(std::memory_order_relaxed);
  s.telemetry_exports = telemetry_exports_.load(std::memory_order_relaxed);
  s.slow_sampled = recorder_.slow_sampled();
  return s;
}

}  // namespace cwgl::serve

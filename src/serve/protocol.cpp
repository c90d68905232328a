#include "serve/protocol.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/json.hpp"

namespace cwgl::serve {

namespace {

std::string errno_text(const char* op) {
  std::ostringstream s;
  s << op << ": " << std::strerror(errno);
  return s.str();
}

RequestType request_type_from(std::string_view text) {
  if (text == "classify") return RequestType::Classify;
  if (text == "ping") return RequestType::Ping;
  if (text == "stats") return RequestType::Stats;
  if (text == "health") return RequestType::Health;
  if (text == "trace") return RequestType::Trace;
  if (text == "reload") return RequestType::Reload;
  if (text == "drain") return RequestType::Drain;
  throw ProtocolError("unknown request type '" + std::string(text) + "'");
}

ResponseStatus response_status_from(std::string_view text) {
  if (text == "ok") return ResponseStatus::Ok;
  if (text == "overloaded") return ResponseStatus::Overloaded;
  if (text == "timeout") return ResponseStatus::Timeout;
  if (text == "shutting_down") return ResponseStatus::ShuttingDown;
  if (text == "error") return ResponseStatus::Error;
  throw ProtocolError("unknown response status '" + std::string(text) + "'");
}

/// Numbers ride as JSON numbers (doubles); ids and counters are exact up to
/// 2^53, far beyond any per-connection request id this daemon will see.
std::uint64_t as_u64(const util::JsonValue& v, const char* what) {
  if (!v.is_number() || v.as_number() < 0) {
    throw ProtocolError(std::string(what) + " must be a non-negative number");
  }
  return static_cast<std::uint64_t>(v.as_number());
}

}  // namespace

std::string_view to_string(RequestType t) noexcept {
  switch (t) {
    case RequestType::Classify: return "classify";
    case RequestType::Ping: return "ping";
    case RequestType::Stats: return "stats";
    case RequestType::Health: return "health";
    case RequestType::Trace: return "trace";
    case RequestType::Reload: return "reload";
    case RequestType::Drain: return "drain";
  }
  return "ping";
}

std::string_view to_string(ResponseStatus s) noexcept {
  switch (s) {
    case ResponseStatus::Ok: return "ok";
    case ResponseStatus::Overloaded: return "overloaded";
    case ResponseStatus::Timeout: return "timeout";
    case ResponseStatus::ShuttingDown: return "shutting_down";
    case ResponseStatus::Error: return "error";
  }
  return "error";
}

std::string encode_request(const Request& r) {
  std::string out;
  util::JsonWriter j(out);
  j.begin_object();
  j.field("type", to_string(r.type));
  j.field("id", static_cast<unsigned long long>(r.id));
  if (r.type == RequestType::Classify) {
    j.field("job", r.job_name);
    j.key("tasks");
    j.begin_array();
    for (const std::string& t : r.tasks) j.value(t);
    j.end_array();
    if (r.deadline_ms > 0.0) j.field("deadline_ms", r.deadline_ms);
  }
  if (r.type == RequestType::Reload && !r.model_path.empty()) {
    j.field("model", r.model_path);
  }
  j.end_object();
  return out;
}

Request decode_request(std::string_view json) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(json);
  } catch (const util::Error& e) {
    throw ProtocolError(std::string("request is not valid JSON: ") + e.what());
  }
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");
  const util::JsonValue* type = doc.find("type");
  if (type == nullptr || !type->is_string()) {
    throw ProtocolError("request needs a string 'type'");
  }
  Request r;
  r.type = request_type_from(type->as_string());
  if (const util::JsonValue* id = doc.find("id")) r.id = as_u64(*id, "'id'");
  if (r.type == RequestType::Classify) {
    const util::JsonValue* tasks = doc.find("tasks");
    if (tasks == nullptr || !tasks->is_array() || tasks->as_array().empty()) {
      throw ProtocolError("classify request needs a non-empty 'tasks' array");
    }
    r.tasks.reserve(tasks->as_array().size());
    for (const util::JsonValue& t : tasks->as_array()) {
      if (!t.is_string()) {
        throw ProtocolError("'tasks' entries must be strings");
      }
      r.tasks.push_back(t.as_string());
    }
    if (const util::JsonValue* job = doc.find("job")) {
      if (!job->is_string()) throw ProtocolError("'job' must be a string");
      r.job_name = job->as_string();
    }
    if (const util::JsonValue* d = doc.find("deadline_ms")) {
      if (!d->is_number() || d->as_number() < 0) {
        throw ProtocolError("'deadline_ms' must be a non-negative number");
      }
      r.deadline_ms = d->as_number();
    }
  }
  if (r.type == RequestType::Reload) {
    if (const util::JsonValue* m = doc.find("model")) {
      if (!m->is_string()) throw ProtocolError("'model' must be a string");
      r.model_path = m->as_string();
    }
  }
  return r;
}

std::string encode_response(const Response& r) {
  std::string out;
  util::JsonWriter j(out);
  j.begin_object();
  j.field("id", static_cast<unsigned long long>(r.id));
  j.field("status", to_string(r.status));
  if (!r.message.empty()) j.field("message", r.message);
  if (!r.cluster.empty()) {
    j.field("cluster", r.cluster);
    j.field("cluster_id", r.cluster_id);
    j.field("similarity", r.similarity);
    j.field("nearest", r.nearest);
    j.field("oov_hits", static_cast<unsigned long long>(r.oov_hits));
    j.key("predicted");
    j.begin_object();
    j.field("critical_path", r.predicted_critical_path);
    j.field("width", r.predicted_width);
    j.end_object();
  }
  if (!r.stats.empty()) {
    j.key("stats");
    j.begin_object();
    for (const auto& [name, value] : r.stats) {
      j.field(name, static_cast<unsigned long long>(value));
    }
    j.end_object();
  }
  if (!r.version.empty()) j.field("version", r.version);
  if (r.generation > 0) {
    j.field("generation", static_cast<unsigned long long>(r.generation));
  }
  if (!r.payload.empty()) {
    j.key("payload");
    j.raw(r.payload);  // daemon-built JSON document, embedded verbatim
  }
  j.end_object();
  return out;
}

Response decode_response(std::string_view json) {
  util::JsonValue doc;
  try {
    doc = util::parse_json(json);
  } catch (const util::Error& e) {
    throw ProtocolError(std::string("response is not valid JSON: ") + e.what());
  }
  if (!doc.is_object()) throw ProtocolError("response must be a JSON object");
  const util::JsonValue* status = doc.find("status");
  if (status == nullptr || !status->is_string()) {
    throw ProtocolError("response needs a string 'status'");
  }
  Response r;
  r.status = response_status_from(status->as_string());
  if (const util::JsonValue* id = doc.find("id")) r.id = as_u64(*id, "'id'");
  if (const util::JsonValue* m = doc.find("message")) {
    if (!m->is_string()) throw ProtocolError("'message' must be a string");
    r.message = m->as_string();
  }
  if (const util::JsonValue* c = doc.find("cluster")) {
    if (!c->is_string()) throw ProtocolError("'cluster' must be a string");
    r.cluster = c->as_string();
    if (const util::JsonValue* v = doc.find("cluster_id")) {
      r.cluster_id = static_cast<int>(as_u64(*v, "'cluster_id'"));
    }
    if (const util::JsonValue* v = doc.find("similarity")) {
      if (!v->is_number()) throw ProtocolError("'similarity' must be a number");
      r.similarity = v->as_number();
    }
    if (const util::JsonValue* v = doc.find("nearest")) {
      if (!v->is_string()) throw ProtocolError("'nearest' must be a string");
      r.nearest = v->as_string();
    }
    if (const util::JsonValue* v = doc.find("oov_hits")) {
      r.oov_hits = as_u64(*v, "'oov_hits'");
    }
    if (const util::JsonValue* p = doc.find("predicted")) {
      if (!p->is_object()) throw ProtocolError("'predicted' must be an object");
      if (const util::JsonValue* v = p->find("critical_path")) {
        r.predicted_critical_path = v->as_number();
      }
      if (const util::JsonValue* v = p->find("width")) {
        r.predicted_width = v->as_number();
      }
    }
  }
  if (const util::JsonValue* s = doc.find("stats")) {
    if (!s->is_object()) throw ProtocolError("'stats' must be an object");
    for (const auto& [name, value] : s->as_object()) {
      r.stats[name] = as_u64(value, "stats value");
    }
  }
  if (const util::JsonValue* v = doc.find("version")) {
    if (!v->is_string()) throw ProtocolError("'version' must be a string");
    r.version = v->as_string();
  }
  if (const util::JsonValue* g = doc.find("generation")) {
    r.generation = as_u64(*g, "'generation'");
  }
  if (const util::JsonValue* p = doc.find("payload")) {
    // Re-serialize the already-parsed subtree; the decoded form matches what
    // a fresh parse of r.payload would give, which is all callers rely on.
    r.payload = util::to_json_string(*p);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Sockets.
// ---------------------------------------------------------------------------

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) reset(other.release());
  return *this;
}

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd listen_on(const Endpoint& ep, int backlog) {
  if (!ep.valid()) {
    throw ProtocolError("endpoint needs a unix socket path or a tcp port");
  }
  if (!ep.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.socket_path.size() >= sizeof(addr.sun_path)) {
      throw ProtocolError("unix socket path too long: " + ep.socket_path);
    }
    std::memcpy(addr.sun_path, ep.socket_path.c_str(),
                ep.socket_path.size() + 1);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) throw ProtocolError(errno_text("socket(AF_UNIX)"));
    // A stale socket file from a crashed daemon would make bind fail with
    // EADDRINUSE forever; remove it first (connectors to the old file would
    // have gotten ECONNREFUSED anyway).
    ::unlink(ep.socket_path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw ProtocolError("bind '" + ep.socket_path +
                          "': " + std::strerror(errno));
    }
    if (::listen(fd.get(), backlog) != 0) {
      throw ProtocolError(errno_text("listen"));
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.tcp_port));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw ProtocolError(errno_text("socket(AF_INET)"));
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw ProtocolError("bind port " + std::to_string(ep.tcp_port) + ": " +
                        std::strerror(errno));
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw ProtocolError(errno_text("listen"));
  }
  return fd;
}

void set_nodelay(int fd) noexcept {
  const int one = 1;
  // Fails harmlessly (EOPNOTSUPP) on AF_UNIX sockets; the option only
  // matters for TCP, where Nagle would batch small frames.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int local_tcp_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw ProtocolError(errno_text("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Fd connect_to(const Endpoint& ep) {
  if (!ep.valid()) {
    throw ProtocolError("endpoint needs a unix socket path or a tcp port");
  }
  if (!ep.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.socket_path.size() >= sizeof(addr.sun_path)) {
      throw ProtocolError("unix socket path too long: " + ep.socket_path);
    }
    std::memcpy(addr.sun_path, ep.socket_path.c_str(),
                ep.socket_path.size() + 1);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) throw ProtocolError(errno_text("socket(AF_UNIX)"));
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw ProtocolError("connect '" + ep.socket_path +
                          "': " + std::strerror(errno));
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(ep.tcp_port));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw ProtocolError(errno_text("socket(AF_INET)"));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw ProtocolError("connect port " + std::to_string(ep.tcp_port) + ": " +
                        std::strerror(errno));
  }
  set_nodelay(fd.get());
  return fd;
}

namespace {

/// send() with MSG_NOSIGNAL so a vanished peer surfaces as EPIPE -> throw,
/// never SIGPIPE (a daemon must not die because one client hung up).
void write_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(errno_text("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Returns false only on EOF with zero bytes read; throws on mid-buffer EOF.
bool read_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(errno_text("recv"));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload too large: " +
                        std::to_string(payload.size()) + " bytes");
  }
  char prefix[4];
  const auto size = static_cast<std::uint32_t>(payload.size());
  prefix[0] = static_cast<char>(size & 0xFFu);
  prefix[1] = static_cast<char>((size >> 8) & 0xFFu);
  prefix[2] = static_cast<char>((size >> 16) & 0xFFu);
  prefix[3] = static_cast<char>((size >> 24) & 0xFFu);
  // One send per frame, not prefix-then-payload: two small writes before a
  // read is exactly the pattern where Nagle + delayed ACK park the payload
  // behind a ~40ms timer on TCP endpoints.
  std::string frame;
  frame.reserve(sizeof(prefix) + payload.size());
  frame.append(prefix, sizeof(prefix));
  frame.append(payload);
  write_all(fd, frame.data(), frame.size());
}

bool read_frame(int fd, std::string& payload) {
  char prefix[4];
  if (!read_all(fd, prefix, sizeof(prefix))) return false;
  const std::uint32_t size =
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0])) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1])) << 8 |
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2])) << 16 |
      static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3])) << 24;
  if (size > kMaxFrameBytes) {
    throw ProtocolError("frame length " + std::to_string(size) +
                        " exceeds the " + std::to_string(kMaxFrameBytes) +
                        "-byte cap");
  }
  payload.resize(size);
  if (size > 0 && !read_all(fd, payload.data(), size)) {
    throw ProtocolError("connection closed mid-frame");
  }
  return true;
}

std::optional<Response> Client::recv() {
  if (!read_frame(fd_.get(), buffer_)) return std::nullopt;
  return decode_response(buffer_);
}

Response Client::call(const Request& r) {
  send(r);
  while (true) {
    std::optional<Response> resp = recv();
    if (!resp.has_value()) {
      throw ProtocolError("connection closed before a response to id " +
                          std::to_string(r.id));
    }
    if (resp->id == r.id) return std::move(*resp);
  }
}

void Client::shutdown_write() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
}

}  // namespace cwgl::serve

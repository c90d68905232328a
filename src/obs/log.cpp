#include "obs/log.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <ostream>

#include "obs/json_escape.hpp"

namespace cwgl::obs {

namespace {

/// RFC 3339 UTC timestamp with millisecond resolution.
void write_timestamp(std::ostream& out) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm utc{};
  gmtime_r(&secs, &utc);
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(ms));
  out << buffer;
}

void write_field_value_json(std::ostream& out, const LogField& f) {
  switch (f.kind) {
    case LogField::Kind::String:
      write_json_string(out, f.text);
      break;
    case LogField::Kind::Unsigned:
      out << f.unsigned_value;
      break;
    case LogField::Kind::Signed:
      out << f.signed_value;
      break;
    case LogField::Kind::Double:
      write_double_g12(out, f.double_value);
      break;
    case LogField::Kind::Bool:
      out << (f.bool_value ? "true" : "false");
      break;
  }
}

void write_field_value_text(std::ostream& out, const LogField& f) {
  switch (f.kind) {
    case LogField::Kind::String:
      out << f.text;
      break;
    case LogField::Kind::Unsigned:
      out << f.unsigned_value;
      break;
    case LogField::Kind::Signed:
      out << f.signed_value;
      break;
    case LogField::Kind::Double:
      write_double_g12(out, f.double_value);
      break;
    case LogField::Kind::Bool:
      out << (f.bool_value ? "true" : "false");
      break;
  }
}

}  // namespace

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "info";
}

bool parse_log_level(std::string_view text, LogLevel& out) noexcept {
  if (text == "debug") { out = LogLevel::Debug; return true; }
  if (text == "info") { out = LogLevel::Info; return true; }
  if (text == "warn") { out = LogLevel::Warn; return true; }
  if (text == "error") { out = LogLevel::Error; return true; }
  if (text == "off") { out = LogLevel::Off; return true; }
  return false;
}

void Logger::configure(std::ostream* sink, Options options) {
  std::lock_guard lock(mutex_);
  owned_sink_.reset();
  sink_ = sink;
  options_ = options;
  tokens_ = options.burst;
  pending_suppressed_ = 0;
  last_refill_ = std::chrono::steady_clock::now();
  level_.store(sink == nullptr ? static_cast<int>(LogLevel::Off)
                               : static_cast<int>(options.level),
               std::memory_order_relaxed);
}

bool Logger::open(const std::string& path, Options options,
                  std::string* error) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::app);
  if (!*file) {
    if (error != nullptr) *error = "cannot open log file: " + path;
    return false;
  }
  std::lock_guard lock(mutex_);
  owned_sink_ = std::move(file);
  sink_ = owned_sink_.get();
  options_ = options;
  tokens_ = options.burst;
  pending_suppressed_ = 0;
  last_refill_ = std::chrono::steady_clock::now();
  level_.store(static_cast<int>(options.level), std::memory_order_relaxed);
  return true;
}

void Logger::log(LogLevel level, std::string_view event,
                 std::initializer_list<LogField> fields) {
  if (!enabled(level)) return;
  std::lock_guard lock(mutex_);
  if (sink_ == nullptr) return;
  if (options_.rate_per_s > 0.0) {
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - last_refill_).count();
    last_refill_ = now;
    tokens_ = std::min(options_.burst,
                       tokens_ + elapsed * options_.rate_per_s);
    if (tokens_ < 1.0) {
      ++pending_suppressed_;
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    tokens_ -= 1.0;
  }
  const std::uint64_t held_back = pending_suppressed_;
  pending_suppressed_ = 0;
  write_record(level, event, fields, held_back);
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

void Logger::write_record(LogLevel level, std::string_view event,
                          std::initializer_list<LogField> fields,
                          std::uint64_t suppressed_since_last) {
  std::ostream& out = *sink_;
  if (options_.json) {
    out << "{\"ts\":\"";
    write_timestamp(out);
    out << "\",\"level\":\"" << to_string(level) << "\",\"event\":";
    write_json_string(out, event);
    for (const auto& f : fields) {
      out << ",";
      write_json_string(out, f.key);
      out << ":";
      write_field_value_json(out, f);
    }
    if (suppressed_since_last > 0) {
      out << ",\"suppressed\":" << suppressed_since_last;
    }
    out << "}\n";
  } else {
    write_timestamp(out);
    const char* tag = "INFO";
    switch (level) {
      case LogLevel::Debug: tag = "DEBUG"; break;
      case LogLevel::Info: tag = "INFO"; break;
      case LogLevel::Warn: tag = "WARN"; break;
      case LogLevel::Error: tag = "ERROR"; break;
      case LogLevel::Off: break;
    }
    out << " " << tag << " " << event;
    for (const auto& f : fields) {
      out << " " << f.key << "=";
      write_field_value_text(out, f);
    }
    if (suppressed_since_last > 0) {
      out << " suppressed=" << suppressed_since_last;
    }
    out << "\n";
  }
  out.flush();
}

Logger& Logger::global() {
  static Logger* const instance = new Logger();
  return *instance;
}

}  // namespace cwgl::obs

#pragma once

// Test oracle for util::JsonWriter: the writer as it stood when it wrote
// straight to a std::ostream, one `operator<<` per character of a string,
// doubles through snprintf("%.12g") and integers through the stream's
// num_put. The code is kept verbatim apart from being inline here.
// tests/util/json_differential_test.cpp holds the library writer to it byte
// for byte through both of its constructors, and
// tests/support/predict_oracle.hpp renders `cwgl predict` through it.

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace cwgl::oracle {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object() {
    before_value();
    stack_.push_back(Frame::Object);
    first_.push_back(true);
    out_ << '{';
  }

  void end_object() {
    if (stack_.empty() || (stack_.back() != Frame::Object)) {
      throw util::InvalidArgument("JsonWriter: end_object without open object");
    }
    stack_.pop_back();
    first_.pop_back();
    out_ << '}';
  }

  void begin_array() {
    before_value();
    stack_.push_back(Frame::Array);
    first_.push_back(true);
    out_ << '[';
  }

  void end_array() {
    if (stack_.empty() || stack_.back() != Frame::Array) {
      throw util::InvalidArgument("JsonWriter: end_array without open array");
    }
    stack_.pop_back();
    first_.pop_back();
    out_ << ']';
  }

  void key(std::string_view name) {
    if (stack_.empty() || stack_.back() != Frame::Object) {
      throw util::InvalidArgument("JsonWriter: key() outside object");
    }
    if (!first_.back()) out_ << ',';
    first_.back() = false;
    write_escaped(name);
    out_ << ':';
    stack_.back() = Frame::ObjectAwaitingValue;
  }

  void value(std::string_view text) {
    before_value();
    write_escaped(text);
  }
  void value(const char* text) { value(std::string_view(text)); }

  void value(double number) {
    before_value();
    if (!std::isfinite(number)) {
      out_ << "null";
      return;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.12g", number);
    out_ << buffer;
  }

  void value(long long number) {
    before_value();
    out_ << number;
  }

  void value(unsigned long long number) {
    before_value();
    out_ << number;
  }

  void value(int number) { value(static_cast<long long>(number)); }
  void value(std::size_t number) {
    value(static_cast<unsigned long long>(number));
  }

  void value(bool flag) {
    before_value();
    out_ << (flag ? "true" : "false");
  }

  void null() {
    before_value();
    out_ << "null";
  }

  void raw(std::string_view json) {
    before_value();
    out_ << json;
  }

  template <typename T>
  void field(std::string_view name, T&& v) {
    key(name);
    value(std::forward<T>(v));
  }

  bool complete() const noexcept { return stack_.empty() && root_written_; }

 private:
  enum class Frame { Object, ObjectAwaitingValue, Array };

  void before_value() {
    if (stack_.empty()) {
      if (root_written_) {
        throw util::InvalidArgument("JsonWriter: multiple root values");
      }
      root_written_ = true;
      return;
    }
    Frame& top = stack_.back();
    if (top == Frame::Object) {
      throw util::InvalidArgument(
          "JsonWriter: value inside object requires key()");
    }
    if (top == Frame::ObjectAwaitingValue) {
      top = Frame::Object;
      return;  // comma already handled by key()
    }
    // Array element.
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }

  void write_escaped(std::string_view text) {
    out_ << '"';
    for (char c : text) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\r': out_ << "\\r"; break;
        case '\t': out_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out_ << buffer;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;  ///< per open container: no element yet
  bool root_written_ = false;
};

}  // namespace cwgl::oracle

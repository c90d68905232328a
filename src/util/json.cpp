#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "util/error.hpp"

namespace cwgl::util {

JsonWriter::~JsonWriter() {
  if (stream_ == nullptr) return;
  try {
    flush();
  } catch (...) {
    // A stream that throws on failure set its badbit before throwing, so
    // the caller still sees the failed write in the stream's state.
  }
}

void JsonWriter::flush() {
  if (buffer_.empty()) return;
  stream_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

JsonWriter::Frame& JsonWriter::top() noexcept {
  return depth_ <= kInlineDepth ? inline_frames_[depth_ - 1]
                                : deep_frames_[depth_ - 1 - kInlineDepth];
}

void JsonWriter::push(Frame frame) {
  if (depth_ < kInlineDepth) {
    inline_frames_[depth_] = frame;
  } else {
    deep_frames_.push_back(frame);
  }
  ++depth_;
  first_ = true;
}

void JsonWriter::pop() noexcept {
  --depth_;
  if (depth_ >= kInlineDepth) deep_frames_.pop_back();
  first_ = false;
}

void JsonWriter::before_value() {
  if (depth_ == 0) {
    if (root_written_) {
      throw InvalidArgument("JsonWriter: multiple root values");
    }
    root_written_ = true;
    return;
  }
  Frame& frame = top();
  if (frame == Frame::Object) {
    throw InvalidArgument("JsonWriter: value inside object requires key()");
  }
  if (frame == Frame::ObjectAwaitingValue) {
    frame = Frame::Object;
    return;  // comma already handled by key()
  }
  // Array element.
  if (!first_) out_->push_back(',');
  first_ = false;
}

void JsonWriter::begin_object() {
  before_value();
  push(Frame::Object);
  out_->push_back('{');
}

void JsonWriter::end_object() {
  if (depth_ == 0 || top() != Frame::Object) {
    throw InvalidArgument("JsonWriter: end_object without open object");
  }
  pop();
  out_->push_back('}');
  after_token();
}

void JsonWriter::begin_array() {
  before_value();
  push(Frame::Array);
  out_->push_back('[');
}

void JsonWriter::end_array() {
  if (depth_ == 0 || top() != Frame::Array) {
    throw InvalidArgument("JsonWriter: end_array without open array");
  }
  pop();
  out_->push_back(']');
  after_token();
}

void JsonWriter::key(std::string_view name) {
  if (depth_ == 0 || top() != Frame::Object) {
    throw InvalidArgument("JsonWriter: key() outside object");
  }
  if (!first_) out_->push_back(',');
  first_ = false;
  write_escaped(name);
  out_->push_back(':');
  top() = Frame::ObjectAwaitingValue;
}

void JsonWriter::value(std::string_view text) {
  before_value();
  write_escaped(text);
  after_token();
}

void JsonWriter::value(double number) {
  before_value();
  if (!std::isfinite(number)) {
    out_->append("null");
  } else {
    // %.12g needs at most 19 characters: sign, 12 digits, point, e+308.
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, number,
                                      std::chars_format::general, 12);
    out_->append(buffer, result.ptr);
  }
  after_token();
}

void JsonWriter::value(long long number) {
  before_value();
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, number);
  out_->append(buffer, result.ptr);
  after_token();
}

void JsonWriter::value(unsigned long long number) {
  before_value();
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, number);
  out_->append(buffer, result.ptr);
  after_token();
}

void JsonWriter::value(bool flag) {
  before_value();
  out_->append(flag ? "true" : "false");
  after_token();
}

void JsonWriter::null() {
  before_value();
  out_->append("null");
  after_token();
}

void JsonWriter::raw(std::string_view json) {
  before_value();
  out_->append(json);
  after_token();
}

bool JsonWriter::complete() const noexcept {
  return depth_ == 0 && root_written_;
}

bool JsonValue::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  throw InvalidArgument("JsonValue: not a bool");
}

double JsonValue::as_number() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  throw InvalidArgument("JsonValue: not a number");
}

const std::string& JsonValue::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  throw InvalidArgument("JsonValue: not a string");
}

const JsonValue::Array& JsonValue::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  throw InvalidArgument("JsonValue: not an array");
}

const JsonValue::Object& JsonValue::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  throw InvalidArgument("JsonValue: not an object");
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw InvalidArgument("JsonValue: missing key \"" + std::string(key) + "\"");
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  const Object* o = std::get_if<Object>(&data_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it != o->end() ? &it->second : nullptr;
}

bool JsonValue::contains(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

namespace {

/// Recursive-descent parser over an in-memory document. Depth is bounded to
/// keep adversarial inputs from overflowing the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON at byte " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"': v = JsonValue(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v = JsonValue(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v = JsonValue(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        break;
      default: v = parse_number(); break;
    }
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array elements;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(elements));
    }
    for (;;) {
      elements.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(elements));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: a low surrogate must follow for a full code point.
      if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must stand alone
    } else {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number: digit must follow '.'");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number: digit must follow exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

namespace {

void write_value(JsonWriter& j, const JsonValue& v) {
  if (v.is_null()) {
    j.null();
  } else if (v.is_bool()) {
    j.value(v.as_bool());
  } else if (v.is_number()) {
    const double d = v.as_number();
    // Integral doubles inside the 2^53 exact window print as integers so
    // counters round-trip without picking up a fraction or an exponent.
    if (std::isfinite(d) && std::nearbyint(d) == d &&
        std::fabs(d) <= 9007199254740992.0) {
      j.value(static_cast<long long>(d));
    } else {
      j.value(d);
    }
  } else if (v.is_string()) {
    j.value(v.as_string());
  } else if (v.is_array()) {
    j.begin_array();
    for (const JsonValue& element : v.as_array()) write_value(j, element);
    j.end_array();
  } else {
    j.begin_object();
    for (const auto& [key, member] : v.as_object()) {
      j.key(key);
      write_value(j, member);
    }
    j.end_object();
  }
}

}  // namespace

void write_json(std::ostream& out, const JsonValue& v) {
  JsonWriter j(out);
  write_value(j, v);
}

std::string to_json_string(const JsonValue& v) {
  std::string out;
  JsonWriter j(out);
  write_value(j, v);
  return out;
}

void JsonWriter::write_escaped(std::string_view text) {
  std::string& out = *out_;
  out.push_back('"');
  // Bytes that need no escape go out in runs, one append per run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out.push_back('"');
}

}  // namespace cwgl::util

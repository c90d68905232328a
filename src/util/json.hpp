#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace cwgl::util {

/// Minimal JSON writer with automatic comma management. It builds the
/// document in a std::string, one append per token.
///
/// Usage:
///   std::string out;
///   JsonWriter j(out);
///   j.begin_object();
///     j.key("name"); j.value("cwgl");
///     j.key("sizes"); j.begin_array(); j.value(1); j.value(2); j.end_array();
///   j.end_object();
///
/// Two constructors, one output:
///  - JsonWriter(std::string&) appends to the caller's string.
///  - JsonWriter(std::ostream&) builds the document in a buffer of its own
///    and writes the buffer to the stream when the root value closes, when
///    the buffer reaches kStreamFlushBytes, and in the destructor. So once
///    complete() is true, the stream has every byte. Do not write to the
///    stream yourself while the writer holds an open document: its
///    buffered bytes would land after yours.
///
/// Number formats, independent of locale and stream flags:
///  - doubles as printf's "%.12g" (std::to_chars, general, precision 12):
///    12 significant digits, trailing zeros dropped, an exponent outside
///    [1e-4, 1e12). That is not a round trip: 0.1 + 0.2 prints 0.3.
///    Non-finite doubles serialize as null.
///  - integers in plain decimal.
///
/// Strings are escaped per RFC 8259: `"`, `\`, \n, \r and \t by name,
/// other bytes below 0x20 as \u00xx, every other byte verbatim. Misuse (key
/// outside an object, unbalanced end, two keys in a row, two roots) throws
/// InvalidArgument. Nesting up to kInlineDepth levels uses no heap.
class JsonWriter {
 public:
  /// The stream adapter's buffer size that triggers a write.
  static constexpr std::size_t kStreamFlushBytes = 64 * 1024;
  /// Open containers kept in the writer itself; deeper ones spill to a
  /// vector.
  static constexpr std::size_t kInlineDepth = 16;

  explicit JsonWriter(std::string& out) noexcept : out_(&out) {}
  explicit JsonWriter(std::ostream& out) : stream_(&out), out_(&buffer_) {}
  /// The stream adapter writes what it still buffers, such as the open
  /// document a misuse left behind. A failed write stays in the stream's
  /// state.
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits an object key; the next emission must be its value.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(long long number);
  void value(unsigned long long number);
  void value(int number) { value(static_cast<long long>(number)); }
  void value(std::size_t number) { value(static_cast<unsigned long long>(number)); }
  void value(bool flag);
  void null();

  /// Emits `json` verbatim as one value — for embedding a sub-document that
  /// another component already serialized (diagnostics, metrics snapshots).
  /// The caller vouches that `json` is a single well-formed JSON value.
  void raw(std::string_view json);

  /// Convenience: key + value in one call.
  template <typename T>
  void field(std::string_view name, T&& v) {
    key(name);
    value(std::forward<T>(v));
  }

  /// True once every container has been closed and a root value written.
  bool complete() const noexcept;

 private:
  enum class Frame : std::uint8_t { Object, ObjectAwaitingValue, Array };
  Frame& top() noexcept;
  void push(Frame frame);
  void pop() noexcept;
  void before_value();
  void write_escaped(std::string_view text);
  /// Stream adapter: writes the buffer once the root closed or the buffer
  /// is full.
  void after_token() {
    if (stream_ != nullptr &&
        (depth_ == 0 || buffer_.size() >= kStreamFlushBytes)) {
      flush();
    }
  }
  void flush();

  std::ostream* stream_ = nullptr;  ///< the adapter's target, else null
  std::string buffer_;              ///< the adapter's buffer
  std::string* out_;                ///< where tokens are appended
  Frame inline_frames_[kInlineDepth] = {};
  std::vector<Frame> deep_frames_;  ///< frames past kInlineDepth
  std::size_t depth_ = 0;           ///< open containers
  /// The innermost open container has no element yet. Its parent never
  /// needs the flag: it got an element when the child opened.
  bool first_ = false;
  bool root_written_ = false;
};

/// Parsed JSON document node: the read-side counterpart of JsonWriter.
///
/// A small recursive value type (null / bool / number / string / array /
/// object) sufficient for round-tripping everything this tree emits — CLI
/// `--json` reports, metrics snapshots, trace-event files, bench JSON. Not a
/// general-purpose DOM: numbers are held as double (fine for the counters
/// and timings we serialize), objects preserve no key order (std::map), and
/// documents are parsed fully into memory.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() = default;  ///< null
  explicit JsonValue(std::nullptr_t) {}
  explicit JsonValue(bool b) : data_(b) {}
  explicit JsonValue(double d) : data_(d) {}
  explicit JsonValue(std::string s) : data_(std::move(s)) {}
  explicit JsonValue(Array a) : data_(std::move(a)) {}
  explicit JsonValue(Object o) : data_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(data_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(data_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(data_); }

  /// Checked accessors: throw InvalidArgument when the kind does not match.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; throws when not an object or key absent.
  const JsonValue& at(std::string_view key) const;
  /// Object member lookup; nullptr when not an object or key absent.
  const JsonValue* find(std::string_view key) const noexcept;
  /// True when this is an object containing `key`.
  bool contains(std::string_view key) const noexcept;

 private:
  std::variant<std::monostate, bool, double, std::string, Array, Object> data_;
};

/// Parses a complete JSON document (RFC 8259). Throws ParseError on syntax
/// errors (with byte offset) and on trailing non-whitespace after the root
/// value. Accepts everything JsonWriter emits.
JsonValue parse_json(std::string_view text);

/// Serializes a parsed document back to compact single-line JSON (object
/// keys come out sorted — JsonValue objects are std::map). Doubles that are
/// exactly integral print without a fraction, so counters and ids survive a
/// parse/serialize round trip byte-identically.
void write_json(std::ostream& out, const JsonValue& v);

/// write_json into a string — the form protocol payloads ride in.
std::string to_json_string(const JsonValue& v);

}  // namespace cwgl::util

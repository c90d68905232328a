#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwgl::util {

/// RFC-4180-style CSV parsing and writing.
///
/// Supports quoted fields containing commas, doubled quotes, and embedded
/// newlines; tolerates both LF and CRLF line endings. The Alibaba traces are
/// plain unquoted CSV, but the parser is general so user-supplied traces
/// survive round-trips.
class CsvReader {
 public:
  /// Wraps (does not own) an input stream.
  explicit CsvReader(std::istream& in) : in_(in) {}

  /// Reads the next record into `fields` (cleared first). Returns false at
  /// EOF. Throws ParseError on an unterminated quoted field.
  bool next(std::vector<std::string>& fields);

  /// 1-based index of the last record read (for error messages).
  std::size_t record_number() const noexcept { return record_; }

 private:
  std::istream& in_;
  std::size_t record_ = 0;
};

/// Escapes a single field per RFC 4180 (quotes only when needed).
std::string csv_escape(std::string_view field);

/// Writes one record (fields escaped, '\n' terminator).
void write_csv_record(std::ostream& out, std::span<const std::string> fields);

}  // namespace cwgl::util

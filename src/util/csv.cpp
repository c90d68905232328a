#include "util/csv.hpp"

#include <istream>
#include <ostream>
#include <span>

#include "util/error.hpp"

namespace cwgl::util {

bool CsvReader::next(std::vector<std::string>& fields) {
  fields.clear();
  int c = in_.get();
  // Skip a bare trailing newline left by the previous record.
  if (c == std::istream::traits_type::eof()) return false;
  ++record_;
  std::string field;
  bool in_quotes = false;
  bool any = false;
  for (;; c = in_.get()) {
    if (c == std::istream::traits_type::eof()) {
      if (in_quotes) {
        throw ParseError("CSV record " + std::to_string(record_) +
                         ": unterminated quoted field");
      }
      break;
    }
    const char ch = static_cast<char>(c);
    any = true;
    if (in_quotes) {
      if (ch == '"') {
        if (in_.peek() == '"') {
          in_.get();
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
      continue;
    }
    if (ch == '"' && field.empty()) {
      in_quotes = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      break;
    } else if (ch == '\r') {
      if (in_.peek() == '\n') in_.get();
      break;
    } else {
      field += ch;
    }
  }
  if (!any && fields.empty() && field.empty()) {
    // Lone EOF after previous newline: no record.
    --record_;
    return false;
  }
  fields.push_back(std::move(field));
  return true;
}

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_csv_record(std::ostream& out, std::span<const std::string> fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

}  // namespace cwgl::util

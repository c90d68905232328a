#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace cwgl::util {
namespace {

std::vector<std::vector<std::string>> parse_all(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::vector<std::string>> rows;
  CsvReader reader(in);
  std::vector<std::string> fields;
  while (reader.next(fields)) rows.push_back(fields);
  return rows;
}

TEST(CsvReader, SimpleRows) {
  const auto rows = parse_all("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvReader, MissingTrailingNewline) {
  const auto rows = parse_all("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvReader, CrLfLineEndings) {
  const auto rows = parse_all("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvReader, EmptyFields) {
  const auto rows = parse_all(",,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvReader, QuotedFieldWithComma) {
  const auto rows = parse_all("\"a,b\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvReader, QuotedFieldWithEscapedQuote) {
  const auto rows = parse_all("\"he said \"\"hi\"\"\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "he said \"hi\"");
}

TEST(CsvReader, QuotedFieldWithEmbeddedNewline) {
  const auto rows = parse_all("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(CsvReader, UnterminatedQuoteThrows) {
  std::istringstream in("\"oops");
  CsvReader reader(in);
  std::vector<std::string> fields;
  EXPECT_THROW(reader.next(fields), ParseError);
}

TEST(CsvReader, EmptyInputYieldsNoRecords) {
  const auto rows = parse_all("");
  EXPECT_TRUE(rows.empty());
}

TEST(CsvReader, RecordNumberAdvances) {
  std::istringstream in("a\nb\n");
  CsvReader reader(in);
  std::vector<std::string> fields;
  EXPECT_TRUE(reader.next(fields));
  EXPECT_EQ(reader.record_number(), 1u);
  EXPECT_TRUE(reader.next(fields));
  EXPECT_EQ(reader.record_number(), 2u);
  EXPECT_FALSE(reader.next(fields));
}

TEST(CsvEscape, PlainFieldUnchanged) { EXPECT_EQ(csv_escape("abc"), "abc"); }

TEST(CsvEscape, CommaTriggersQuoting) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuoteDoubling) {
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
}

TEST(CsvEscape, NewlineTriggersQuoting) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvRoundTrip, ArbitraryFieldsSurvive) {
  const std::vector<std::string> original{"plain", "with,comma", "with\"quote",
                                          "multi\nline", ""};
  std::ostringstream out;
  write_csv_record(out, original);
  const auto rows = parse_all(out.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], original);
}

TEST(CsvReader, EarlyStop) {
  std::istringstream in("a\nb\nc\n");
  CsvReader reader(in);
  std::vector<std::string> fields;
  int seen = 0;
  while (reader.next(fields)) {
    if (++seen == 2) break;
  }
  EXPECT_EQ(reader.record_number(), 2u);
  EXPECT_EQ(seen, 2);
  // Stopping consumed only the records read: the third is still there.
  ASSERT_TRUE(reader.next(fields));
  EXPECT_EQ(fields, std::vector<std::string>{"c"});
}

}  // namespace
}  // namespace cwgl::util

#include "util/csv_scanner.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/proptest.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace cwgl::util {
namespace {

std::vector<std::vector<std::string>> scan_all(const std::string& text,
                                               std::size_t block_size) {
  std::istringstream in(text);
  CsvScanner scanner(in, block_size);
  std::vector<std::vector<std::string>> rows;
  while (const auto record = scanner.next()) {
    rows.emplace_back(record->begin(), record->end());
  }
  return rows;
}

std::vector<std::vector<std::string>> read_all(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  while (reader.next(fields)) rows.push_back(fields);
  return rows;
}

/// The contract: the scanner yields byte-identical records to CsvReader on
/// every input, at every block size (boundaries may fall anywhere, including
/// inside quotes, CRLF pairs, and doubled quotes).
void expect_matches_reader(const std::string& text) {
  const auto expected = read_all(text);
  for (const std::size_t block : {1u, 2u, 3u, 7u, 16u, 4096u}) {
    EXPECT_EQ(scan_all(text, block), expected)
        << "block=" << block << " input=" << testing::PrintToString(text);
  }
}

TEST(CsvScanner, SimpleRows) {
  const auto rows = scan_all("a,b,c\n1,2,3\n", CsvScanner::kDefaultBlockSize);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvScanner, DifferentialCorpus) {
  const char* corpus[] = {
      "",
      "\n",
      "a",
      "a\n",
      "a,b\nc,d",
      "a,b\r\nc,d\r\n",
      "a,b\rc,d\r",
      ",,\n",
      ",\n,\n",
      "\"a,b\",c\n",
      "\"he said \"\"hi\"\"\",x\n",
      "\"line1\nline2\",x\n",
      "\"line1\r\nline2\",x\r\n",
      "\"\",x\n",
      "\"\"\"\"\n",
      "a\"b,c\"d\n",
      "\"a\"tail,x\n",
      "\"\"reopen\"\",x\n",
      "field,\"quoted\",plain\r\nnext,\"\",\"q\"\"q\"\n",
      "trailing,comma,\n",
      "\r\n",
      "\r",
  };
  for (const char* text : corpus) expect_matches_reader(text);
}

TEST(CsvScanner, DifferentialRandomized) {
  // Random strings over a quote/comma/newline-heavy alphabet hammer the
  // state machine and every block-boundary interaction.
  proptest::run_cases(0xC5Cu, 300, [&](util::Xoshiro256StarStar& rng) {
    const char alphabet[] = {'a', 'b', ',', '"', '\n', '\r', 'x'};
    const int len = rng.uniform_int(0, 40);
    std::string text;
    for (int i = 0; i < len; ++i) {
      text += alphabet[rng.uniform_int(0, 6)];
    }
    // Skip inputs where an unterminated quote makes both sides throw —
    // equivalence of the error case is asserted separately below.
    try {
      read_all(text);
    } catch (const ParseError&) {
      EXPECT_THROW(scan_all(text, 7), ParseError);
      return;
    }
    expect_matches_reader(text);
  });
}

// The fast path probes 16 bytes at a time (8 without SSE2). Each terminator
// here lands at every offset of a probe in turn, on blocks whose ends fall
// on, just before and just after probe edges, so a CRLF pair or a lone CR
// is split across a probe, a refill, or both; the final record ends in the
// buffer's last bytes, which the probe reads through a padded copy.
TEST(CsvScanner, TerminatorsOnProbeAndRefillEdgesMatchReader) {
  for (const char* ending : {"\n", "\r\n", "\r"}) {
    std::string text;
    for (std::size_t len = 0; len < 40; ++len) {
      std::string field(len, 'x');
      for (std::size_t i = 4; i < len; i += 5) field[i] = ',';
      text += field + ending;
    }
    text += "tail,no,terminator";
    const auto expected = read_all(text);
    for (const std::size_t block :
         {1u, 5u, 15u, 16u, 17u, 31u, 32u, 33u, 48u, 4096u}) {
      EXPECT_EQ(scan_all(text, block), expected)
          << "block=" << block << " ending=" << testing::PrintToString(ending);
    }
    // Ending at the buffer's last byte, with and without a terminator.
    for (std::size_t len = 1; len < 40; ++len) {
      const std::string row = std::string(len, 'y') + ending;
      EXPECT_EQ(scan_all(row, CsvScanner::kDefaultBlockSize), read_all(row))
          << "len=" << len;
      const std::string bare(len, 'z');
      EXPECT_EQ(scan_all(bare, CsvScanner::kDefaultBlockSize),
                read_all(bare))
          << "len=" << len;
    }
  }
}

TEST(CsvScanner, UnterminatedQuoteThrowsLikeReader) {
  for (const char* text : {"\"oops", "a,\"x\nnope", "\"\"\""}) {
    EXPECT_THROW(read_all(text), ParseError) << text;
    EXPECT_THROW(scan_all(text, 4), ParseError) << text;
  }
}

TEST(CsvScanner, RecordLargerThanBlockSize) {
  std::string big(10000, 'z');
  const std::string text = big + ",tail\nnext,row\n";
  const auto rows = scan_all(text, 16);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{big, "tail"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"next", "row"}));
}

TEST(CsvScanner, RecordNumberAndBytesConsumed) {
  std::istringstream in("a,b\nc,d\n");
  CsvScanner scanner(in);
  EXPECT_EQ(scanner.record_number(), 0u);
  ASSERT_TRUE(scanner.next().has_value());
  EXPECT_EQ(scanner.record_number(), 1u);
  EXPECT_EQ(scanner.bytes_consumed(), 4u);
  ASSERT_TRUE(scanner.next().has_value());
  EXPECT_EQ(scanner.record_number(), 2u);
  EXPECT_EQ(scanner.bytes_consumed(), 8u);
  EXPECT_FALSE(scanner.next().has_value());
}

TEST(CsvScanner, ViewsPointIntoBufferForUnquotedFields) {
  // Zero-copy invariant: unquoted fields are views over the internal
  // buffer, not copies — consecutive fields of one record are contiguous
  // (separated by exactly the delimiter byte).
  std::istringstream in("alpha,beta,gamma\n");
  CsvScanner scanner(in);
  const auto record = scanner.next();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->size(), 3u);
  EXPECT_EQ((*record)[0].data() + (*record)[0].size() + 1, (*record)[1].data());
  EXPECT_EQ((*record)[1].data() + (*record)[1].size() + 1, (*record)[2].data());
}

// The block scanner splits a quote-free block exactly as the stream
// scanner splits the same bytes: random blocks over a comma/terminator-
// heavy alphabet, every record's fields and start, and a quote refused.
TEST(CsvBlockScanner, MatchesTheStreamScannerOnQuoteFreeBlocks) {
  proptest::run_cases(0xB10Cu, 300, [&](util::Xoshiro256StarStar& rng) {
    const char alphabet[] = {'a', 'b', ',', '\n', '\r', 'x'};
    const int len = rng.uniform_int(0, 60);
    std::string text;
    for (int i = 0; i < len; ++i) text += alphabet[rng.uniform_int(0, 5)];
    std::istringstream in(text);
    CsvScanner stream(in, 3);
    CsvBlockScanner block;
    block.reset(text);
    while (const auto expected = stream.next()) {
      const auto actual = block.next();
      ASSERT_TRUE(actual.has_value()) << testing::PrintToString(text);
      EXPECT_EQ(std::vector<std::string_view>(actual->begin(), actual->end()),
                std::vector<std::string_view>(expected->begin(), expected->end()));
      EXPECT_EQ(block.record_begin(), stream.record_offset());
    }
    EXPECT_FALSE(block.next().has_value());
    EXPECT_EQ(block.consumed(), text.size());
  });
  CsvBlockScanner quoted;
  quoted.reset("a,\"b\"\n");
  EXPECT_THROW(quoted.next(), InvalidArgument);
}

// A scanner that takes over part-way through a stream yields the bytes
// already read first, then the rest, numbering records and offsets as in
// the whole file, and counts only its own records.
TEST(CsvScanner, ResumesWithTheFilesRecordNumbersAndOffsets) {
  std::istringstream in("c,3\r\nd,\"4\"\n");
  CsvScanner scanner(in, 2, {}, CsvResume{"b,2\n", 5, 100});
  std::vector<std::string> seen;
  std::vector<std::size_t> numbers;
  std::vector<std::uint64_t> offsets;
  while (const auto record = scanner.next()) {
    seen.emplace_back(std::string((*record)[0]) + (*record)[1].data()[0]);
    numbers.push_back(scanner.record_number());
    offsets.push_back(scanner.record_offset());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"b2", "c3", "d4"}));
  EXPECT_EQ(numbers, (std::vector<std::size_t>{6, 7, 8}));
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{100, 104, 109}));
}

TEST(ScanCsvRecords, EarlyStop) {
  std::istringstream in("a\nb\nc\n");
  int seen = 0;
  const std::size_t visited =
      scan_csv_records(in, [&](std::span<const std::string_view>) {
        ++seen;
        return seen < 2;
      });
  EXPECT_EQ(visited, 2u);
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace cwgl::util

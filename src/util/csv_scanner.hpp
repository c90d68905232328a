#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwgl::util {

class Diagnostics;

/// How the scanner treats structurally damaged input.
struct CsvScanPolicy {
  /// Strict (default): an unterminated quoted field throws ParseError.
  /// Lenient: the damaged record is quarantined and the scanner resyncs at
  /// the next line boundary, so one corrupt row cannot kill a 270 GB ingest.
  bool lenient = false;
  /// Optional sink: quarantined records are reported as
  /// ("csv", "unterminated-quote", <first line of the record>).
  Diagnostics* diagnostics = nullptr;
};

/// Where a CsvScanner starts when it takes over a stream part-way: the
/// chunked ingest hands the rest of a stream to one exact scanner from
/// the first chunk that holds a quote (trace::stream_job_groups).
struct CsvResume {
  /// Bytes already read from the stream, starting at a record boundary;
  /// the scanner yields them before reading on.
  std::string_view buffered;
  /// Records before them, so record numbers stay those of the whole file.
  /// They are not counted again in `ingest.scanner.rows`.
  std::size_t records = 0;
  /// Stream offset of their first byte.
  std::uint64_t offset = 0;
};

/// Zero-copy streaming CSV scanner.
///
/// Reads the input in large blocks and yields each record as a span of
/// `string_view` fields pointing directly into the internal buffer — no
/// per-field heap allocation on the hot path. Only fields that contain a
/// quote are copied out (to unescape doubled quotes), which never happens in
/// the Alibaba traces. Accepts the same dialect as `CsvReader` (RFC-4180
/// quotes, CRLF and lone-CR line endings, embedded newlines) and produces
/// byte-identical fields; `tests/util/csv_scanner_test.cpp` holds the
/// differential proof.
///
/// Records may be arbitrarily larger than the block size: the buffer grows
/// to fit the largest single record and is reused across records.
///
/// Observability: totals are folded into the global metrics registry
/// (`ingest.scanner.rows`/`.bytes`/`.quarantined`) when the scanner reaches
/// end of input or is destroyed — a batched flush, so the per-record hot
/// path carries zero instrumentation cost.
class CsvScanner {
 public:
  static constexpr std::size_t kDefaultBlockSize = std::size_t{1} << 18;

  /// Wraps (does not own) `in`. `block_size` is the granularity of refills;
  /// tiny values are legal (the boundary-handling tests use them).
  explicit CsvScanner(std::istream& in,
                      std::size_t block_size = kDefaultBlockSize,
                      CsvScanPolicy policy = {},
                      const CsvResume& resume = {});

  CsvScanner(const CsvScanner&) = delete;
  CsvScanner& operator=(const CsvScanner&) = delete;

  /// Flushes the not-yet-reported totals to the metrics registry.
  ~CsvScanner();

  /// Scans the next record. Returns nullopt at end of input. The returned
  /// span and every `string_view` in it are invalidated by the next call.
  /// Throws ParseError on an unterminated quoted field (strict policy);
  /// lenient policy quarantines the record and resyncs instead.
  std::optional<std::span<const std::string_view>> next();

  /// 1-based index of the last record returned (for error messages).
  std::size_t record_number() const noexcept { return record_; }

  /// Stream offset of the first byte of the last record returned.
  std::uint64_t record_offset() const noexcept { return record_offset_; }

  /// Total input bytes consumed by returned records (throughput accounting).
  std::size_t bytes_consumed() const noexcept { return consumed_; }

  /// Records dropped by the lenient policy (always 0 under strict).
  std::size_t quarantined() const noexcept { return quarantined_; }

 private:
  /// Compacts the live tail to the buffer front and reads one more block.
  /// Returns false when the input is exhausted (sets eof_).
  bool refill();

  /// Drops the unterminated record, reports it, and repositions at the next
  /// line boundary. Returns false when no further line exists.
  bool quarantine_and_resync();

  /// Reports rows/bytes/quarantines accumulated since the last flush to the
  /// global metrics registry. Called at end of input and from the
  /// destructor; idempotent for unchanged totals.
  void flush_metrics();

  std::istream& in_;
  std::size_t block_size_;
  CsvScanPolicy policy_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  ///< first unconsumed byte in buffer_
  std::size_t end_ = 0;    ///< one past the last valid byte in buffer_
  std::uint64_t offset_ = 0;         ///< stream offset of buffer_[0]
  std::uint64_t record_offset_ = 0;  ///< stream offset of the last record
  bool eof_ = false;
  std::size_t record_ = 0;
  std::size_t consumed_ = 0;
  std::size_t quarantined_ = 0;
  std::size_t flushed_records_ = 0;
  std::size_t flushed_bytes_ = 0;
  std::size_t flushed_quarantined_ = 0;
  std::vector<std::string_view> fields_;
  /// Stable storage for unescaped quoted fields (deque: growth never moves
  /// existing elements, so views into them stay valid for the record).
  std::deque<std::string> unescaped_;
};

/// Splits a block of whole CSV records that holds no quote into fields,
/// exactly as CsvScanner's fast path splits them: records end at '\n',
/// "\r\n" or a lone '\r', and the block's end ends the input, so a last
/// record without a terminator is a record too. The chunked ingest cuts a
/// stream after a '\n' into such blocks and scans them on its workers.
class CsvBlockScanner {
 public:
  /// Starts over on `block`, which must outlive the scan. Throws
  /// InvalidArgument from next() on a quote: the caller has to route a
  /// block that holds one to CsvScanner.
  void reset(std::string_view block) noexcept;

  /// The next record's fields, views into the block, or nullopt at its
  /// end. The span is invalidated by the next call.
  std::optional<std::span<const std::string_view>> next();

  /// Where the last record returned starts in the block.
  std::size_t record_begin() const noexcept { return record_begin_; }

  /// Bytes of the block in the records returned so far.
  std::size_t consumed() const noexcept { return pos_; }

 private:
  std::string_view block_;
  std::size_t pos_ = 0;
  std::size_t record_begin_ = 0;
  std::vector<std::string_view> fields_;
};

/// Streams records through `fn` with the zero-copy scanner; stops early if
/// `fn` returns false. Returns the number of records visited. The span
/// passed to `fn` is only valid during the call.
std::size_t scan_csv_records(
    std::istream& in,
    const std::function<bool(std::span<const std::string_view>)>& fn,
    CsvScanPolicy policy = {});

}  // namespace cwgl::util

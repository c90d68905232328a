#include "util/csv_scanner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/metrics.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace cwgl::util {

namespace {

// The fast path probes kProbeBytes of a record at once for the four CSV
// special bytes ',' '\n' '\r' '"'. probe() returns a mask with one hit per
// flagged byte; first_hit() is the lowest-address hit's byte index and
// clear_first() drops it. A probe may flag a byte that is not special (the
// SWAR fallback does), so callers recheck the byte, but it never misses one.
#if defined(__SSE2__)

constexpr std::size_t kProbeBytes = 16;
using Hits = std::uint32_t;

/// Bit i is set exactly when byte i of the 16 at `p` is special.
inline Hits probe(const char* p) noexcept {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i hits = _mm_or_si128(
      _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8(',')),
                   _mm_cmpeq_epi8(v, _mm_set1_epi8('\n'))),
      _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('\r')),
                   _mm_cmpeq_epi8(v, _mm_set1_epi8('"'))));
  return static_cast<Hits>(_mm_movemask_epi8(hits));
}

constexpr std::size_t first_hit(Hits mask) noexcept {
  return static_cast<std::size_t>(std::countr_zero(mask));
}

constexpr Hits clear_first(Hits mask, std::size_t /*idx*/) noexcept {
  return mask & (mask - 1);
}

#else

constexpr std::size_t kProbeBytes = 8;
using Hits = std::uint64_t;

// Flags bytes of `word` below 0x30 ('0') by setting their high bit. Every
// CSV special byte — ',' 0x2C, '\n' 0x0A, '\r' 0x0D, '"' 0x22 — is below
// '0', while trace payload is almost entirely alphanumeric, so one probe
// covers all four. Borrow propagation may over-flag a byte directly above a
// true hit and bytes like '.' flag too — hence the callers' recheck.
inline Hits probe(const char* p) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);  // fixed size: a single unaligned load
  return (word - kOnes * 0x30) & ~word & kHigh;
}

constexpr std::size_t first_hit(Hits mask) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(mask)) >> 3;
  } else {
    return static_cast<std::size_t>(std::countl_zero(mask)) >> 3;
  }
}

constexpr Hits clear_first(Hits mask, std::size_t idx) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return mask & (mask - 1);
  } else {
    return mask & ~(0x8000000000000000ull >> (idx * 8));
  }
}

#endif

/// The fast path of both scanners: splits the unquoted record that starts
/// at `rec` into `fields`, one sweep of kProbeBytes-wide probes finding
/// commas, the record terminator and any quote at once. Running off `lim`
/// while more input may follow (`!eof`) asks for a refill, and so does a
/// '\r' as the last buffered byte, which may open a CRLF pair. At the first
/// quote it gives up, `fields` then half filled. On kDone `rec_len` is the
/// record's length including its terminator, and past `lim` with `eof` the
/// record runs to `lim`.
enum class Unquoted { kDone, kRefill, kQuoted };

Unquoted scan_unquoted(const char* rec, const char* lim, bool eof,
                       std::vector<std::string_view>& fields,
                       std::size_t& rec_len) {
  fields.clear();
  const char* field_start = rec;
  const char* p = rec;
  std::size_t content_len = 0;  ///< record bytes before the terminator
  for (bool done = false; !done;) {
    if (p >= lim) {
      if (!eof) return Unquoted::kRefill;
      content_len = rec_len = static_cast<std::size_t>(lim - rec);
      break;
    }
    std::size_t n = static_cast<std::size_t>(lim - p);
    Hits hits = 0;
    if (n >= kProbeBytes) {
      n = kProbeBytes;
      hits = probe(p);
    } else {
      // The buffer's last bytes: probe a zero-padded copy, so no load
      // reaches past them. A padding byte is never a hit the loop below
      // acts on.
      char tail[kProbeBytes] = {};
      std::memcpy(tail, p, n);
      hits = probe(tail);
    }
    while (hits != 0) {
      const std::size_t off = first_hit(hits);
      hits = clear_first(hits, off);
      if (off >= n) break;  // padding byte of the final partial probe
      const char* at = p + off;
      const char c = *at;  // a probe may over-flag; recheck the byte
      if (c == ',') {
        fields.emplace_back(field_start,
                            static_cast<std::size_t>(at - field_start));
        field_start = at + 1;
      } else if (c == '"') {
        return Unquoted::kQuoted;
      } else if (c == '\n' || c == '\r') {
        content_len = static_cast<std::size_t>(at - rec);
        if (c == '\n') {
          rec_len = content_len + 1;
        } else if (at + 1 == lim && !eof) {
          return Unquoted::kRefill;  // a CRLF pair may straddle the refill
        } else {
          rec_len = content_len + ((at + 1 < lim && at[1] == '\n') ? 2 : 1);
        }
        done = true;
        break;
      }
    }
    p += n;
  }
  fields.emplace_back(field_start, static_cast<std::size_t>(
                                       (rec + content_len) - field_start));
  return Unquoted::kDone;
}

}  // namespace

CsvScanner::CsvScanner(std::istream& in, std::size_t block_size,
                       CsvScanPolicy policy, const CsvResume& resume)
    : in_(in), block_size_(std::max<std::size_t>(1, block_size)),
      policy_(policy), buffer_(resume.buffered.begin(), resume.buffered.end()),
      end_(resume.buffered.size()), offset_(resume.offset),
      record_(resume.records), flushed_records_(resume.records) {}

CsvScanner::~CsvScanner() { flush_metrics(); }

void CsvScanner::flush_metrics() {
  auto& registry = obs::MetricsRegistry::global();
  if (record_ > flushed_records_) {
    registry.counter("ingest.scanner.rows").add(record_ - flushed_records_);
    flushed_records_ = record_;
  }
  if (consumed_ > flushed_bytes_) {
    registry.counter("ingest.scanner.bytes").add(consumed_ - flushed_bytes_);
    flushed_bytes_ = consumed_;
  }
  if (quarantined_ > flushed_quarantined_) {
    registry.counter("ingest.scanner.quarantined")
        .add(quarantined_ - flushed_quarantined_);
    flushed_quarantined_ = quarantined_;
  }
}

bool CsvScanner::refill() {
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    offset_ += begin_;
    begin_ = 0;
  }
  if (buffer_.size() - end_ < block_size_) {
    // Double rather than add one block so a record much larger than the
    // block size costs O(record) amortized, not O(record^2 / block).
    buffer_.resize(std::max(buffer_.size() * 2, end_ + block_size_));
  }
  CWGL_FAILPOINT("ingest.read_block");
  // short-read injection shrinks this refill, forcing records to straddle
  // refills far more often than real block sizes ever would.
  const std::size_t want = CWGL_FAILPOINT_CLAMP("ingest.read_block", block_size_);
  in_.read(buffer_.data() + end_, static_cast<std::streamsize>(want));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  if (got < want) eof_ = true;
  return got > 0;
}

bool CsvScanner::quarantine_and_resync() {
  ++quarantined_;
  // The whole unterminated record is resident: the slow path never advances
  // begin_ before completing a record, and refills at EOF stop growing it.
  const char* rec = buffer_.data() + begin_;
  const std::size_t len = end_ - begin_;
  const char* nl = static_cast<const char*>(std::memchr(rec, '\n', len));
  if (policy_.diagnostics != nullptr) {
    const std::size_t line_len =
        nl != nullptr ? static_cast<std::size_t>(nl - rec) : len;
    policy_.diagnostics->record("csv", "unterminated-quote",
                                std::string_view(rec, line_len));
  }
  if (nl == nullptr) {
    begin_ = end_;  // no later line boundary: the damage reaches EOF
    return false;
  }
  begin_ += static_cast<std::size_t>(nl - rec) + 1;
  return begin_ < end_;
}

std::optional<std::span<const std::string_view>> CsvScanner::next() {
  if (begin_ == end_ && !eof_) refill();
  if (begin_ == end_) {
    flush_metrics();
    return std::nullopt;
  }

  // Parse attempts restart from the top whenever a refill is needed:
  // refilling compacts the buffer (invalidating in-progress views), and a
  // record can straddle block boundaries only O(record/block) times, so the
  // rescan cost is bounded. Each attempt first tries the probing fast path
  // that covers every record of the real traces; records containing a
  // quote fall back to
  // a state machine that mirrors CsvReader exactly, where `copy` switches a
  // field from the zero-copy slice to unescaped copy-out storage the moment
  // quoting makes the raw bytes differ from the field.
  for (;;) {
    fields_.clear();
    unescaped_.clear();

    // --- fast path: unquoted record fully resident in the buffer ---
    std::size_t rec_len = 0;
    switch (scan_unquoted(buffer_.data() + begin_, buffer_.data() + end_,
                          eof_, fields_, rec_len)) {
      case Unquoted::kRefill:
        refill();
        continue;
      case Unquoted::kDone:
        record_offset_ = offset_ + begin_;
        consumed_ += rec_len;
        begin_ += rec_len;
        ++record_;
        return std::span<const std::string_view>(fields_);
      case Unquoted::kQuoted:
        // A quote is present: take the exact CsvReader state machine below.
        fields_.clear();
        break;
    }
    std::size_t p = begin_;
    std::size_t field_begin = p;
    std::string* copy = nullptr;
    bool in_quotes = false;
    bool need_refill = false;
    bool need_resync = false;
    std::size_t field_end = 0;  ///< position of the record terminator
    std::size_t rec_end = 0;    ///< one past the consumed terminator bytes

    const auto finish_field = [&](std::size_t at) {
      fields_.push_back(copy ? std::string_view(*copy)
                             : std::string_view(buffer_.data() + field_begin,
                                                at - field_begin));
    };

    for (;;) {
      if (p == end_) {
        if (!eof_) {
          need_refill = true;
          break;
        }
        if (in_quotes) {
          if (!policy_.lenient) {
            throw ParseError("CSV record " + std::to_string(record_ + 1) +
                             ": unterminated quoted field");
          }
          need_resync = true;
          break;
        }
        field_end = rec_end = p;
        break;
      }
      const char ch = buffer_[p];
      if (in_quotes) {
        if (ch == '"') {
          if (p + 1 == end_ && !eof_) {
            need_refill = true;
            break;
          }
          if (p + 1 < end_ && buffer_[p + 1] == '"') {
            copy->push_back('"');
            p += 2;
          } else {
            in_quotes = false;
            ++p;
          }
        } else {
          copy->push_back(ch);
          ++p;
        }
        continue;
      }
      if (ch == '"' && (copy ? copy->empty() : p == field_begin)) {
        if (copy == nullptr) copy = &unescaped_.emplace_back();
        in_quotes = true;
        ++p;
      } else if (ch == ',') {
        finish_field(p);
        ++p;
        field_begin = p;
        copy = nullptr;
      } else if (ch == '\n') {
        field_end = p;
        rec_end = p + 1;
        break;
      } else if (ch == '\r') {
        if (p + 1 == end_ && !eof_) {
          need_refill = true;
          break;
        }
        field_end = p;
        rec_end = (p + 1 < end_ && buffer_[p + 1] == '\n') ? p + 2 : p + 1;
        break;
      } else {
        if (copy != nullptr) copy->push_back(ch);
        ++p;
      }
    }

    if (need_resync) {
      if (!quarantine_and_resync()) {
        flush_metrics();
        return std::nullopt;
      }
      continue;
    }
    if (need_refill) {
      refill();
      continue;
    }
    finish_field(field_end);
    record_offset_ = offset_ + begin_;
    consumed_ += rec_end - begin_;
    begin_ = rec_end;
    ++record_;
    return std::span<const std::string_view>(fields_);
  }
}

void CsvBlockScanner::reset(std::string_view block) noexcept {
  block_ = block;
  pos_ = 0;
  record_begin_ = 0;
}

std::optional<std::span<const std::string_view>> CsvBlockScanner::next() {
  if (pos_ == block_.size()) return std::nullopt;
  std::size_t rec_len = 0;
  if (scan_unquoted(block_.data() + pos_, block_.data() + block_.size(),
                    /*eof=*/true, fields_, rec_len) == Unquoted::kQuoted) {
    throw InvalidArgument("CsvBlockScanner: quote in a block");
  }
  record_begin_ = pos_;
  pos_ += rec_len;
  return std::span<const std::string_view>(fields_);
}

std::size_t scan_csv_records(
    std::istream& in,
    const std::function<bool(std::span<const std::string_view>)>& fn,
    CsvScanPolicy policy) {
  CsvScanner scanner(in, CsvScanner::kDefaultBlockSize, policy);
  std::size_t n = 0;
  while (const auto record = scanner.next()) {
    ++n;
    if (!fn(*record)) break;
  }
  return n;
}

}  // namespace cwgl::util

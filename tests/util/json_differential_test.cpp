// util::JsonWriter against the iostream writer it replaced
// (support/json_oracle.hpp): every document, written through either
// constructor, must come out byte for byte as the oracle writes it.

#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/json_oracle.hpp"
#include "support/proptest.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cwgl::util {
namespace {

enum class Sink { String, Stream };
constexpr Sink kSinks[] = {Sink::String, Sink::Stream};

const char* sink_name(Sink sink) {
  return sink == Sink::String ? "JsonWriter(std::string&)"
                              : "JsonWriter(std::ostream&)";
}

/// Runs `build(writer)` on the oracle and on util::JsonWriter through
/// `sink`, and expects the same bytes. Through the stream adapter the
/// stream must hold every byte as soon as the document is complete.
template <typename Build>
void expect_oracle_bytes(Sink sink, Build&& build) {
  SCOPED_TRACE(sink_name(sink));
  std::ostringstream expected;
  {
    oracle::JsonWriter j(expected);
    build(j);
  }
  if (sink == Sink::String) {
    std::string actual;
    JsonWriter j(actual);
    build(j);
    EXPECT_EQ(actual, expected.str());
    return;
  }
  std::ostringstream actual;
  {
    JsonWriter j(actual);
    build(j);
    if (j.complete()) {
      EXPECT_EQ(actual.str(), expected.str());
    }
  }
  EXPECT_EQ(actual.str(), expected.str());
}

double from_bits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

/// The doubles worth a named check: signed zeros, subnormals, the normal
/// range's ends, non-finite values, and the edges where "%.12g" rounds to
/// 12 digits, carries into the next decade or switches to an exponent.
std::vector<double> edge_doubles() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 0.2, 0.1 + 0.2, 1.0 / 3.0,
      DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      from_bits(0x000fffffffffffffULL),  // largest subnormal
      from_bits(0x8000000000000001ULL),
      kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      from_bits(0x7ff0000000000001ULL), from_bits(0xfff8000000000001ULL),
      9007199254740992.0, 9007199254740993.0, 1e15, 123456789012.0,
      999999999999.0, 999999999999.4, 999999999999.5, 999999999999.6,
      1e12, 1e-4, 1e-5, 9.9999999999949e-5, 9.999999999995e-5,
      9.9999999999951e-5, 0.12345678901249999, 0.1234567890125,
      0.12345678901250001, 1.000000000005, 1.0000000000050001,
      2.5e-308, 4.9406564584124654e-324, 1.7976931348623157e308,
  };
  // Each decade edge, and the 12-digit value just below it that rounds up
  // into it, with their neighbours one and two ulps away.
  for (int e = -323; e <= 308; ++e) {
    char text[40];
    std::snprintf(text, sizeof text, "1e%d", e);
    const double decade = std::strtod(text, nullptr);
    std::snprintf(text, sizeof text, "9.999999999995e%d", e - 1);
    const double carry = std::strtod(text, nullptr);
    for (double v : {decade, carry}) {
      double down = v;
      double up = v;
      values.push_back(v);
      for (int step = 0; step < 2; ++step) {
        down = std::nextafter(down, -kInf);
        up = std::nextafter(up, kInf);
        values.push_back(down);
        values.push_back(up);
      }
    }
  }
  for (std::size_t i = 0, n = values.size(); i < n; ++i) {
    values.push_back(-values[i]);
  }
  return values;
}

/// Writes `values` as one array.
template <typename W>
void write_doubles(W& j, const std::vector<double>& values) {
  j.begin_array();
  for (double v : values) j.value(v);
  j.end_array();
}

TEST(JsonWriterDifferential, EdgeDoubles) {
  const std::vector<double> values = edge_doubles();
  for (Sink sink : kSinks) {
    expect_oracle_bytes(sink, [&](auto& j) { write_doubles(j, values); });
    for (double v : values) {
      expect_oracle_bytes(sink, [&](auto& j) { j.value(v); });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(JsonWriterDifferential, DoublesDrawnByBitPattern) {
  proptest::run_cases(0x6a736f6e64626cULL, 20, [](Xoshiro256StarStar& rng) {
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) values.push_back(from_bits(rng()));
    // Small exponents as often as large ones: the bit pattern's exponent
    // field drawn uniformly over the finite, subnormal and non-finite range.
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t exponent = rng.uniform_u64(0, 0x7ff);
      values.push_back(from_bits((rng() & 0x800fffffffffffffULL) |
                                 (exponent << 52)));
    }
    // 13-digit decimals ending in 5: the tie cases of 12-digit rounding,
    // and the doubles one ulp either side.
    for (int i = 0; i < 500; ++i) {
      char text[48];
      const auto mantissa = rng.uniform_u64(100000000000ULL, 999999999999ULL);
      std::snprintf(text, sizeof text, "%llu5e%d",
                    static_cast<unsigned long long>(mantissa),
                    rng.uniform_int(-330, 296));
      const double v = std::strtod(text, nullptr);
      values.push_back(v);
      values.push_back(std::nextafter(v, 0.0));
      values.push_back(std::nextafter(v, HUGE_VAL));
    }
    for (Sink sink : kSinks) {
      expect_oracle_bytes(sink, [&](auto& j) { write_doubles(j, values); });
    }
  });
}

TEST(JsonWriterDifferential, IntegerExtremes) {
  std::vector<long long> signed_values = {0, 1, -1, LLONG_MIN, LLONG_MIN + 1,
                                          LLONG_MAX, LLONG_MAX - 1, INT_MIN,
                                          INT_MAX};
  std::vector<unsigned long long> unsigned_values = {0, 1, ULLONG_MAX,
                                                     ULLONG_MAX - 1};
  // Every power of two and of ten, and their neighbours.
  for (int bit = 0; bit < 64; ++bit) {
    const unsigned long long p = 1ULL << bit;
    for (unsigned long long u : {p - 1, p, p + 1}) {
      unsigned_values.push_back(u);
      if (u <= static_cast<unsigned long long>(LLONG_MAX)) {
        signed_values.push_back(static_cast<long long>(u));
        signed_values.push_back(-static_cast<long long>(u));
      }
    }
  }
  for (unsigned long long p = 1; p <= ULLONG_MAX / 10; p *= 10) {
    for (unsigned long long u : {p - 1, p, p + 1, p * 10 - 1}) {
      unsigned_values.push_back(u);
      if (u <= static_cast<unsigned long long>(LLONG_MAX)) {
        signed_values.push_back(static_cast<long long>(u));
        signed_values.push_back(-static_cast<long long>(u));
      }
    }
  }
  for (Sink sink : kSinks) {
    expect_oracle_bytes(sink, [&](auto& j) {
      j.begin_object();
      j.key("signed");
      j.begin_array();
      for (long long v : signed_values) j.value(v);
      j.end_array();
      j.key("unsigned");
      j.begin_array();
      for (unsigned long long v : unsigned_values) j.value(v);
      j.end_array();
      j.key("int");
      j.begin_array();
      for (int v : {INT_MIN, -1, 0, 1, INT_MAX}) j.value(v);
      j.end_array();
      j.field("size_t", std::numeric_limits<std::size_t>::max());
      j.end_object();
    });
    for (long long v : {LLONG_MIN, LLONG_MAX}) {
      expect_oracle_bytes(sink, [&](auto& j) { j.value(v); });
    }
    expect_oracle_bytes(sink, [&](auto& j) { j.value(ULLONG_MAX); });
  }
}

TEST(JsonWriterDifferential, StringsCoverEveryByte) {
  std::vector<std::string> strings = {"", "plain", "a\"b\\c\nd\re\tf",
                                      "\x7f\x80\xff", "caf\xc3\xa9"};
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) {
    strings.emplace_back(1, static_cast<char>(b));
    all_bytes.push_back(static_cast<char>(b));
  }
  strings.push_back(all_bytes);
  // Random mixes, mostly printable with escapes and high bytes among them:
  // runs of every length between the bytes that must be escaped.
  Xoshiro256StarStar rng(0x737472696e6773ULL);
  for (int i = 0; i < 2000; ++i) {
    std::string s(static_cast<std::size_t>(rng.uniform_int(0, 80)), ' ');
    const double escapes = rng.uniform01() * 0.5;
    for (char& c : s) {
      c = rng.bernoulli(escapes) ? static_cast<char>(rng.uniform_int(0, 255))
                                 : static_cast<char>(rng.uniform_int(0x20, 0x7e));
    }
    strings.push_back(std::move(s));
  }
  for (Sink sink : kSinks) {
    expect_oracle_bytes(sink, [&](auto& j) {
      j.begin_object();
      for (std::size_t i = 0; i < strings.size(); ++i) {
        j.key(strings[i]);
        j.value(strings[strings.size() - 1 - i]);
      }
      j.end_object();
    });
    for (const std::string& s : strings) {
      expect_oracle_bytes(sink, [&](auto& j) { j.value(s); });
      if (::testing::Test::HasFailure()) return;
    }
  }
}

/// A random value: a scalar of each kind, a raw() sub-document, or an
/// array or object of random values, nested at most `depth` deeper. The
/// same seed makes the same calls on any writer.
template <typename W>
void random_value(W& j, Xoshiro256StarStar& rng, int depth) {
  const int kind = rng.uniform_int(0, depth > 0 ? 9 : 7);
  switch (kind) {
    case 0: j.value(from_bits(rng())); break;
    case 1: j.value(rng.uniform_real(-1e6, 1e6)); break;
    case 2: j.value(static_cast<long long>(rng())); break;
    case 3: j.value(static_cast<unsigned long long>(rng())); break;
    case 4: j.value(rng.bernoulli(0.5)); break;
    case 5: j.null(); break;
    case 6: {
      std::string s(static_cast<std::size_t>(rng.uniform_int(0, 12)), 'x');
      for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
      j.value(s);
      break;
    }
    case 7: j.raw(R"({"raw":[1,2.5,"\u0001",null]})"); break;
    case 8: {
      j.begin_array();
      const int n = rng.uniform_int(0, 4);
      for (int i = 0; i < n; ++i) random_value(j, rng, depth - 1);
      j.end_array();
      break;
    }
    default: {
      j.begin_object();
      const int n = rng.uniform_int(0, 4);
      for (int i = 0; i < n; ++i) {
        j.key("k" + std::to_string(i) + (rng.bernoulli(0.2) ? "\"\n" : ""));
        random_value(j, rng, depth - 1);
      }
      j.end_object();
    }
  }
}

/// `levels` arrays and objects, alternating, around one value: deeper than
/// the writer's inline nesting stack.
template <typename W>
void deep_document(W& j, int levels) {
  for (int level = 0; level < levels; ++level) {
    if (level % 2 == 0) {
      j.begin_array();
      j.value(level);
    } else {
      j.begin_object();
      j.key("level");
    }
  }
  j.raw("{}");
  for (int level = levels - 1; level >= 0; --level) {
    if (level % 2 == 0) {
      j.end_array();
    } else {
      j.end_object();
    }
  }
}

TEST(JsonWriterDifferential, NestedDocumentsWithRaw) {
  proptest::run_cases(0x6e6573746564ULL, 200, [](Xoshiro256StarStar& rng) {
    const std::uint64_t seed = rng();
    const int depth = rng.uniform_int(0, 24);
    for (Sink sink : kSinks) {
      expect_oracle_bytes(sink, [&](auto& j) {
        Xoshiro256StarStar calls(seed);
        random_value(j, calls, depth);
      });
    }
  });
  for (Sink sink : kSinks) {
    for (int levels : {1, 15, 16, 17, 33, 300}) {
      expect_oracle_bytes(sink, [&](auto& j) { deep_document(j, levels); });
    }
  }
}

TEST(JsonWriterDifferential, MisuseThrowsInvalidArgument) {
  // Each misuse throws from both writers at the same call, and the bytes
  // written before it (flushed by the stream adapter's destructor) match.
  const auto expect_misuse = [](Sink sink, auto&& build) {
    expect_oracle_bytes(sink, [&](auto& j) {
      EXPECT_THROW(build(j), InvalidArgument);
      EXPECT_FALSE(j.complete());
    });
  };
  for (Sink sink : kSinks) {
    expect_misuse(sink, [](auto& j) { j.key("k"); });
    expect_misuse(sink, [](auto& j) { j.end_object(); });
    expect_misuse(sink, [](auto& j) { j.end_array(); });
    expect_misuse(sink, [](auto& j) {
      j.begin_object();
      j.value(1);
    });
    expect_misuse(sink, [](auto& j) {
      j.begin_object();
      j.field("a", 1);
      j.key("b");
      j.key("c");
    });
    expect_misuse(sink, [](auto& j) {
      j.begin_object();
      j.key("a");
      j.end_object();
    });
    expect_misuse(sink, [](auto& j) {
      j.begin_array();
      j.value("x");
      j.key("k");
    });
    expect_misuse(sink, [](auto& j) {
      j.begin_array();
      j.end_object();
    });
    expect_misuse(sink, [](auto& j) {
      j.begin_object();
      j.end_array();
    });
    // Past the inline nesting stack.
    expect_misuse(sink, [](auto& j) {
      for (int i = 0; i < 40; ++i) j.begin_array();
      j.end_object();
    });
    // Two roots: complete() is true after the first, so the misuse runs
    // outside expect_misuse's complete() check.
    expect_oracle_bytes(sink, [](auto& j) {
      j.value(1);
      EXPECT_THROW(j.value(2), InvalidArgument);
      EXPECT_THROW(j.begin_object(), InvalidArgument);
    });
    expect_oracle_bytes(sink, [](auto& j) {
      j.begin_object();
      j.end_object();
      EXPECT_THROW(j.begin_array(), InvalidArgument);
      EXPECT_THROW(j.key("k"), InvalidArgument);
      EXPECT_THROW(j.end_object(), InvalidArgument);
    });
  }
}

TEST(JsonWriterDifferential, StreamAdapterWritesInOrder) {
  // A document several times the adapter's buffer: the stream receives a
  // prefix of the oracle's bytes while it is open, all of them once the
  // root closes, and nothing more from the destructor.
  std::ostringstream expected;
  std::ostringstream actual;
  oracle::JsonWriter o(expected);
  {
    JsonWriter j(actual);
    o.begin_array();
    j.begin_array();
    const std::string chunk(100, 'x');
    while (expected.str().size() < 3 * JsonWriter::kStreamFlushBytes) {
      o.value(chunk);
      j.value(chunk);
      const std::string written = actual.str();
      ASSERT_EQ(written, expected.str().substr(0, written.size()));
      ASSERT_LT(expected.str().size() - written.size(),
                JsonWriter::kStreamFlushBytes);
    }
    EXPECT_GT(actual.str().size(), 2 * JsonWriter::kStreamFlushBytes);
    o.end_array();
    j.end_array();
    ASSERT_TRUE(j.complete());
    EXPECT_EQ(actual.str(), expected.str());
  }
  EXPECT_EQ(actual.str(), expected.str());
}

}  // namespace
}  // namespace cwgl::util

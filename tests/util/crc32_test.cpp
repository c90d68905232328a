#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "support/crc32_oracle.hpp"

namespace cwgl::util {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The CRC-32/ISO-HDLC check value every implementation must reproduce.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalUpdateMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = kCrc32Init;
    crc = crc32_update(crc, data.data(), split);
    crc = crc32_update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc32_finish(crc), crc32(data)) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data = "cwgl model snapshot payload";
  const std::uint32_t clean = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(crc32(data), clean) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

/// `size` bytes drawn from `rng`, every byte value possible.
std::vector<unsigned char> random_bytes(std::mt19937_64& rng, std::size_t size) {
  std::vector<unsigned char> out(size);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

// Every length from 0 to 64 covers the 8-byte loop, the byte tail and
// both together, at every start offset within an 8-byte word.
TEST(Crc32Test, SliceBy8MatchesBytewiseAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(26);
  const std::vector<unsigned char> data = random_bytes(rng, 64 + 8);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      for (const std::uint32_t seed : {kCrc32Init, 0u, 0x12345678u}) {
        EXPECT_EQ(crc32_update(seed, data.data() + start, len),
                  oracle::crc32_update(seed, data.data() + start, len))
            << "start " << start << " length " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32Test, SplitUpdatesMatchBytewise) {
  std::mt19937_64 rng(7);
  const std::vector<unsigned char> data = random_bytes(rng, 257);
  const std::uint32_t whole =
      oracle::crc32_update(kCrc32Init, data.data(), data.size());
  for (std::size_t a = 0; a <= data.size(); a += 3) {
    for (std::size_t b = a; b <= data.size(); b += 29) {
      std::uint32_t crc = kCrc32Init;
      crc = crc32_update(crc, data.data(), a);
      crc = crc32_update(crc, data.data() + a, b - a);
      crc = crc32_update(crc, data.data() + b, data.size() - b);
      EXPECT_EQ(crc, whole) << "splits at " << a << " and " << b;
    }
  }
}

TEST(Crc32Test, RandomBuffersMatchBytewise) {
  std::mt19937_64 rng(2021);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = rng() % 5000;
    const std::vector<unsigned char> data = random_bytes(rng, size);
    const std::size_t start = size == 0 ? 0 : rng() % (size + 1);
    const auto seed = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(crc32_update(seed, data.data() + start, size - start),
              oracle::crc32_update(seed, data.data() + start, size - start))
        << "round " << round;
  }
}

}  // namespace
}  // namespace cwgl::util

#pragma once

// Test oracle for util::crc32_update: the bytewise table loop it replaced,
// one table lookup per byte. tests/util/crc32_test.cpp holds the
// slice-by-8 implementation to it.

#include <array>
#include <cstddef>
#include <cstdint>

namespace cwgl::util::oracle {

inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t size) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace cwgl::util::oracle

#pragma once

// Shared by the golden-document tests: read a committed document under
// tests/data/golden/ and compare a rebuilt one with it byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>

namespace cwgl::golden {

/// The committed document tests/data/golden/`name`.
inline std::string committed(const std::string& name) {
  std::ifstream in(std::string(CWGL_TEST_DATA_DIR) + "/golden/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Byte comparison that reports where the documents part, with context,
/// instead of dumping two 150 KB strings.
inline void expect_identical(const std::string& expected,
                             const std::string& actual) {
  if (expected == actual) return;
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(expected.begin(), expected.end(), actual.begin(),
                    actual.end())
          .first -
      expected.begin());
  const std::size_t from = at < 80 ? 0 : at - 80;
  ADD_FAILURE() << "documents differ at byte " << at << " (sizes "
                << expected.size() << " vs " << actual.size() << ")\n"
                << "  golden: ..." << expected.substr(from, 160) << "\n"
                << "  actual: ..." << actual.substr(from, 160);
}

}  // namespace cwgl::golden

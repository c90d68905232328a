// Every row-scale variant this CPU can run, not only the one the dispatcher
// picks, against the plain loop it replaces: the same bits at every length
// (the vector body, its scalar or masked tail, and the empty row), from
// every 8-byte start within a 64-byte line, for the shrink factors
// 1 - 1/n that mini-batch k-means applies (n up to 200 batches x 256
// draws), with the entries around the row left untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cluster/row_scale.hpp"
#include "util/rng.hpp"

namespace cwgl::cluster {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Values a center row holds, and the edge cases of a product: zeros of
/// both signs, subnormals, and magnitudes far from 1.
std::vector<double> row_values(std::size_t n, util::Xoshiro256StarStar& rng) {
  std::vector<double> values(n);
  for (double& x : values) {
    switch (rng.uniform_u64(0, 7)) {
      case 0: x = 0.0; break;
      case 1: x = -0.0; break;
      case 2: x = std::numeric_limits<double>::denorm_min() *
                  static_cast<double>(rng.uniform_u64(1, 1000)); break;
      case 3: x = rng.uniform_real(-1e300, 1e300); break;
      default: x = rng.uniform_real(-1.0, 1.0); break;
    }
  }
  return values;
}

std::vector<double> shrink_factors() {
  std::vector<double> factors;
  for (std::size_t n = 1; n <= 100; ++n) {
    factors.push_back(1.0 - 1.0 / static_cast<double>(n));
  }
  for (std::size_t n = 101; n < 51200; n = n * 5 / 4) {
    factors.push_back(1.0 - 1.0 / static_cast<double>(n));
  }
  for (std::size_t n : {255u, 256u, 257u, 51199u, 51200u}) {
    factors.push_back(1.0 - 1.0 / static_cast<double>(n));
  }
  return factors;
}

TEST(RowScale, EveryVariantMatchesThePlainLoopBitForBit) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 70; ++n) lengths.push_back(n);
  lengths.push_back(407);
  lengths.push_back(862);
  const std::vector<double> factors = shrink_factors();
  constexpr std::size_t kLine = 8;  // doubles per 64-byte line
  constexpr double kGuard = 12345.678;

  // A 64-byte-aligned buffer with a guard line on each side of the row.
  alignas(64) double buffer[kLine + 862 + 2 * kLine];
  util::Xoshiro256StarStar rng(20261020);
  for (const RowScaleKernel& kernel : row_scale_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (std::size_t n : lengths) {
      const std::vector<double> values = row_values(n, rng);
      for (std::size_t offset = 0; offset < kLine; ++offset) {
        std::fill(std::begin(buffer), std::end(buffer), kGuard);
        double* row = buffer + kLine + offset;
        for (const double factor : factors) {
          std::copy(values.begin(), values.end(), row);
          kernel.scale(row, n, factor);
          for (std::size_t i = 0; i < n; ++i) {
            double expected = values[i];
            expected *= factor;
            ASSERT_TRUE(same_bits(row[i], expected))
                << "n=" << n << " offset=" << offset << " factor=" << factor
                << " i=" << i << ": " << row[i] << " vs " << expected;
          }
          // No variant reaches further than one vector past either end.
          for (std::size_t i = 0; i < kLine; ++i) {
            ASSERT_EQ(row[-1 - static_cast<std::ptrdiff_t>(i)], kGuard)
                << "before the row, n=" << n;
            ASSERT_EQ(row[n + i], kGuard) << "after the row, n=" << n;
          }
        }
      }
    }
  }
}

TEST(RowScale, DispatchPicksTheWidestVariant) {
  const auto kernels = row_scale_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(&row_scale_kernel(), &kernels.front());
  std::set<std::string> names;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_TRUE(names.insert(kernels[i].name).second) << kernels[i].name;
    if (i > 0) {
      EXPECT_LT(kernels[i].vector_bytes, kernels[i - 1].vector_bytes);
    }
  }
#if defined(__x86_64__)
  EXPECT_EQ(std::string(kernels.back().name), "sse2");
  EXPECT_EQ(kernels.back().vector_bytes, 16u);
#endif
}

}  // namespace
}  // namespace cwgl::cluster

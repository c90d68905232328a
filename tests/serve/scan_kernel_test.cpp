// Every scan-kernel variant this CPU can run, not only the one the
// dispatcher picks, against the plain loops written out here: the same bits
// at every length (the vector body, its scalar or masked tail, and the
// empty range), from every 8-byte start within a 64-byte line, with the
// entries around the range left untouched. The classifier runs the filter
// once per cluster, so a cluster may begin at any lane; the partition test
// runs it over ranges that begin at every lane offset. The project builds
// with -ffp-contract=off, so the plain loops round each multiply and add on
// its own, as the kernels must.

#include "serve/scan_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cwgl::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kLine = 8;  // doubles per 64-byte line
constexpr std::size_t kLongest = 407;
constexpr double kGuard = 12345.678;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Values a scan meets: accumulators, feature values, inverse norms and
/// their products are never negative. Zeros, subnormals, magnitudes far
/// from 1 and values that are not integers (sqrt of an iteration weight).
std::vector<double> scan_values(std::size_t n, util::Xoshiro256StarStar& rng) {
  std::vector<double> values(n);
  for (double& x : values) {
    switch (rng.uniform_u64(0, 7)) {
      case 0: x = 0.0; break;
      case 1: x = std::numeric_limits<double>::denorm_min() *
                  static_cast<double>(rng.uniform_u64(1, 1000)); break;
      case 2: x = rng.uniform_real(0.0, 1e150); break;
      case 3: x = std::sqrt(0.3) * static_cast<double>(rng.uniform_u64(1, 9));
              break;
      default: x = rng.uniform_real(0.0, 4.0); break;
    }
  }
  return values;
}

std::vector<std::size_t> lengths() {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n <= 70; ++n) out.push_back(n);
  out.push_back(kLongest);
  return out;
}

/// A 64-byte-aligned buffer with a guard line on each side of the range.
struct Guarded {
  alignas(64) double buffer[kLine + kLongest + 2 * kLine];

  double* at(std::size_t offset) {
    std::fill(std::begin(buffer), std::end(buffer), kGuard);
    return buffer + kLine + offset;
  }

  /// No variant reaches past either end of an n-double range at `row`.
  static void expect_guards(const double* row, std::size_t n) {
    for (std::size_t i = 0; i < kLine; ++i) {
      ASSERT_EQ(row[-1 - static_cast<std::ptrdiff_t>(i)], kGuard)
          << "before the range, n=" << n;
      ASSERT_EQ(row[n + i], kGuard) << "after the range, n=" << n;
    }
  }
};

TEST(ScanKernel, AddColumnMatchesThePlainLoopBitForBit) {
  util::Xoshiro256StarStar rng(20261020);
  const std::vector<double> scales = {std::sqrt(1.7), 3.0, 0.1, 0.0, 1e-300};
  Guarded acc;
  Guarded column_line;
  for (const ScanKernel& kernel : scan_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (const std::size_t n : lengths()) {
      const std::vector<double> start = scan_values(n, rng);
      const std::vector<double> data = scan_values(n, rng);
      for (std::size_t offset = 0; offset < kLine; ++offset) {
        double* column = column_line.at(kLine - 1 - offset);
        std::copy(data.begin(), data.end(), column);
        for (const double v : scales) {
          double* row = acc.at(offset);
          std::copy(start.begin(), start.end(), row);
          kernel.add_column(row, column, v, n);
          for (std::size_t i = 0; i < n; ++i) {
            const double expected = start[i] + v * data[i];
            ASSERT_TRUE(same_bits(row[i], expected))
                << "n=" << n << " offset=" << offset << " v=" << v
                << " i=" << i << ": " << row[i] << " vs " << expected;
          }
          Guarded::expect_guards(row, n);
        }
        Guarded::expect_guards(column, n);
      }
    }
  }
}

/// The plain definition every variant must reproduce: the largest
/// estimate, then every position at or above largest * margin.
struct Filtered {
  double top = -kInf;
  std::vector<std::uint32_t> hits;
};

Filtered two_pass(const double* dots, const double* scale, std::size_t n,
                  double margin) {
  Filtered out;
  for (std::size_t i = 0; i < n; ++i) {
    out.top = std::max(out.top, dots[i] * scale[i]);
  }
  const double threshold = out.top * margin;
  for (std::size_t i = 0; i < n; ++i) {
    if (dots[i] * scale[i] >= threshold) {
      out.hits.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return out;
}

void expect_filter_matches(const ScanKernel& kernel, const double* dots,
                           const double* scale, std::size_t n, double margin,
                           const std::string& where) {
  std::vector<std::uint32_t> hits(n + 1, 0xdeadbeef);
  double top = 0.0;
  const std::size_t kept =
      kernel.filter(dots, scale, n, margin, hits.data(), top);
  const Filtered want = two_pass(dots, scale, n, margin);
  ASSERT_TRUE(same_bits(top, want.top))
      << where << ": top " << top << " vs " << want.top;
  ASSERT_EQ(std::vector<std::uint32_t>(hits.begin(), hits.begin() + kept),
            want.hits)
      << where;
  ASSERT_EQ(hits[n], 0xdeadbeef) << where << ": wrote past n hits";
}

/// Estimate orders: random, ascending (the largest in the last lane),
/// descending (in the first), all equal (every lane a tie) and near-ties
/// one ulp apart.
std::vector<std::vector<double>> estimate_orders(
    std::size_t n, util::Xoshiro256StarStar& rng) {
  std::vector<std::vector<double>> orders;
  orders.push_back(scan_values(n, rng));
  std::vector<double> ascending = scan_values(n, rng);
  std::sort(ascending.begin(), ascending.end());
  orders.push_back(ascending);
  orders.emplace_back(ascending.rbegin(), ascending.rend());
  orders.emplace_back(n, 2.5);
  std::vector<double> near(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform_u64(0, 1) == 0) near[i] = std::nextafter(1.0, 2.0);
    if (rng.uniform_u64(0, 3) == 0) near[i] = std::nextafter(1.0, 0.0);
  }
  orders.push_back(near);
  return orders;
}

TEST(ScanKernel, FilterMatchesTheTwoPassLoop) {
  util::Xoshiro256StarStar rng(7);
  Guarded dot_line;
  Guarded scale_line;
  for (const ScanKernel& kernel : scan_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (const std::size_t n : lengths()) {
      for (const std::vector<double>& dots : estimate_orders(n, rng)) {
        const std::vector<double> ones(n, 1.0);
        const std::vector<double> scale = scan_values(n, rng);
        for (std::size_t offset = 0; offset < kLine; ++offset) {
          double* d = dot_line.at(offset);
          double* s = scale_line.at(kLine - 1 - offset);
          std::copy(dots.begin(), dots.end(), d);
          for (const auto* factors : {&ones, &scale}) {
            std::copy(factors->begin(), factors->end(), s);
            for (const double margin : {1.0, 1.0 - 1e-12, 0.5}) {
              expect_filter_matches(
                  kernel, d, s, n, margin,
                  "n=" + std::to_string(n) + " offset=" +
                      std::to_string(offset) +
                      " margin=" + std::to_string(margin));
            }
          }
          Guarded::expect_guards(d, n);
        }
      }
    }
  }
}

/// The largest value in every lane of the body and of the tail in turn:
/// a variant that drops a lane, or the masked tail, misses it.
TEST(ScanKernel, FilterFindsTheLargestInEveryLane) {
  std::vector<std::uint32_t> hits(70);
  for (const ScanKernel& kernel : scan_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (std::size_t n = 1; n <= 70; ++n) {
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<double> dots(n, 1.0);
        const std::vector<double> scale(n, 0.5);
        dots[at] = 3.0;
        double top = 0.0;
        const std::size_t kept =
            kernel.filter(dots.data(), scale.data(), n, 1.0 - 1e-12,
                          hits.data(), top);
        ASSERT_EQ(top, 1.5) << "n=" << n << " at=" << at;
        ASSERT_EQ(kept, 1u) << "n=" << n << " at=" << at;
        ASSERT_EQ(hits[0], at) << "n=" << n;
      }
    }
  }
}

/// The classifier's use: one filter call per cluster over a partition of
/// the representatives, so clusters begin at every lane offset and end in
/// every tail.
TEST(ScanKernel, PerClusterFiltersMatchAtEveryBoundary) {
  util::Xoshiro256StarStar rng(5);
  const std::size_t reps = 517;
  const std::vector<double> dots = scan_values(reps, rng);
  const std::vector<double> scale = scan_values(reps, rng);
  std::vector<std::size_t> begins = {0};
  for (std::size_t size = 1; begins.back() + size < reps;
       size = size % 19 + 1) {
    begins.push_back(begins.back() + size);
  }
  begins.push_back(reps);
  std::set<std::size_t> offsets;
  for (const std::size_t b : begins) offsets.insert(b % kLine);
  ASSERT_EQ(offsets.size(), kLine);
  for (const ScanKernel& kernel : scan_kernels()) {
    SCOPED_TRACE(kernel.name);
    for (std::size_t c = 0; c + 1 < begins.size(); ++c) {
      expect_filter_matches(kernel, dots.data() + begins[c],
                            scale.data() + begins[c],
                            begins[c + 1] - begins[c], 1.0 - 1e-12,
                            "cluster at " + std::to_string(begins[c]));
    }
  }
}

TEST(ScanKernel, DispatchPicksTheWidestVariant) {
  const auto kernels = scan_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(&scan_kernel(), &kernels.front());
  std::vector<std::string> names;
  for (const ScanKernel& kernel : kernels) names.emplace_back(kernel.name);
#if defined(__x86_64__)
  // AVX2 where the CPU has it, then SSE2, which every x86-64 CPU has.
  EXPECT_EQ(names.back(), "sse2");
  if (names.size() == 2) {
    EXPECT_EQ(names.front(), "avx2");
  }
  EXPECT_LE(names.size(), 2u);
#else
  EXPECT_EQ(names, std::vector<std::string>{"scalar"});
#endif
}

}  // namespace
}  // namespace cwgl::serve

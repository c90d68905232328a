#include "serve/scan_kernel.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "util/cpu.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define CWGL_SCAN_X86 1
#include <immintrin.h>
#endif

namespace cwgl::serve {

namespace {

constexpr double kNoTop = -std::numeric_limits<double>::infinity();

/// add_column over [from, n): the plain loop, and the vector variants'
/// scalar tails.
void add_column_from(double* acc, const double* column, double v,
                     std::size_t from, std::size_t n) noexcept {
  for (std::size_t i = from; i < n; ++i) acc[i] += v * column[i];
}

/// Appends base + the position of every set bit of `mask`, lowest first.
std::size_t append_bits(unsigned mask, std::size_t base, std::uint32_t* hits,
                        std::size_t count) noexcept {
  while (mask != 0) {
    hits[count++] = static_cast<std::uint32_t>(base + std::countr_zero(mask));
    mask &= mask - 1;
  }
  return count;
}

/// The filter's scalar steps over [from, n): the largest estimate, and the
/// positions at or above a threshold appended after `count` hits.
double largest_from(const double* dots, const double* scale, std::size_t from,
                    std::size_t n, double top) noexcept {
  for (std::size_t i = from; i < n; ++i) {
    top = std::max(top, dots[i] * scale[i]);
  }
  return top;
}

std::size_t select_from(const double* dots, const double* scale,
                        std::size_t from, std::size_t n, double threshold,
                        std::uint32_t* hits, std::size_t count) noexcept {
  for (std::size_t i = from; i < n; ++i) {
    if (dots[i] * scale[i] >= threshold) {
      hits[count++] = static_cast<std::uint32_t>(i);
    }
  }
  return count;
}

void add_column_plain(double* acc, const double* column, double v,
                      std::size_t n) noexcept {
  add_column_from(acc, column, v, 0, n);
}

std::size_t filter_plain(const double* dots, const double* scale,
                         std::size_t n, double margin, std::uint32_t* hits,
                         double& top) noexcept {
  top = largest_from(dots, scale, 0, n, kNoTop);
  return select_from(dots, scale, 0, n, top * margin, hits, 0);
}

#if defined(CWGL_SCAN_X86)

// The AVX2 variant is compiled for its ISA whatever the build's -march, and
// runs only where util::vector_isas() found the CPU support.

void add_column_sse2(double* acc, const double* column, double v,
                     std::size_t n) noexcept {
  const __m128d f = _mm_set1_pd(v);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d product = _mm_mul_pd(f, _mm_loadu_pd(column + i));
    _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i), product));
  }
  add_column_from(acc, column, v, i, n);
}

// The largest estimate takes four independent running maxima, so the
// loop is not one chain of dependent max instructions; max is exact, so
// the lanes may meet in any order.

std::size_t filter_sse2(const double* dots, const double* scale,
                        std::size_t n, double margin, std::uint32_t* hits,
                        double& top) noexcept {
  const auto estimate = [&](std::size_t i) {
    return _mm_mul_pd(_mm_loadu_pd(dots + i), _mm_loadu_pd(scale + i));
  };
  __m128d m[4];
  for (__m128d& x : m) x = _mm_set1_pd(kNoTop);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t j = 0; j < 4; ++j) {
      m[j] = _mm_max_pd(m[j], estimate(i + 2 * j));
    }
  }
  for (; i + 2 <= n; i += 2) m[0] = _mm_max_pd(m[0], estimate(i));
  const __m128d pair =
      _mm_max_pd(_mm_max_pd(m[0], m[1]), _mm_max_pd(m[2], m[3]));
  top = std::max(_mm_cvtsd_f64(pair),
                 _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair)));
  top = largest_from(dots, scale, i, n, top);

  const double threshold = top * margin;
  const __m128d t = _mm_set1_pd(threshold);
  std::size_t count = 0;
  for (i = 0; i + 2 <= n; i += 2) {
    const int mask = _mm_movemask_pd(_mm_cmpge_pd(estimate(i), t));
    count = append_bits(static_cast<unsigned>(mask), i, hits, count);
  }
  return select_from(dots, scale, i, n, threshold, hits, count);
}

__attribute__((target("avx2"))) void add_column_avx2(double* acc,
                                                     const double* column,
                                                     double v,
                                                     std::size_t n) noexcept {
  const __m256d f = _mm256_set1_pd(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d product = _mm256_mul_pd(f, _mm256_loadu_pd(column + i));
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), product));
  }
  add_column_from(acc, column, v, i, n);
}

__attribute__((target("avx2"))) std::size_t filter_avx2(
    const double* dots, const double* scale, std::size_t n, double margin,
    std::uint32_t* hits, double& top) noexcept {
  const auto estimate = [&](std::size_t i) __attribute__((target("avx2"))) {
    return _mm256_mul_pd(_mm256_loadu_pd(dots + i), _mm256_loadu_pd(scale + i));
  };
  __m256d m[4];
  for (__m256d& x : m) x = _mm256_set1_pd(kNoTop);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t j = 0; j < 4; ++j) {
      m[j] = _mm256_max_pd(m[j], estimate(i + 4 * j));
    }
  }
  for (; i + 4 <= n; i += 4) m[0] = _mm256_max_pd(m[0], estimate(i));
  const __m256d quad =
      _mm256_max_pd(_mm256_max_pd(m[0], m[1]), _mm256_max_pd(m[2], m[3]));
  const __m128d pair = _mm_max_pd(_mm256_castpd256_pd128(quad),
                                  _mm256_extractf128_pd(quad, 1));
  top = std::max(_mm_cvtsd_f64(pair),
                 _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair)));
  top = largest_from(dots, scale, i, n, top);

  const double threshold = top * margin;
  const __m256d t = _mm256_set1_pd(threshold);
  std::size_t count = 0;
  for (i = 0; i + 4 <= n; i += 4) {
    const int mask =
        _mm256_movemask_pd(_mm256_cmp_pd(estimate(i), t, _CMP_GE_OQ));
    count = append_bits(static_cast<unsigned>(mask), i, hits, count);
  }
  return select_from(dots, scale, i, n, threshold, hits, count);
}

#endif

std::vector<ScanKernel> supported_kernels() {
  std::vector<ScanKernel> kernels;
#if defined(CWGL_SCAN_X86)
  for (const util::VectorIsa isa : util::vector_isas()) {
    if (isa == util::VectorIsa::kAvx2) {
      kernels.push_back({"avx2", add_column_avx2, filter_avx2});
    } else if (isa == util::VectorIsa::kSse2) {
      kernels.push_back({"sse2", add_column_sse2, filter_sse2});
    }
  }
#endif
  if (kernels.empty()) {
    kernels.push_back({"scalar", add_column_plain, filter_plain});
  }
  return kernels;
}

}  // namespace

std::span<const ScanKernel> scan_kernels() {
  static const std::vector<ScanKernel> kernels = supported_kernels();
  return kernels;
}

const ScanKernel& scan_kernel() { return scan_kernels().front(); }

}  // namespace cwgl::serve

#include "cluster/row_scale.hpp"

#include <vector>

#include "util/cpu.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define CWGL_ROW_SCALE_X86 1
#include <immintrin.h>
#endif

namespace cwgl::cluster {

namespace {

#if defined(CWGL_ROW_SCALE_X86)

// The wider variants are compiled for their ISA whatever the build's
// -march, and run only where util::vector_isas() found the CPU support.

void scale_sse2(double* row, std::size_t n, double factor) noexcept {
  const __m128d f = _mm_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(row + i, _mm_mul_pd(_mm_loadu_pd(row + i), f));
  }
  if (i < n) row[i] *= factor;
}

__attribute__((target("avx2"))) void scale_avx2(double* row, std::size_t n,
                                                double factor) noexcept {
  const __m256d f = _mm256_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(row + i, _mm256_mul_pd(_mm256_loadu_pd(row + i), f));
  }
  for (; i < n; ++i) row[i] *= factor;
}

__attribute__((target("avx512f"))) void scale_avx512f(double* row,
                                                      std::size_t n,
                                                      double factor) noexcept {
  const __m512d f = _mm512_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(row + i, _mm512_mul_pd(_mm512_loadu_pd(row + i), f));
  }
  if (i < n) {
    // The last 1-7 entries under a mask: lanes past the row are neither
    // read nor written.
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(
        row + i, tail, _mm512_mul_pd(_mm512_maskz_loadu_pd(tail, row + i), f));
  }
}

std::vector<RowScaleKernel> supported_kernels() {
  std::vector<RowScaleKernel> kernels;
  for (const util::VectorIsa isa : util::vector_isas()) {
    switch (isa) {
      case util::VectorIsa::kAvx512f:
        kernels.push_back({"avx512f", 64, scale_avx512f});
        break;
      case util::VectorIsa::kAvx2:
        kernels.push_back({"avx2", 32, scale_avx2});
        break;
      case util::VectorIsa::kSse2:
        kernels.push_back({"sse2", 16, scale_sse2});
        break;
    }
  }
  return kernels;
}

#else

void scale_plain(double* row, std::size_t n, double factor) noexcept {
  for (std::size_t i = 0; i < n; ++i) row[i] *= factor;
}

std::vector<RowScaleKernel> supported_kernels() {
  return {{"scalar", sizeof(double), scale_plain}};
}

#endif

}  // namespace

std::span<const RowScaleKernel> row_scale_kernels() {
  static const std::vector<RowScaleKernel> kernels = supported_kernels();
  return kernels;
}

const RowScaleKernel& row_scale_kernel() { return row_scale_kernels().front(); }

}  // namespace cwgl::cluster

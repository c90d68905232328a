#pragma once

#include <cstddef>
#include <span>

namespace cwgl::cluster {

/// One implementation of `row[i] *= factor` over a contiguous row of
/// doubles: the dense center shrink of every mini-batch k-means step.
/// Each entry is multiplied once, as one IEEE double product, so every
/// variant gives the same bits; they differ only in how many entries one
/// instruction covers. Rows may start at any 8-byte boundary.
struct RowScaleKernel {
  const char* name;          ///< "avx512f", "avx2", "sse2" or "scalar"
  std::size_t vector_bytes;  ///< bytes one multiply covers
  void (*scale)(double* row, std::size_t n, double factor) noexcept;
};

/// Every variant this CPU can run, widest first. On x86-64 these are
/// AVX-512F and AVX2 where the CPU (and OS) supports them, then SSE2,
/// which every x86-64 CPU has; other targets get the plain loop.
std::span<const RowScaleKernel> row_scale_kernels();

/// The widest variant this CPU can run, chosen once per process.
const RowScaleKernel& row_scale_kernel();

}  // namespace cwgl::cluster

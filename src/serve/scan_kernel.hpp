#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace cwgl::serve {

/// One implementation of the two vector loops of a classify scan
/// (serve::Classifier; DESIGN.md §12 "Representative index"). Each lane is
/// one IEEE double multiply, add or compare, and nothing is fused: the
/// project builds with -ffp-contract=off. So every variant gives the plain
/// loop's bits; they differ only in how many doubles one instruction
/// covers. Arrays may start at any 8-byte boundary, and no variant reads or
/// writes past `n`.
struct ScanKernel {
  const char* name;  ///< "avx2", "sse2" or "scalar"

  /// For i < n: acc[i] += v * column[i], the product rounded before it is
  /// added. This is one dense feature column added to every
  /// representative's accumulator.
  void (*add_column)(double* acc, const double* column, double v,
                     std::size_t n) noexcept;

  /// The filter over one cluster of n representatives. With estimates
  /// a[i] = dots[i] * scale[i] (never NaN in a scan), sets `top` to the
  /// largest (-infinity when n == 0), writes every i with
  /// a[i] >= top * margin to `hits`, ascending, and returns how many there
  /// are. Two passes, the second recomputing each product, so nothing is
  /// stored but the hits.
  std::size_t (*filter)(const double* dots, const double* scale,
                        std::size_t n, double margin, std::uint32_t* hits,
                        double& top) noexcept;
};

/// Every variant this CPU can run, widest first: AVX2 where
/// util::vector_isas() found it, then SSE2 on x86-64; other targets get the
/// plain loops. There is no AVX-512F variant: it saved about 3% of a
/// predict's worker CPU over AVX2, inside the run-to-run spread (DESIGN.md
/// §12).
std::span<const ScanKernel> scan_kernels();

/// The widest variant this CPU can run, chosen once per process.
const ScanKernel& scan_kernel();

}  // namespace cwgl::serve

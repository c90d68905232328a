#include "util/cpu.hpp"

#include <vector>

namespace cwgl::util {

namespace {

std::vector<VectorIsa> probe() {
  std::vector<VectorIsa> isas;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) isas.push_back(VectorIsa::kAvx512f);
  if (__builtin_cpu_supports("avx2")) isas.push_back(VectorIsa::kAvx2);
  isas.push_back(VectorIsa::kSse2);
#endif
  return isas;
}

}  // namespace

std::span<const VectorIsa> vector_isas() {
  static const std::vector<VectorIsa> isas = probe();
  return isas;
}

}  // namespace cwgl::util

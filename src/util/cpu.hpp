#pragma once

#include <span>

namespace cwgl::util {

/// The x86-64 vector instruction sets that kernels here keep a variant for.
enum class VectorIsa { kAvx512f, kAvx2, kSse2 };

/// The vector instruction sets this CPU (and OS) can run, widest first,
/// probed once per process. On x86-64 the list ends with SSE2, which every
/// x86-64 CPU has; on other targets it is empty and kernels keep only their
/// plain loop. Every dispatching kernel builds its variant list from this
/// one probe, so they all agree on what the CPU runs.
std::span<const VectorIsa> vector_isas();

}  // namespace cwgl::util

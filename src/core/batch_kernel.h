// Kernel-dispatch selector of the batch/SIMD entry points in core: the
// column fold kernels (columns.h).  kAuto picks the widest instruction set
// the build supports (AVX2, else SSE2, else scalar); kScalar forces the
// portable fallback — differential tests run both and require bit-identical
// output, which is possible because every kernel is integer arithmetic or
// ordered-quiet float compares (no reassociated float accumulation).

#pragma once

#include <cstdint>

namespace vq {

enum class BatchKernel : std::uint8_t { kAuto = 0, kScalar = 1 };

}  // namespace vq

// Transparent-huge-page advice for large, freshly reserved buffers.
//
// A whole-trace load writes tens of MB of rows into a buffer it has just
// reserved, and with 4 KiB pages every first touch of that buffer is a page
// fault: at the paper's ~300 M sessions a 36-byte row table faults ~2.6 M
// times.  madvise(MADV_HUGEPAGE) on the buffer lets the kernel back it with
// 2 MiB pages instead (when transparent huge pages are enabled, "always" or
// "madvise"), ~500 times fewer faults.  The advice acts on this process's
// own mapping only and changes no system setting.

#pragma once

#include <cstddef>

namespace vq::detail {

/// Buffers of this many bytes or fewer are not advised: they span at most
/// one aligned 2 MiB page, and a small table gains nothing from it.
inline constexpr std::size_t kHugePageAdviceMinBytes = std::size_t{4} << 20;

/// The huge-page size the advice aligns to.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises the kernel to back the 2 MiB-aligned interior of
/// [data, data + bytes) with transparent huge pages.  Returns the bytes
/// advised: 0 off Linux, for a buffer of kHugePageAdviceMinBytes or less,
/// or when the kernel refuses the advice.  Advice only: the buffer's
/// contents and size never change.
std::size_t advise_huge_pages(const void* data, std::size_t bytes) noexcept;

}  // namespace vq::detail

#include "src/util/huge_pages.h"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace vq::detail {

std::size_t advise_huge_pages(const void* data, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (data == nullptr || bytes <= kHugePageAdviceMinBytes) return 0;
  // madvise takes page-aligned ranges; only whole 2 MiB pages inside the
  // buffer can be huge, so advise exactly those.
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first =
      (begin + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
  const std::uintptr_t last =
      (begin + bytes) & ~(std::uintptr_t{kHugePageBytes} - 1);
  if (last <= first) return 0;
  const std::size_t advised = last - first;
  void* const start =
      static_cast<char*>(const_cast<void*>(data)) + (first - begin);
  return ::madvise(start, advised, MADV_HUGEPAGE) == 0 ? advised : 0;
#else
  (void)data;
  (void)bytes;
  return 0;
#endif
}

}  // namespace vq::detail

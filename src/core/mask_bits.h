// 128-bit bitsets over the 7-dimension subset lattice, shared by the
// fused critical sweep (critical_cluster.cpp) and the incremental delta
// engine (incremental.cpp).  Bit index is the attribute mask value
// (0..127).  Both strategies must apply conditions (a)/(b)/(c) with exactly
// the same bit tricks for their analyses to stay bit-identical, so the
// tricks live here once.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace vq::detail {

/// 128-bit bitset over the subset lattice; bit index is the mask value.
struct MaskBits {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  void set(unsigned m) noexcept {
    (m < 64 ? lo : hi) |= std::uint64_t{1} << (m & 63);
  }
  [[nodiscard]] bool test(unsigned m) const noexcept {
    return ((m < 64 ? lo : hi) >> (m & 63)) & 1u;
  }
  [[nodiscard]] bool any() const noexcept { return (lo | hi) != 0; }

  friend bool operator==(const MaskBits&, const MaskBits&) = default;
};

/// kDimAbsent[d] selects, within one 64-bit word, the mask values whose
/// dimension-d bit is clear. Dimension 6 needs no pattern: its bit weight is
/// 64, so "bit 6 clear" is exactly the lo word.
inline constexpr std::array<std::uint64_t, 6> kDimAbsent = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL};

/// strict[m] = OR over every strict superset s of m of b[s], for all 128
/// masks at once. Two sweeps of seven shifted-OR steps each: the first
/// closes b upward (h[m] = OR over s >= m), the second ORs h over the seven
/// single-dimension extensions of m — every strict superset contains at
/// least one added dimension, so that union is exactly the strict cone.
[[nodiscard]] inline MaskBits strict_superset_or(const MaskBits& b) noexcept {
  MaskBits h = b;
  for (int d = 0; d < 6; ++d) {
    const int k = 1 << d;
    h.lo |= (h.lo >> k) & kDimAbsent[d];
    h.hi |= (h.hi >> k) & kDimAbsent[d];
  }
  h.lo |= h.hi;

  MaskBits strict;
  for (int d = 0; d < 6; ++d) {
    const int k = 1 << d;
    strict.lo |= (h.lo >> k) & kDimAbsent[d];
    strict.hi |= (h.hi >> k) & kDimAbsent[d];
  }
  strict.lo |= h.hi;
  return strict;
}

/// strict[m] = OR over every strict subset s of m of b[s]: the downward
/// mirror of strict_superset_or.  The first sweep closes b downward-to-up
/// (h[m] = OR over s <= m), the second ORs h over the seven
/// single-dimension removals from m.  `b & ~strict_subset_or(b)` keeps the
/// masks of b minimal by inclusion, as filter_minimal does.
[[nodiscard]] inline MaskBits strict_subset_or(const MaskBits& b) noexcept {
  MaskBits h = b;
  for (int d = 0; d < 6; ++d) {
    const int k = 1 << d;
    h.lo |= (h.lo << k) & ~kDimAbsent[d];
    h.hi |= (h.hi << k) & ~kDimAbsent[d];
  }
  h.hi |= h.lo;

  MaskBits strict;
  for (int d = 0; d < 6; ++d) {
    const int k = 1 << d;
    strict.lo |= (h.lo << k) & ~kDimAbsent[d];
    strict.hi |= (h.hi << k) & ~kDimAbsent[d];
  }
  strict.hi |= h.lo;
  return strict;
}

/// Keeps only masks minimal by inclusion ("closest to the root").
inline void filter_minimal(const std::vector<std::uint8_t>& candidates,
                           std::vector<std::uint8_t>& out) {
  out.clear();
  for (const std::uint8_t m : candidates) {
    bool dominated = false;
    for (const std::uint8_t other : candidates) {
      if (other != m && (other & m) == other) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(m);
  }
}

}  // namespace vq::detail

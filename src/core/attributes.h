// Attribute schema for video sessions and the packed 64-bit cluster key.
//
// The paper (§2) annotates every session with seven attributes: ASN, CDN,
// content provider ("Site"), VoD-or-Live, player type, browser, and
// connection type.  A *cluster* is any non-empty subset of the attribute
// dimensions with fixed values (§3.1); the set of clusters forms a subset
// lattice ordered by attribute-set inclusion (Fig. 4).
//
// We pack one cluster into a single uint64_t: a 7-bit presence mask plus a
// fixed-width value field per dimension.  Packing makes lattice aggregation
// (127 cells per session) a stream of integer ops, and makes parent/child
// lattice walks plain bit arithmetic.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/intern.h"

namespace vq {

/// The seven session attribute dimensions (paper §2, "Dataset").
enum class AttrDim : std::uint8_t {
  kSite = 0,      // content provider
  kCdn = 1,       // content delivery network
  kAsn = 2,       // client autonomous system
  kConnType = 3,  // access network type (DSL, fiber, mobile wireless, ...)
  kPlayer = 4,    // player technology (Flash, Silverlight, HTML5, ...)
  kBrowser = 5,   // client browser
  kVodLive = 6,   // VoD vs Live flag
};

inline constexpr int kNumDims = 7;
inline constexpr std::uint8_t kFullMask = (1u << kNumDims) - 1;  // 0b1111111

[[nodiscard]] constexpr std::uint8_t dim_bit(AttrDim d) noexcept {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(d));
}

[[nodiscard]] std::string_view dim_name(AttrDim d) noexcept;

/// Value-id widths, in bits, per dimension. Generous for the paper's world:
/// 4095 sites (379 in the paper), 63 CDNs (19), 65535 ASNs (~15K), 15
/// connection types / players / browsers, 3 VoD/Live values.
inline constexpr std::array<int, kNumDims> kDimBits = {12, 6, 16, 4, 4, 4, 2};

/// Maximum representable value id per dimension.
[[nodiscard]] constexpr std::uint16_t dim_capacity(AttrDim d) noexcept {
  return static_cast<std::uint16_t>(
      (1u << kDimBits[static_cast<std::uint8_t>(d)]) - 1);
}

/// A full 7-dimensional attribute assignment (one per session).
struct AttrVec {
  std::array<std::uint16_t, kNumDims> v{};

  [[nodiscard]] std::uint16_t operator[](AttrDim d) const noexcept {
    return v[static_cast<std::uint8_t>(d)];
  }
  std::uint16_t& operator[](AttrDim d) noexcept {
    return v[static_cast<std::uint8_t>(d)];
  }

  friend bool operator==(const AttrVec&, const AttrVec&) = default;
};

/// A cluster identity: presence mask + packed value fields.
///
/// Layout (LSB first): [mask:7][site:12][cdn:6][asn:16][conn:4][player:4]
/// [browser:4][vod:2] = 55 bits. Bit 63 is never set, so the FlatMap64
/// sentinel (all ones) can never collide with a valid key.  The leaf fold
/// (cluster_engine.h, fold_code) relies on the mask being bits 0-6.
class ClusterKey {
 public:
  ClusterKey() = default;

  /// Packs the dims selected by `mask` (other dims ignored). Value ids must
  /// fit their field widths; throws std::out_of_range otherwise.
  static ClusterKey pack(std::uint8_t mask, const AttrVec& attrs);

  /// Root of the lattice: no attributes fixed (the global population).
  [[nodiscard]] static ClusterKey root() noexcept { return ClusterKey{}; }

  [[nodiscard]] std::uint64_t raw() const noexcept { return raw_; }
  [[nodiscard]] static ClusterKey from_raw(std::uint64_t raw) noexcept {
    ClusterKey k;
    k.raw_ = raw;
    return k;
  }

  [[nodiscard]] std::uint8_t mask() const noexcept {
    return static_cast<std::uint8_t>(raw_ & kFullMask);
  }

  /// Number of fixed attribute dimensions.
  [[nodiscard]] int arity() const noexcept;

  [[nodiscard]] bool has(AttrDim d) const noexcept {
    return (mask() & dim_bit(d)) != 0;
  }

  /// Value id of dimension d; only meaningful when has(d).
  [[nodiscard]] std::uint16_t value(AttrDim d) const noexcept;

  /// True when this cluster's attribute set is a (non-strict) subset of
  /// `other`'s and all shared values agree — i.e. `other` is this cluster or
  /// one of its lattice descendants.
  [[nodiscard]] bool generalizes(const ClusterKey& other) const noexcept;

  /// The key for a sub-mask of this key's mask (values inherited).
  /// `sub` must satisfy (sub & mask()) == sub.
  [[nodiscard]] ClusterKey project(std::uint8_t sub) const noexcept;

  friend bool operator==(const ClusterKey&, const ClusterKey&) = default;
  friend auto operator<=>(const ClusterKey&, const ClusterKey&) = default;

 private:
  std::uint64_t raw_ = 0;
};

/// Field offset/width table used by pack/value/project.
struct DimField {
  int offset;
  int bits;
};
[[nodiscard]] DimField dim_field(AttrDim d) noexcept;

/// Name tables for every dimension; gives ids human-readable labels.
class AttributeSchema {
 public:
  /// Interns `name` in dimension `d`, returning its dense id. Throws
  /// std::length_error when the dimension's id space is exhausted.
  std::uint16_t intern(AttrDim d, std::string_view name);

  [[nodiscard]] std::string_view name(AttrDim d, std::uint16_t id) const;

  [[nodiscard]] std::size_t cardinality(AttrDim d) const noexcept;

  /// Human-readable rendering of a cluster, e.g.
  /// "[Cdn=cdn-3, Asn=AS7018]"; the root renders as "[*]".
  [[nodiscard]] std::string describe(const ClusterKey& key) const;

 private:
  std::array<StringInterner, kNumDims> interners_;
};

}  // namespace vq

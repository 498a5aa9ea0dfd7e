// Internal wire-format constants shared by the trace writers (trace_io.cpp),
// the policy-driven readers (robust_io.cpp), and the live ingest framing
// (src/serve/framing.cpp, which reuses the record layout and schema section
// on the wire).  The 31-byte session record has one codec here,
// encode_record / decode_record, which every VQTR writer and reader and the
// serve framing go through.  The checksum fnv1a is FNV-1a 64 with a
// nonstandard offset basis (kFnvOffsetBasis below).  Not installed as
// public API: include only from src/gen and src/serve implementation files.

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/core/attributes.h"
#include "src/core/session.h"

namespace vq::detail {

inline constexpr std::string_view kCsvHeader =
    "epoch,site,cdn,asn,conn_type,player,browser,vod_live,"
    "buffering_ratio,bitrate_kbps,join_time_ms,join_failed";

inline constexpr std::array<AttrDim, kNumDims> kCsvColumnDims = {
    AttrDim::kSite,     AttrDim::kCdn,    AttrDim::kAsn,
    AttrDim::kConnType, AttrDim::kPlayer, AttrDim::kBrowser,
    AttrDim::kVodLive};

inline constexpr char kBinaryMagic[4] = {'V', 'Q', 'T', 'R'};
inline constexpr std::uint32_t kBinaryVersion = 1;

/// Shared cap on one attribute name's byte length, enforced by the writers
/// (throw std::invalid_argument before the u16 length cast can truncate)
/// and the readers (a claimed length beyond the cap is schema corruption,
/// not a 64 KiB allocation request).  4096 is far beyond any real CDN/ASN/
/// site label while keeping a corrupted 0xFFFF length field fail-fast.
inline constexpr std::size_t kMaxAttrNameLen = 4096;

// --- columnar container ("VQTC") ---------------------------------------------
// Out-of-core layout (columnar.h): header + schema section (identical to the
// VQTR schema block), then one self-delimiting column chunk per non-empty
// epoch, then a checksummed footer index and a fixed-size tail that points
// back at it:
//
//   "VQTC" u32 version
//   7 x [u32 name_count, name_count x (u16 len, bytes)]
//   chunks: "VQCH" u32 epoch, u64 count,
//           7 x (count x u16 attr column),
//           3 x (count x f32 metric column), count x u8 join_failed,
//           u64 chunk checksum over (epoch, count, columns)
//   footer: "VQTF" u32 chunk_count, u32 num_epochs,
//           chunk_count x (u32 epoch, u64 offset, u64 count, u64 checksum),
//           u64 fnv1a(entries)
//   tail:   u64 footer_offset, "VQTE"
//
// The chunk checksum (and its copy in the footer entry) depends on the
// version.  Version 2, the only one written, chains word_hash64 over the
// epoch field, the count field and then each column in file order, every
// call seeded with the previous result (the first with 0).  Version 1
// folds the same bytes through one running fnv1a; such files are still
// read.  The footer's own checksum is fnv1a in both versions.  fnv1a
// starts from kFnvOffsetBasis, which is not FNV-1a's standard basis.
//
// Chunks are readable without the footer (magic + count make them
// self-delimiting), so a damaged footer degrades to a sequential scan under
// the non-strict policies instead of losing the file.

inline constexpr char kColumnarMagic[4] = {'V', 'Q', 'T', 'C'};
inline constexpr char kColumnarChunkMagic[4] = {'V', 'Q', 'C', 'H'};
inline constexpr char kColumnarFooterMagic[4] = {'V', 'Q', 'T', 'F'};
inline constexpr char kColumnarTailMagic[4] = {'V', 'Q', 'T', 'E'};
/// Version written; word_hash64 chunk checksums.
inline constexpr std::uint32_t kColumnarVersion = 2;
/// Oldest version still read; fnv1a chunk checksums.
inline constexpr std::uint32_t kColumnarFnvVersion = 1;

/// Column bytes per session in a chunk: 7 x u16 attrs + 3 x f32 metrics +
/// u8 join_failed.
inline constexpr std::size_t kColumnarRowBytes = 7 * 2 + 3 * 4 + 1;
static_assert(kColumnarRowBytes == 27);

/// Fixed chunk overhead: magic + u32 epoch + u64 count + u64 checksum.
inline constexpr std::size_t kColumnarChunkHeaderBytes = 4 + 4 + 8;
inline constexpr std::size_t kColumnarChunkTrailerBytes = 8;

/// One footer index entry: u32 epoch, u64 offset, u64 count, u64 checksum.
/// The offsets are shared by the writer's pack and the reader's unpack in
/// columnar.cpp so the entry layout has a single definition.
inline constexpr std::size_t kColumnarFooterEntryBytes = 4 + 8 + 8 + 8;
inline constexpr std::size_t kFooterEntryOffsetPos = sizeof(std::uint32_t);
inline constexpr std::size_t kFooterEntryCountPos =
    kFooterEntryOffsetPos + sizeof(std::uint64_t);
inline constexpr std::size_t kFooterEntryChecksumPos =
    kFooterEntryCountPos + sizeof(std::uint64_t);
static_assert(kFooterEntryChecksumPos + sizeof(std::uint64_t) ==
              kColumnarFooterEntryBytes);

/// Fixed footer prefix/suffix around the entry array: magic + u32
/// chunk_count + u32 num_epochs before, u64 checksum after.
inline constexpr std::size_t kColumnarFooterFixedBytes = 4 + 4 + 4 + 8;

/// Trailing tail: u64 footer_offset + tail magic.
inline constexpr std::size_t kColumnarTailBytes = 8 + 4;

/// The offset basis of every fnv1a checksum in the formats:
/// 1469598103934665603, FNV-1a 64's standard basis (14695981039346656037)
/// with its last digit dropped.  Every VQTC footer, version-1 chunk and
/// serve frame checksum depends on it, so it stays, and a producer must use
/// it: fnv1a("a") is 0x44bd8ad473cd9906, where standard FNV-1a gives
/// 0xaf63dc4c8601ec8c (tests/test_trace_binary.cpp pins known answers).
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental FNV-1a 64 with the offset basis above: fold `n` bytes into
/// hash `h`.  Chosen over CRC32 for zero dependencies and branch-free
/// bytewise folding; this is an integrity check against bit rot and
/// truncation, not an adversary.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t n,
                                         std::uint64_t h = kFnvOffsetBasis)
    noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Fixed size of one session record in the binary container and in a serve
/// data frame: 7 x u16 attrs + u32 epoch + 3 x f32 metrics + u8 join_failed.
inline constexpr std::size_t kBinaryRecordSize = 7 * 2 + 4 + 3 * 4 + 1;
static_assert(kBinaryRecordSize == 31);

static_assert(std::endian::native == std::endian::little,
              "binary trace format assumes a little-endian host");

/// One row as decoded, before the row policy (ingest_sink.h, check_row):
/// the session plus its join flag as written, which the session's bool
/// cannot hold when it is neither 0 nor 1.
struct DecodedRow {
  Session session;
  int join_flag = 0;
};

/// Writes `s` as one record into out[0, kBinaryRecordSize), fields in the
/// order decode_record reads them.
inline void encode_record(const Session& s, char* out) noexcept {
  const auto put = [&out](auto value) {
    std::memcpy(out, &value, sizeof value);
    out += sizeof value;
  };
  for (const std::uint16_t id : s.attrs.v) put(id);
  put(s.epoch);
  put(s.quality.buffering_ratio);
  put(s.quality.bitrate_kbps);
  put(s.quality.join_time_ms);
  put(static_cast<std::uint8_t>(s.quality.join_failed ? 1 : 0));
}

/// Reads the record at in[0, kBinaryRecordSize); no validation beyond the
/// fixed layout.  The session's join_failed is the flag byte != 0.
[[nodiscard]] inline DecodedRow decode_record(const char* in) noexcept {
  const auto get = [&in](auto& value) {
    std::memcpy(&value, in, sizeof value);
    in += sizeof value;
  };
  DecodedRow row;
  Session& s = row.session;
  for (std::uint16_t& id : s.attrs.v) get(id);
  get(s.epoch);
  get(s.quality.buffering_ratio);
  get(s.quality.bitrate_kbps);
  get(s.quality.join_time_ms);
  std::uint8_t flag = 0;
  get(flag);
  row.join_flag = flag;
  s.quality.join_failed = flag != 0;
  return row;
}

template <typename T>
void write_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  // Generic header/schema-section helper; the stream offset is not threaded
  // this deep.  Record-level reads go through the positioned robust_io path
  // instead of this function.
  // vq-lint: allow(positioned-throw)
  if (!in) throw std::runtime_error{"read_trace_binary: truncated input"};
  return value;
}

/// Unaligned little-endian load out of a record buffer.
template <typename T>
[[nodiscard]] T load_pod(const char* bytes) noexcept {
  T value{};
  std::memcpy(&value, bytes, sizeof value);
  return value;
}

inline constexpr std::uint64_t kWordPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kWordPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kWordPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kWordPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kWordPrime5 = 0x27D4EB2F165667C5ULL;

/// One multiply-rotate step of a word_hash64 lane.
[[nodiscard]] constexpr std::uint64_t word_round(std::uint64_t acc,
                                                 std::uint64_t word) noexcept {
  return std::rotl(acc + word * kWordPrime2, 31) * kWordPrime1;
}

/// Folds one finished lane into the word_hash64 state.
[[nodiscard]] constexpr std::uint64_t word_merge(std::uint64_t h,
                                                 std::uint64_t lane) noexcept {
  return (h ^ word_round(0, lane)) * kWordPrime1 + kWordPrime4;
}

/// Word-wise 64-bit hash of `n` bytes (the XXH64 construction, so it
/// matches XXH64's published vectors): four independent multiply-rotate
/// lanes eat 32 bytes per step with 8-byte loads, the tail is folded in by
/// 8-, 4- and 1-byte steps, and a final avalanche mixes every input bit
/// into every output bit.  The VQTC version-2 chunk checksum; like fnv1a
/// it guards against bit rot and truncation, not an adversary, at a small
/// fraction of fnv1a's bytewise cost.
// vq:hot
[[nodiscard]] inline std::uint64_t word_hash64(const void* data,
                                               std::size_t n,
                                               std::uint64_t seed) noexcept {
  const char* p = static_cast<const char*>(data);
  const char* const end = p + n;
  std::uint64_t h = 0;
  if (n >= 32) {
    std::uint64_t v1 = seed + kWordPrime1 + kWordPrime2;
    std::uint64_t v2 = seed + kWordPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kWordPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = word_round(v1, load_pod<std::uint64_t>(p));
      v2 = word_round(v2, load_pod<std::uint64_t>(p + 8));
      v3 = word_round(v3, load_pod<std::uint64_t>(p + 16));
      v4 = word_round(v4, load_pod<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = word_merge(h, v1);
    h = word_merge(h, v2);
    h = word_merge(h, v3);
    h = word_merge(h, v4);
  } else {
    h = seed + kWordPrime5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h ^= word_round(0, load_pod<std::uint64_t>(p));
    h = std::rotl(h, 27) * kWordPrime1 + kWordPrime4;
  }
  if (end - p >= 4) {
    h ^= load_pod<std::uint32_t>(p) * kWordPrime1;
    h = std::rotl(h, 23) * kWordPrime2 + kWordPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<unsigned char>(*p) * kWordPrime5;
    h = std::rotl(h, 11) * kWordPrime1;
  }
  h ^= h >> 33;
  h *= kWordPrime2;
  h ^= h >> 29;
  h *= kWordPrime3;
  h ^= h >> 32;
  return h;
}

/// Writes the per-dimension name-table section shared by the VQTR and VQTC
/// containers: 7 x [u32 count, count x (u16 len, bytes)].  Returns the bytes
/// written.  Throws std::invalid_argument when a name exceeds
/// kMaxAttrNameLen — the u16 length field would otherwise silently truncate
/// it and corrupt every id that follows.
inline std::uint64_t write_schema_section(std::ostream& out,
                                          const AttributeSchema& schema,
                                          const char* context) {
  std::uint64_t bytes = 0;
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    const auto count = static_cast<std::uint32_t>(schema.cardinality(dim));
    write_pod(out, count);
    bytes += 4;
    for (std::uint32_t id = 0; id < count; ++id) {
      const std::string_view name =
          schema.name(dim, static_cast<std::uint16_t>(id));
      if (name.size() > kMaxAttrNameLen) {
        // Writer-side schema validation; no stream position exists for the
        // caller's data, so the offending dimension is named instead.
        // vq-lint: allow(positioned-throw)
        throw std::invalid_argument{
            std::string{context} + ": attribute name too long for " +
            std::string{dim_name(dim)} + " (" + std::to_string(name.size()) +
            " bytes, max " + std::to_string(kMaxAttrNameLen) + ")"};
      }
      write_pod(out, static_cast<std::uint16_t>(name.size()));
      out.write(name.data(), static_cast<std::streamsize>(name.size()));
      bytes += 2 + name.size();
    }
  }
  return bytes;
}

/// Reads the section write_schema_section emits, interning every name into
/// `schema`.  `offset` (the section's start offset) is advanced past the
/// section.  Structural under every ErrorPolicy: without the schema no
/// session record can be decoded, so all failures throw positioned
/// std::runtime_error attributed to `context`.
inline void read_schema_section(std::istream& in, AttributeSchema& schema,
                                std::uint64_t& offset, const char* context) {
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    const auto count = read_pod<std::uint32_t>(in);
    offset += 4;
    if (count > dim_capacity(dim) + 1u) {
      throw std::runtime_error{std::string{context} +
                               ": schema too large for " +
                               std::string{dim_name(dim)} + " at offset " +
                               std::to_string(offset - 4)};
    }
    std::string name;
    for (std::uint32_t id = 0; id < count; ++id) {
      const auto len = read_pod<std::uint16_t>(in);
      if (len > kMaxAttrNameLen) {
        // Symmetric with the writer's cap: a longer claimed length can only
        // be corruption, so fail fast instead of allocating and desyncing.
        throw std::runtime_error{
            std::string{context} + ": attribute name length " +
            std::to_string(len) + " exceeds cap " +
            std::to_string(kMaxAttrNameLen) + " at offset " +
            std::to_string(offset)};
      }
      name.resize(len);
      in.read(name.data(), len);
      if (!in) {
        throw std::runtime_error{std::string{context} +
                                 ": truncated name at offset " +
                                 std::to_string(offset + 2)};
      }
      offset += 2 + len;
      const std::uint16_t assigned = schema.intern(dim, name);
      if (assigned != id) {
        throw std::runtime_error{
            std::string{context} +
            ": duplicate name in schema section at offset " +
            std::to_string(offset - 2 - len)};
      }
    }
  }
}

}  // namespace vq::detail

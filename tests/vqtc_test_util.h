// Test-side editing of VQTC containers (src/gen/trace_format.h has the
// layout): locate each chunk's columns through the footer index, overwrite
// column bytes, and reseal — recompute every chunk checksum for the
// header's version, the footer entries' copies of them, and the footer's
// own fnv1a — so a planted defect reaches the reader's row checks instead
// of failing the chunk checksum.  vqtc_as_v1 uses the same reseal to turn
// the writer's version-2 output into a version-1 container, the format
// older releases wrote.  Also the field-by-field comparisons of what two
// reads yield.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/gen/robust_io.h"
#include "src/gen/trace_format.h"

namespace vq::test {

/// One chunk of a container, as the footer index places it.
struct VqtcChunk {
  std::size_t entry = 0;   // offset of its footer entry
  std::size_t offset = 0;  // offset of its "VQCH" magic
  std::uint32_t epoch = 0;
  std::uint64_t count = 0;

  /// Columns in file order: 0-6 the attribute ids (u16), 7-9 the metrics
  /// (f32: buffering_ratio, bitrate_kbps, join_time_ms), 10 join_failed
  /// (u8).
  static constexpr int kColumns = 11;

  [[nodiscard]] static std::size_t width(int column) {
    return column < 7 ? 2 : column < 10 ? 4 : 1;
  }
  [[nodiscard]] std::size_t column_offset(int column) const {
    std::size_t at = offset + detail::kColumnarChunkHeaderBytes;
    for (int k = 0; k < column; ++k) at += width(k) * count;
    return at;
  }
  [[nodiscard]] std::size_t checksum_offset() const {
    return column_offset(kColumns);
  }
};

[[nodiscard]] inline std::uint32_t vqtc_version(const std::string& bytes) {
  return detail::load_pod<std::uint32_t>(bytes.data() + 4);
}

/// The chunks of an undamaged container, in footer order.
[[nodiscard]] inline std::vector<VqtcChunk> vqtc_chunks(
    const std::string& bytes) {
  const std::size_t tail = bytes.size() - detail::kColumnarTailBytes;
  const auto footer =
      static_cast<std::size_t>(detail::load_pod<std::uint64_t>(
          bytes.data() + tail));
  if (std::memcmp(bytes.data() + footer, detail::kColumnarFooterMagic, 4) !=
      0) {
    throw std::invalid_argument{"vqtc_chunks: no footer"};
  }
  const auto chunk_count =
      detail::load_pod<std::uint32_t>(bytes.data() + footer + 4);
  std::vector<VqtcChunk> out;
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    VqtcChunk c;
    c.entry = footer + 12 + i * detail::kColumnarFooterEntryBytes;
    c.epoch = detail::load_pod<std::uint32_t>(bytes.data() + c.entry);
    c.offset = static_cast<std::size_t>(detail::load_pod<std::uint64_t>(
        bytes.data() + c.entry + detail::kFooterEntryOffsetPos));
    c.count = detail::load_pod<std::uint64_t>(
        bytes.data() + c.entry + detail::kFooterEntryCountPos);
    out.push_back(c);
  }
  return out;
}

/// The chunk checksum a reader of `version` expects for `chunk`: fnv1a
/// over (epoch, count, columns) in version 1, word_hash64 chained over the
/// same fields and each column in version 2.
[[nodiscard]] inline std::uint64_t vqtc_chunk_checksum(
    const std::string& bytes, const VqtcChunk& chunk, std::uint32_t version) {
  const char* epoch = bytes.data() + chunk.offset + 4;
  const char* count = epoch + 4;
  if (version == detail::kColumnarFnvVersion) {
    return detail::fnv1a(epoch,
                         chunk.checksum_offset() - (chunk.offset + 4));
  }
  std::uint64_t h = detail::word_hash64(epoch, 4, 0);
  h = detail::word_hash64(count, 8, h);
  for (int k = 0; k < VqtcChunk::kColumns; ++k) {
    h = detail::word_hash64(bytes.data() + chunk.column_offset(k),
                            VqtcChunk::width(k) * chunk.count, h);
  }
  return h;
}

/// Recomputes every checksum of the container for its header's version.
inline void vqtc_reseal(std::string& bytes) {
  const std::uint32_t version = vqtc_version(bytes);
  const std::vector<VqtcChunk> chunks = vqtc_chunks(bytes);
  for (const VqtcChunk& c : chunks) {
    const std::uint64_t h = vqtc_chunk_checksum(bytes, c, version);
    std::memcpy(bytes.data() + c.checksum_offset(), &h, sizeof h);
    std::memcpy(bytes.data() + c.entry + detail::kFooterEntryChecksumPos, &h,
                sizeof h);
  }
  if (chunks.empty()) return;
  const std::size_t entries = chunks.front().entry;
  const std::size_t n = chunks.size() * detail::kColumnarFooterEntryBytes;
  const std::uint64_t h = detail::fnv1a(bytes.data() + entries, n);
  std::memcpy(bytes.data() + entries + n, &h, sizeof h);
}

/// The same container as a version-1 file: fnv1a chunk checksums.
[[nodiscard]] inline std::string vqtc_as_v1(std::string bytes) {
  const std::uint32_t v1 = detail::kColumnarFnvVersion;
  std::memcpy(bytes.data() + 4, &v1, sizeof v1);
  vqtc_reseal(bytes);
  return bytes;
}

inline void expect_same_rows(std::span<const Session> expected,
                             std::span<const Session> actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].epoch, expected[i].epoch) << i;
    EXPECT_EQ(actual[i].attrs, expected[i].attrs) << i;
    EXPECT_EQ(actual[i].quality, expected[i].quality) << i;
  }
}

/// Every field of the report, each quarantined row's position, kind and
/// message included.
inline void expect_same_report(const IngestReport& expected,
                               const IngestReport& actual) {
  EXPECT_EQ(actual.policy, expected.policy);
  EXPECT_EQ(actual.rows_read, expected.rows_read);
  EXPECT_EQ(actual.rows_kept, expected.rows_kept);
  EXPECT_EQ(actual.rows_quarantined, expected.rows_quarantined);
  EXPECT_EQ(actual.fields_clamped, expected.fields_clamped);
  EXPECT_EQ(actual.input_truncated, expected.input_truncated);
  EXPECT_EQ(actual.quarantine_payloads_dropped,
            expected.quarantine_payloads_dropped);
  EXPECT_EQ(actual.reason_counts, expected.reason_counts);
  ASSERT_EQ(actual.quarantine.size(), expected.quarantine.size());
  for (std::size_t i = 0; i < expected.quarantine.size(); ++i) {
    EXPECT_EQ(actual.quarantine[i].line, expected.quarantine[i].line) << i;
    EXPECT_EQ(actual.quarantine[i].offset, expected.quarantine[i].offset)
        << i;
    EXPECT_EQ(actual.quarantine[i].kind, expected.quarantine[i].kind) << i;
    EXPECT_EQ(actual.quarantine[i].detail, expected.quarantine[i].detail)
        << i;
  }
  ASSERT_EQ(actual.epochs.size(), expected.epochs.size());
  for (std::size_t i = 0; i < expected.epochs.size(); ++i) {
    EXPECT_EQ(actual.epochs[i].epoch, expected.epochs[i].epoch) << i;
    EXPECT_EQ(actual.epochs[i].kept, expected.epochs[i].kept) << i;
    EXPECT_EQ(actual.epochs[i].quarantined, expected.epochs[i].quarantined)
        << i;
  }
  EXPECT_EQ(actual.summary(), expected.summary());
}

}  // namespace vq::test

// Chaos tests for the columnar ("VQTC") container: truncation, bit flips
// (chunk payloads, footer index, tail), short reads across chunk
// boundaries, and transient I/O faults must end in a positioned exception
// (strict) or whole-chunk quarantine with exact IngestReport accounting —
// never a crash.  A damaged footer must cost nothing when the chunks are
// intact (sequential-scan rebuild).  CI runs this suite under ASan+UBSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/gen/columnar.h"
#include "src/gen/trace_format.h"
#include "src/gen/trace_io.h"
#include "tests/fault_injection.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;
using test::FaultyStream;
using test::FaultyStreambuf;

constexpr std::size_t kPerEpoch = 8;
constexpr std::uint32_t kEpochs = 3;

/// Small multi-epoch trace with per-dimension variety, plus its columnar
/// rendering and the landmarks the fault offsets are computed from.
struct TinyColumnar {
  SessionTable table;
  std::string bytes;
  std::size_t chunk0 = 0;  // offset of epoch 0's chunk
  std::size_t chunk1 = 0;
  std::size_t chunk2 = 0;
  std::size_t footer = 0;  // offset of the footer magic
};

TinyColumnar tiny_columnar() {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    for (int i = 0; i < 3; ++i) {
      (void)schema.intern(static_cast<AttrDim>(d), "v" + std::to_string(i));
    }
  }
  std::vector<Session> sessions;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (std::uint16_t i = 0; i < kPerEpoch; ++i) {
      test::add_sessions(
          sessions, epoch,
          Attrs{.cdn = static_cast<std::uint16_t>(i % 3),
                .asn = static_cast<std::uint16_t>((i + 1) % 3)},
          i % 2 == 0 ? test::good_quality() : test::bad_buffering(), 1);
    }
  }
  TinyColumnar out;
  out.table = SessionTable{std::move(sessions)};
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(buffer, out.table, schema);
  out.bytes = buffer.str();
  out.chunk0 = out.bytes.find("VQCH");
  out.chunk1 = out.bytes.find("VQCH", out.chunk0 + 1);
  out.chunk2 = out.bytes.find("VQCH", out.chunk1 + 1);
  out.footer = out.bytes.rfind("VQTF");
  EXPECT_NE(out.chunk2, std::string::npos);
  EXPECT_NE(out.footer, std::string::npos);
  return out;
}

RobustLoadedTrace load_faulty(const TinyColumnar& t,
                              const FaultyStreambuf::Options& faults,
                              ErrorPolicy policy = ErrorPolicy::kQuarantine) {
  FaultyStream fs{t.bytes, faults};
  return read_trace_columnar_robust(fs.stream(), {.policy = policy});
}

void expect_epoch_intact(const TinyColumnar& t, const SessionTable& loaded,
                         std::uint32_t epoch) {
  const std::span<const Session> expected = t.table.epoch(epoch);
  const std::span<const Session> actual =
      epoch < loaded.num_epochs() ? loaded.epoch(epoch)
                                  : std::span<const Session>{};
  ASSERT_EQ(actual.size(), expected.size()) << "epoch " << epoch;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].attrs, expected[i].attrs);
    EXPECT_EQ(actual[i].quality, expected[i].quality);
  }
}

TEST(ColumnarFault, BitFlipInChunkStrictThrowsPositioned) {
  const TinyColumnar t = tiny_columnar();
  FaultyStream fs{t.bytes, {.flip_offset = t.chunk1 + 20}};
  try {
    (void)read_trace_columnar(fs.stream());
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk checksum mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("epoch 1"), std::string::npos) << what;
  }
}

TEST(ColumnarFault, BitFlipInChunkQuarantinesThatChunkOnly) {
  const TinyColumnar t = tiny_columnar();
  const RobustLoadedTrace loaded =
      load_faulty(t, {.flip_offset = t.chunk1 + 20});
  // The whole damaged chunk is lost; its neighbours are untouched.
  expect_epoch_intact(t, loaded.table, 0);
  expect_epoch_intact(t, loaded.table, 2);
  EXPECT_TRUE(loaded.table.epoch(1).empty());
  EXPECT_EQ(loaded.report.rows_quarantined, kPerEpoch);
  EXPECT_EQ(loaded.report.rows_kept, 2 * kPerEpoch);
  EXPECT_EQ(loaded.report.rows_read,
            loaded.report.rows_kept + loaded.report.rows_quarantined);
  EXPECT_EQ(loaded.report.reason_counts[static_cast<std::uint8_t>(
                RowErrorKind::kBadChecksum)],
            kPerEpoch);
  EXPECT_FALSE(loaded.report.input_truncated);
  EXPECT_EQ(loaded.report.degraded_epochs(),
            (std::vector<std::uint32_t>{1}));
}

TEST(ColumnarFault, ChunkHeaderDisagreeingWithIndexIsQuarantined) {
  const TinyColumnar t = tiny_columnar();
  // Flip the chunk's own epoch field: the footer stays valid, so the
  // header/index mismatch is caught before any payload is trusted.
  const RobustLoadedTrace loaded =
      load_faulty(t, {.flip_offset = t.chunk2 + 4});
  expect_epoch_intact(t, loaded.table, 0);
  expect_epoch_intact(t, loaded.table, 1);
  EXPECT_EQ(loaded.report.rows_quarantined, kPerEpoch);
  EXPECT_EQ(loaded.report.reason_counts[static_cast<std::uint8_t>(
                RowErrorKind::kBadChecksum)],
            kPerEpoch);
}

TEST(ColumnarFault, DamagedFooterRecoversByScanAtZeroCost) {
  const TinyColumnar t = tiny_columnar();
  // One flip inside the footer entries: strict refuses, the non-strict
  // policies rebuild the index from the self-delimiting chunks and lose
  // nothing.
  const FaultyStreambuf::Options flip{.flip_offset = t.footer + 12};
  {
    FaultyStream fs{t.bytes, flip};
    try {
      (void)read_trace_columnar(fs.stream());
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("damaged footer index"),
                std::string::npos)
          << e.what();
    }
  }
  FaultyStream fs{t.bytes, flip};
  ColumnarReader reader{fs.stream(), {.policy = ErrorPolicy::kQuarantine}};
  EXPECT_TRUE(reader.footer_recovered());
  EXPECT_EQ(reader.num_epochs(), kEpochs);
  EXPECT_EQ(reader.total_sessions(), kEpochs * kPerEpoch);
  SessionColumns columns;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    EXPECT_FALSE(reader.read_epoch(e, columns));
    EXPECT_EQ(columns.size(), kPerEpoch);
  }
  EXPECT_FALSE(reader.report().degraded());
}

TEST(ColumnarFault, DamagedTailRecoversByScan) {
  const TinyColumnar t = tiny_columnar();
  const RobustLoadedTrace loaded =
      load_faulty(t, {.flip_offset = t.bytes.size() - 2});  // inside "VQTE"
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    expect_epoch_intact(t, loaded.table, e);
  }
  EXPECT_EQ(loaded.report.rows_quarantined, 0u);
  EXPECT_FALSE(loaded.report.input_truncated);
}

TEST(ColumnarFault, TruncationInsideFooterLosesNoData) {
  const TinyColumnar t = tiny_columnar();
  const RobustLoadedTrace loaded = load_faulty(t, {.truncate_at = t.footer + 6});
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    expect_epoch_intact(t, loaded.table, e);
  }
  EXPECT_EQ(loaded.report.rows_kept, kEpochs * kPerEpoch);
  EXPECT_FALSE(loaded.report.input_truncated);
}

TEST(ColumnarFault, TruncationMidChunkKeepsEverythingBeforeTheCut) {
  const TinyColumnar t = tiny_columnar();
  const RobustLoadedTrace loaded = load_faulty(t, {.truncate_at = t.chunk2 + 30});
  expect_epoch_intact(t, loaded.table, 0);
  expect_epoch_intact(t, loaded.table, 1);
  EXPECT_EQ(loaded.report.rows_kept, 2 * kPerEpoch);
  EXPECT_TRUE(loaded.report.input_truncated);
  EXPECT_TRUE(loaded.report.degraded());
}

TEST(ColumnarFault, TruncationSweepStrictAlwaysThrows) {
  const TinyColumnar t = tiny_columnar();
  for (std::size_t cut = 0; cut < t.bytes.size(); ++cut) {
    FaultyStream fs{t.bytes, {.truncate_at = cut}};
    EXPECT_THROW((void)read_trace_columnar(fs.stream()), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(ColumnarFault, TruncationSweepQuarantineNeverCrashesAndAccountsExactly) {
  const TinyColumnar t = tiny_columnar();
  // Start after the schema section (a truncated schema is structural and
  // throws under every policy, covered by the strict sweep above).
  for (std::size_t cut = t.chunk0; cut < t.bytes.size(); ++cut) {
    FaultyStream fs{t.bytes, {.truncate_at = cut}};
    RobustLoadedTrace loaded;
    try {
      loaded = read_trace_columnar_robust(
          fs.stream(), {.policy = ErrorPolicy::kQuarantine});
    } catch (const std::runtime_error&) {
      continue;  // structural damage (header/schema) may still throw
    }
    EXPECT_EQ(loaded.report.rows_read,
              loaded.report.rows_kept + loaded.report.rows_quarantined)
        << "cut at " << cut;
    EXPECT_EQ(loaded.table.size(), loaded.report.rows_kept)
        << "cut at " << cut;
    // A cut anywhere before the tail either truncates data (reported) or
    // only costs the footer (rebuilt); past-the-cut epochs never appear.
    for (std::uint32_t e = 0; e < loaded.table.num_epochs(); ++e) {
      const auto epoch = loaded.table.epoch(e);
      ASSERT_LE(epoch.size(), kPerEpoch);
    }
  }
}

TEST(ColumnarFault, BitFlipSweepNeverCrashes) {
  const TinyColumnar t = tiny_columnar();
  for (std::size_t off = 0; off < t.bytes.size(); ++off) {
    FaultyStream fs{t.bytes, {.flip_offset = off}};
    try {
      const RobustLoadedTrace loaded = read_trace_columnar_robust(
          fs.stream(), {.policy = ErrorPolicy::kQuarantine});
      EXPECT_EQ(loaded.report.rows_read,
                loaded.report.rows_kept + loaded.report.rows_quarantined)
          << "flip at " << off;
    } catch (const std::runtime_error&) {
      // Structural damage (magic, version, schema) throws positioned.
    } catch (const std::out_of_range&) {
      // A flipped epoch id may push reads past num_epochs in materialize.
    }
  }
}

TEST(ColumnarFault, ShortReadsServeIdenticalBytes) {
  const TinyColumnar t = tiny_columnar();
  // Chunked underflow forces every multi-byte read (headers, whole column
  // reads) to be satisfied across several short reads, including ones that
  // straddle chunk boundaries.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    FaultyStream fs{t.bytes, {.chunk = chunk}};
    const LoadedTrace loaded = read_trace_columnar(fs.stream());
    ASSERT_EQ(loaded.table.size(), t.table.size());
    for (std::size_t i = 0; i < t.table.size(); ++i) {
      EXPECT_EQ(loaded.table.sessions()[i].attrs,
                t.table.sessions()[i].attrs);
      EXPECT_EQ(loaded.table.sessions()[i].quality,
                t.table.sessions()[i].quality);
      EXPECT_EQ(loaded.table.sessions()[i].epoch,
                t.table.sessions()[i].epoch);
    }
  }
}

TEST(ColumnarFault, TransientIoFaultOnFooterReadRecoversByScan) {
  const TinyColumnar t = tiny_columnar();
  // The fault fires on the first read at/after the last chunk's payload —
  // which is the footer load, since the reader seeks there first.  One
  // transient failure: the scan rebuild then reads clean and loses nothing.
  FaultyStream fs{t.bytes, {.fail_at = t.footer, .fail_count = 1}};
  const RobustLoadedTrace loaded = read_trace_columnar_robust(
      fs.stream(), {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(fs.buf().faults_fired(), 1);
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    expect_epoch_intact(t, loaded.table, e);
  }
  EXPECT_EQ(loaded.report.rows_quarantined, 0u);
}

TEST(ColumnarFault, PersistentIoFaultMidDataTruncatesThere) {
  const TinyColumnar t = tiny_columnar();
  // Every read at/after chunk 2 fails: the footer is unreachable, the scan
  // stops at the fault, and only the epochs before it survive.
  FaultyStream fs{t.bytes, {.fail_at = t.chunk2, .fail_count = 1 << 20}};
  const RobustLoadedTrace loaded = read_trace_columnar_robust(
      fs.stream(), {.policy = ErrorPolicy::kQuarantine});
  expect_epoch_intact(t, loaded.table, 0);
  expect_epoch_intact(t, loaded.table, 1);
  EXPECT_EQ(loaded.report.rows_kept, 2 * kPerEpoch);
  EXPECT_TRUE(loaded.report.input_truncated);
  // Strict: the very first failing read (the footer load) is fatal.
  FaultyStream strict{t.bytes, {.fail_at = t.chunk2, .fail_count = 1 << 20}};
  EXPECT_THROW((void)read_trace_columnar(strict.stream()),
               std::runtime_error);
}

TEST(ColumnarFault, PoisonedEpochIdIsRejectedAtIndexAdoption) {
  const TinyColumnar t = tiny_columnar();
  // Cap epochs below the trace's span: the out-of-range chunk is rejected
  // wholesale before any seek — a flipped epoch id must not size dense
  // per-epoch structures.
  FaultyStream fs{t.bytes, {}};
  const RobustLoadedTrace loaded = read_trace_columnar_robust(
      fs.stream(), {.policy = ErrorPolicy::kQuarantine, .max_epoch = 1});
  EXPECT_EQ(loaded.table.num_epochs(), 2u);
  expect_epoch_intact(t, loaded.table, 0);
  expect_epoch_intact(t, loaded.table, 1);
  EXPECT_EQ(loaded.report.rows_quarantined, kPerEpoch);
  EXPECT_EQ(loaded.report.reason_counts[static_cast<std::uint8_t>(
                RowErrorKind::kBadNumber)],
            kPerEpoch);

  FaultyStream strict{t.bytes, {}};
  try {
    (void)read_trace_columnar_robust(
        strict.stream(), {.policy = ErrorPolicy::kStrict, .max_epoch = 1});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("epoch 2 out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(ColumnarFault, OverlappingIndexCountsAreCappedByTheFile) {
  const TinyColumnar t = tiny_columnar();
  {
    std::stringstream honest{t.bytes, std::ios::in | std::ios::binary};
    const ColumnarReader reader{honest};
    EXPECT_GE(reader.max_rows(), reader.total_sessions());
  }
  // A forged index whose entries all claim the largest chunk that fits
  // before the footer, with a valid footer checksum: each entry passes its
  // own bounds check, but their extents overlap and together they count
  // more rows than the file holds.  Overlapping extents are a damaged
  // footer, so the forged counts size nothing: strict refuses the index,
  // and the other policies rebuild it from the chunks, whose rows are all
  // intact.
  using detail::kColumnarFooterEntryBytes;
  using detail::kColumnarRowBytes;
  const std::uint64_t claimed =
      (t.footer - t.chunk0 - detail::kColumnarChunkHeaderBytes -
       detail::kColumnarChunkTrailerBytes) /
      kColumnarRowBytes;
  std::string forged = t.bytes;
  const std::size_t entries = t.footer + 12;  // magic, count, num_epochs
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    char* entry = forged.data() + entries + e * kColumnarFooterEntryBytes;
    const std::uint64_t offset = t.chunk0;
    std::memcpy(entry + detail::kFooterEntryOffsetPos, &offset,
                sizeof offset);
    std::memcpy(entry + detail::kFooterEntryCountPos, &claimed,
                sizeof claimed);
  }
  const std::uint64_t checksum = detail::fnv1a(
      forged.data() + entries, kEpochs * kColumnarFooterEntryBytes);
  std::memcpy(forged.data() + entries + kEpochs * kColumnarFooterEntryBytes,
              &checksum, sizeof checksum);

  std::stringstream in{forged, std::ios::in | std::ios::binary};
  const ColumnarReader reader{in, {.policy = ErrorPolicy::kQuarantine}};
  EXPECT_TRUE(reader.footer_recovered());
  EXPECT_EQ(reader.total_sessions(), t.table.size());
  EXPECT_LE(reader.total_sessions(), reader.max_rows());
  EXPECT_LE(reader.max_rows(), forged.size() / kColumnarRowBytes);
  EXPECT_LT(reader.max_rows(), kEpochs * claimed);

  std::stringstream strict{forged, std::ios::in | std::ios::binary};
  try {
    (void)read_trace_columnar(strict);
    ADD_FAILURE() << "a forged overlapping index was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("footer entries overlap"),
              std::string::npos)
        << e.what();
  }
  std::stringstream lenient{forged, std::ios::in | std::ios::binary};
  const RobustLoadedTrace loaded = read_trace_columnar_robust(
      lenient, {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(loaded.report.rows_read, t.table.size());
  EXPECT_EQ(loaded.report.rows_quarantined, 0u);
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    expect_epoch_intact(t, loaded.table, e);
  }
}

TEST(ColumnarFault, RowLevelDamageFollowsPolicyInsideIntactChunks) {
  // Rebuild the container from sessions carrying one repairable defect (a
  // non-finite metric) so the chunk checksum matches the damaged payload:
  // this is writer-side poison, not wire corruption, and must follow the
  // row policies exactly like the binary reader.
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "v");
  }
  std::vector<Session> sessions;
  for (int i = 0; i < 6; ++i) {
    test::add_sessions(sessions, 0, Attrs{}, test::good_quality(), 1);
  }
  sessions[2].quality.bitrate_kbps =
      std::numeric_limits<float>::quiet_NaN();
  const SessionTable table{std::move(sessions)};
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(buffer, table, schema);
  const std::string bytes = buffer.str();

  {
    std::stringstream in{bytes, std::ios::in | std::ios::binary};
    try {
      (void)read_trace_columnar(in);
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("non-finite bitrate_kbps"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::stringstream in{bytes, std::ios::in | std::ios::binary};
    const RobustLoadedTrace loaded = read_trace_columnar_robust(
        in, {.policy = ErrorPolicy::kQuarantine});
    EXPECT_EQ(loaded.table.size(), 5u);
    EXPECT_EQ(loaded.report.rows_quarantined, 1u);
    EXPECT_EQ(loaded.report.reason_counts[static_cast<std::uint8_t>(
                  RowErrorKind::kNonFinite)],
              1u);
  }
  {
    std::stringstream in{bytes, std::ios::in | std::ios::binary};
    const RobustLoadedTrace loaded = read_trace_columnar_robust(
        in, {.policy = ErrorPolicy::kBestEffort});
    EXPECT_EQ(loaded.table.size(), 6u);
    EXPECT_EQ(loaded.report.fields_clamped, 1u);
    EXPECT_EQ(loaded.table.sessions()[2].quality.bitrate_kbps, 0.0F);
  }
}

}  // namespace
}  // namespace vq

// Policy-driven ingest (gen/robust_io.h): quarantine accounting, best-effort
// field repair, positioned strict errors, CRLF tolerance, and the
// degraded-epoch annotation the monitor consumes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/gen/robust_io.h"
#include "src/gen/trace_io.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

constexpr std::string_view kHeader =
    "epoch,site,cdn,asn,conn_type,player,browser,vod_live,"
    "buffering_ratio,bitrate_kbps,join_time_ms,join_failed";

std::string good_row(std::uint32_t epoch) {
  return std::to_string(epoch) + ",s0,c0,a0,dsl,flash,chrome,vod," +
         "0.01,3000,1500,0";
}

std::string csv_of(const std::vector<std::string>& rows,
                   std::string_view eol = "\n") {
  std::string out{kHeader};
  out += eol;
  for (const auto& r : rows) {
    out += r;
    out += eol;
  }
  return out;
}

RobustLoadedTrace parse(const std::string& text,
                        const RobustReadOptions& options) {
  std::istringstream in{text};
  return read_trace_csv_robust(in, options);
}

std::uint64_t count_of(const IngestReport& r, RowErrorKind k) {
  return r.reason_counts[static_cast<std::uint8_t>(k)];
}

TEST(RobustCsv, AcceptsCrlfAndTrailingNewlines) {
  const std::string crlf =
      csv_of({good_row(0), good_row(0), good_row(1)}, "\r\n") + "\r\n\r\n";
  std::istringstream in{crlf};
  const LoadedTrace loaded = read_trace_csv(in);  // strict shim
  EXPECT_EQ(loaded.table.size(), 3u);
  EXPECT_EQ(loaded.table.num_epochs(), 2u);

  const std::string lf = csv_of({good_row(0)}) + "\n\n";
  std::istringstream in2{lf};
  EXPECT_EQ(read_trace_csv(in2).table.size(), 1u);
}

TEST(RobustCsv, StrictErrorsCarryOneBasedPhysicalLineNumbers) {
  // Header is line 1; first data row is line 2. Blank lines still advance
  // the physical line counter.
  const std::string text =
      std::string{kHeader} + "\n" + good_row(0) + "\n\n" +
      "1,s0,c0,a0,dsl,flash,chrome,vod,0.01,nope,1500,0\n";
  std::istringstream in{text};
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "read_trace_csv: bad numeric field (bitrate_kbps) at line 4");
  }

  std::istringstream empty{""};
  try {
    (void)read_trace_csv(empty);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "read_trace_csv: empty input at line 1");
  }

  std::istringstream bad_header{"not,the,header\n"};
  try {
    (void)read_trace_csv(bad_header);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "read_trace_csv: unexpected header at line 1");
  }
}

TEST(RobustCsv, QuarantineDivertsBadRowsAndKeepsGoodOnes) {
  const std::string text = csv_of({
      good_row(0),
      "0,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000",      // 10 fields
      "zero,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,0",  // bad epoch
      "0,s0,c0,a0,dsl,flash,chrome,vod,inf,3000,1500,0",      // non-finite
      good_row(1),
  });
  const RobustLoadedTrace loaded =
      parse(text, {.policy = ErrorPolicy::kQuarantine});
  const IngestReport& r = loaded.report;
  EXPECT_EQ(r.rows_read, 5u);
  EXPECT_EQ(r.rows_kept, 2u);
  EXPECT_EQ(r.rows_quarantined, 3u);
  EXPECT_EQ(r.fields_clamped, 0u);
  EXPECT_FALSE(r.input_truncated);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(count_of(r, RowErrorKind::kFieldCount), 1u);
  EXPECT_EQ(count_of(r, RowErrorKind::kBadNumber), 1u);
  EXPECT_EQ(count_of(r, RowErrorKind::kNonFinite), 1u);
  ASSERT_EQ(r.quarantine.size(), 3u);
  EXPECT_EQ(r.quarantine[0].line, 3u);
  EXPECT_EQ(r.quarantine[0].kind, RowErrorKind::kFieldCount);
  EXPECT_EQ(r.quarantine[1].line, 4u);
  EXPECT_EQ(r.quarantine[2].line, 5u);
  EXPECT_EQ(loaded.table.size(), 2u);

  // Per-epoch tallies: epoch 0 kept 1 / lost 1 (the epoch-less rows only
  // count globally), epoch 1 clean.
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_EQ(r.epochs[0].epoch, 0u);
  EXPECT_EQ(r.epochs[0].kept, 1u);
  EXPECT_EQ(r.epochs[0].quarantined, 1u);
  EXPECT_EQ(r.epochs[1].epoch, 1u);
  EXPECT_EQ(r.epochs[1].kept, 1u);
  EXPECT_EQ(r.epochs[1].quarantined, 0u);
  EXPECT_EQ(r.degraded_epochs(), (std::vector<std::uint32_t>{0}));
}

TEST(RobustCsv, BestEffortClampsRepairableFields) {
  const std::string text = csv_of({
      "0,s0,c0,a0,dsl,flash,chrome,vod,nan,3000,1500,0",   // non-finite ratio
      "0,s0,c0,a0,dsl,flash,chrome,vod,0.01,oops,1500,0",  // bad bitrate
      "0,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,x",  // bad flag
      "zero,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,0",  // bad epoch
  });
  const RobustLoadedTrace loaded =
      parse(text, {.policy = ErrorPolicy::kBestEffort});
  const IngestReport& r = loaded.report;
  // Three rows salvaged (one clamp each); the epoch-less row is
  // unsalvageable even under best-effort.
  EXPECT_EQ(r.rows_read, 4u);
  EXPECT_EQ(r.rows_kept, 3u);
  EXPECT_EQ(r.rows_quarantined, 1u);
  EXPECT_EQ(r.fields_clamped, 3u);
  ASSERT_EQ(loaded.table.size(), 3u);
  EXPECT_EQ(loaded.table.sessions()[0].quality.buffering_ratio, 0.0F);
  EXPECT_EQ(loaded.table.sessions()[1].quality.bitrate_kbps, 0.0F);
  EXPECT_FALSE(loaded.table.sessions()[2].quality.join_failed);
}

TEST(RobustCsv, JoinFlagOutsideZeroOrOneFollowsThePolicy) {
  // The same rule as the binary formats: a flag of 2 or -1 is thrown on,
  // quarantined as bad-flag, or kept as a failed join with one clamp.
  const std::string text = csv_of({
      good_row(0),
      "0,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,2",
      good_row(1),
      "1,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,-1",
      "1,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,1",
  });

  const RobustLoadedTrace quarantined =
      parse(text, {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(quarantined.report.rows_read, 5u);
  EXPECT_EQ(quarantined.report.rows_kept, 3u);
  EXPECT_EQ(quarantined.report.rows_quarantined, 2u);
  EXPECT_EQ(count_of(quarantined.report, RowErrorKind::kBadFlag), 2u);
  EXPECT_EQ(quarantined.report.fields_clamped, 0u);
  ASSERT_EQ(quarantined.report.quarantine.size(), 2u);
  EXPECT_EQ(quarantined.report.quarantine[0].line, 3u);
  EXPECT_EQ(quarantined.report.quarantine[1].line, 5u);
  EXPECT_EQ(quarantined.report.degraded_epochs(),
            (std::vector<std::uint32_t>{0, 1}));
  ASSERT_EQ(quarantined.table.size(), 3u);
  EXPECT_TRUE(quarantined.table.sessions()[2].quality.join_failed);

  const RobustLoadedTrace repaired =
      parse(text, {.policy = ErrorPolicy::kBestEffort});
  EXPECT_EQ(repaired.report.rows_kept, 5u);
  EXPECT_EQ(repaired.report.rows_quarantined, 0u);
  EXPECT_EQ(repaired.report.fields_clamped, 2u);
  ASSERT_EQ(repaired.table.size(), 5u);
  EXPECT_TRUE(repaired.table.sessions()[1].quality.join_failed);
  EXPECT_TRUE(repaired.table.sessions()[3].quality.join_failed);

  std::istringstream in{text};
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "read_trace_csv: join_failed byte must be 0 or 1, got 2 at "
                 "line 3");
  }
  // The value as written, not as a byte: -1 reads -1, not 255.
  std::istringstream negative{csv_of({
      good_row(0),
      "0,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,-1",
  })};
  try {
    (void)read_trace_csv(negative);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "read_trace_csv: join_failed byte must be 0 or 1, got -1 at "
                 "line 3");
  }
}

TEST(RobustCsv, RejectsEpochsAboveSanityCap) {
  // A poisoned epoch is a dense-index bomb: SessionTable and the per-epoch
  // summaries allocate proportionally to the max epoch, so one flipped high
  // bit (~2^31) must be rejected at ingest, under every policy.
  const std::string text = csv_of({
      good_row(0),
      "4000000000,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000,1500,0",
  });
  for (const ErrorPolicy policy :
       {ErrorPolicy::kQuarantine, ErrorPolicy::kBestEffort}) {
    const RobustLoadedTrace loaded = parse(text, {.policy = policy});
    EXPECT_EQ(loaded.report.rows_kept, 1u);
    EXPECT_EQ(count_of(loaded.report, RowErrorKind::kBadNumber), 1u);
    // The bogus epoch must not leak into the per-epoch report either.
    ASSERT_EQ(loaded.report.epochs.size(), 1u);
    EXPECT_EQ(loaded.report.epochs[0].epoch, 0u);
  }
  std::istringstream in{text};
  try {
    (void)read_trace_csv(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("epoch 4000000000 out of range"),
              std::string::npos)
        << "got: " << e.what();
  }
}

TEST(RobustCsv, RejectedRowsDoNotGrowTheSchema) {
  // The bad row carries never-seen attribute names; the metric error must
  // quarantine it before any of them is interned.
  const std::string text = csv_of({
      good_row(0),
      "0,sX,cX,aX,dslX,flashX,chromeX,vodX,nan,3000,1500,0",
  });
  const RobustLoadedTrace loaded =
      parse(text, {.policy = ErrorPolicy::kQuarantine});
  for (int d = 0; d < kNumDims; ++d) {
    EXPECT_EQ(loaded.schema.cardinality(static_cast<AttrDim>(d)), 1u);
  }
}

TEST(RobustCsv, QuarantineSampleIsBoundedButCountsAreExact) {
  std::vector<std::string> rows;
  for (int i = 0; i < 10; ++i) rows.push_back("bad row");
  const RobustLoadedTrace loaded = parse(
      csv_of(rows),
      {.policy = ErrorPolicy::kQuarantine, .max_quarantine_samples = 4});
  EXPECT_EQ(loaded.report.rows_quarantined, 10u);
  EXPECT_EQ(loaded.report.quarantine.size(), 4u);
  // The 6 unretained payloads are visible, not silent.
  EXPECT_EQ(loaded.report.quarantine_payloads_dropped, 6u);
}

TEST(RobustCsv, QuarantineByteBudgetShedsPayloadsNotCounts) {
  // Ten bad rows against a byte budget that only fits a few of their
  // rejection details: the sink must stop retaining once the budget is
  // spent, count every shed payload, and keep the per-reason counts exact.
  std::vector<std::string> rows;
  for (int i = 0; i < 10; ++i) rows.push_back("bad row");
  const RobustLoadedTrace loaded =
      parse(csv_of(rows), {.policy = ErrorPolicy::kQuarantine,
                           .max_quarantine_samples = 100,
                           .max_quarantine_bytes = 128});
  const IngestReport& report = loaded.report;
  EXPECT_EQ(report.rows_quarantined, 10u);
  EXPECT_EQ(count_of(report, RowErrorKind::kFieldCount), 10u);
  EXPECT_GT(report.quarantine.size(), 0u);  // budget admits the first few
  EXPECT_LT(report.quarantine.size(), 10u);
  std::size_t retained_bytes = 0;
  for (const auto& q : report.quarantine) retained_bytes += q.detail.size();
  EXPECT_LE(retained_bytes, 128u);
  EXPECT_EQ(report.quarantine_payloads_dropped,
            10u - report.quarantine.size());
}

TEST(RobustCsv, ZeroByteBudgetRetainsNothingButStaysExact) {
  std::vector<std::string> rows;
  for (int i = 0; i < 5; ++i) rows.push_back("bad row");
  const RobustLoadedTrace loaded =
      parse(csv_of(rows), {.policy = ErrorPolicy::kQuarantine,
                           .max_quarantine_samples = 100,
                           .max_quarantine_bytes = 0});
  EXPECT_EQ(loaded.report.rows_quarantined, 5u);
  EXPECT_TRUE(loaded.report.quarantine.empty());
  EXPECT_EQ(loaded.report.quarantine_payloads_dropped, 5u);
}

TEST(RobustCsv, SummaryIsHumanReadable) {
  const std::string text = csv_of({
      good_row(0),
      "0,s0,c0,a0,dsl,flash,chrome,vod,0.01,3000",  // field count
  });
  const RobustLoadedTrace loaded =
      parse(text, {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(loaded.report.summary(),
            "2 rows: 1 kept, 1 quarantined (field-count=1)");
}

TEST(RobustCsv, DegradedEpochsRespectsMinFraction) {
  std::vector<std::string> rows;
  // Epoch 0: 9 good + 1 bad (10% damaged). Epoch 1: 1 good + 3 bad (75%).
  for (int i = 0; i < 9; ++i) rows.push_back(good_row(0));
  rows.push_back("0,s0,c0,a0,dsl,flash,chrome,vod,inf,3000,1500,0");
  rows.push_back(good_row(1));
  for (int i = 0; i < 3; ++i) {
    rows.push_back("1,s0,c0,a0,dsl,flash,chrome,vod,inf,3000,1500,0");
  }
  const RobustLoadedTrace loaded =
      parse(csv_of(rows), {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(loaded.report.degraded_epochs(),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(loaded.report.degraded_epochs(0.5),
            (std::vector<std::uint32_t>{1}));
}

TEST(RobustIo, PolicyNamesRoundTrip) {
  for (const ErrorPolicy p : {ErrorPolicy::kStrict, ErrorPolicy::kQuarantine,
                              ErrorPolicy::kBestEffort}) {
    EXPECT_EQ(parse_error_policy(error_policy_name(p)), p);
  }
  EXPECT_EQ(parse_error_policy("lenient"), std::nullopt);
}

// --- binary ------------------------------------------------------------------

constexpr std::size_t kRecordSize = 31;

std::string binary_trace(std::size_t n_sessions) {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "v0");
    (void)schema.intern(static_cast<AttrDim>(d), "v1");
  }
  std::vector<Session> sessions;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    test::add_sessions(sessions, static_cast<std::uint32_t>(i / 4),
                       Attrs{.cdn = static_cast<std::uint16_t>(i % 2)},
                       test::good_quality(), 1);
  }
  std::stringstream out{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(out, SessionTable{std::move(sessions)}, schema);
  return out.str();
}

RobustLoadedTrace parse_binary(const std::string& bytes,
                               const RobustReadOptions& options) {
  std::istringstream in{bytes, std::ios::binary};
  return read_trace_binary_robust(in, options);
}

/// Patches one byte inside record `ordinal` (1-based) at `field_offset`.
std::string patch_record(std::string bytes, std::size_t n_sessions,
                         std::size_t ordinal, std::size_t field_offset,
                         char value) {
  const std::size_t start = bytes.size() - n_sessions * kRecordSize +
                            (ordinal - 1) * kRecordSize;
  bytes[start + field_offset] = value;
  return bytes;
}

TEST(RobustBinary, RejectsBadJoinFlagWithPosition) {
  const std::size_t n = 8;
  std::string bytes = patch_record(binary_trace(n), n, 3, 30, 2);
  const std::size_t offset =
      bytes.size() - n * kRecordSize + 2 * kRecordSize;
  std::istringstream in{bytes, std::ios::binary};
  try {
    (void)read_trace_binary(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "read_trace_binary: join_failed byte must be 0 or 1, got 2 at "
              "record 3 (offset " +
                  std::to_string(offset) + ")");
  }

  const RobustLoadedTrace q =
      parse_binary(bytes, {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(q.report.rows_kept, n - 1);
  EXPECT_EQ(count_of(q.report, RowErrorKind::kBadFlag), 1u);
  ASSERT_EQ(q.report.quarantine.size(), 1u);
  EXPECT_EQ(q.report.quarantine[0].line, 3u);
  EXPECT_EQ(q.report.quarantine[0].offset, offset);

  // Best-effort: any non-zero byte means "failed", clamped to true.
  const RobustLoadedTrace b =
      parse_binary(bytes, {.policy = ErrorPolicy::kBestEffort});
  EXPECT_EQ(b.report.rows_kept, n);
  EXPECT_EQ(b.report.fields_clamped, 1u);
  EXPECT_TRUE(b.table.sessions()[2].quality.join_failed);
}

TEST(RobustBinary, RejectsNonFiniteMetricWithPosition) {
  const std::size_t n = 8;
  std::string bytes = binary_trace(n);
  // Overwrite record 5's bitrate_kbps (field offset 22) with a quiet NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t start =
      bytes.size() - n * kRecordSize + 4 * kRecordSize;
  std::memcpy(bytes.data() + start + 22, &nan, sizeof nan);

  std::istringstream in{bytes, std::ios::binary};
  try {
    (void)read_trace_binary(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "read_trace_binary: non-finite bitrate_kbps at record 5 "
              "(offset " +
                  std::to_string(start) + ")");
  }

  const RobustLoadedTrace b =
      parse_binary(bytes, {.policy = ErrorPolicy::kBestEffort});
  EXPECT_EQ(b.report.rows_kept, n);
  EXPECT_EQ(b.report.fields_clamped, 1u);
  EXPECT_EQ(b.table.sessions()[4].quality.bitrate_kbps, 0.0F);
}

TEST(RobustBinary, SchemaViolationIsUnsalvageable) {
  const std::size_t n = 4;
  // Record 2's cdn id (u16 at field offset 2) -> 99, outside the 2-name
  // schema. Unknown ids have no safe repair, so even best-effort diverts.
  std::string bytes = patch_record(binary_trace(n), n, 2, 2, 99);
  for (const ErrorPolicy policy :
       {ErrorPolicy::kQuarantine, ErrorPolicy::kBestEffort}) {
    const RobustLoadedTrace loaded = parse_binary(bytes, {.policy = policy});
    EXPECT_EQ(loaded.report.rows_kept, n - 1);
    EXPECT_EQ(count_of(loaded.report, RowErrorKind::kSchemaViolation), 1u);
  }
  std::istringstream in{bytes, std::ios::binary};
  EXPECT_THROW((void)read_trace_binary(in), std::runtime_error);
}

TEST(RobustBinary, RejectsEpochsAboveSanityCap) {
  const std::size_t n = 4;
  std::string bytes = binary_trace(n);
  // Poison record 2's epoch (u32 at field offset 14) with its high bit.
  const std::size_t start =
      bytes.size() - n * kRecordSize + 1 * kRecordSize;
  const std::uint32_t huge = 1u << 31;
  std::memcpy(bytes.data() + start + 14, &huge, sizeof huge);

  std::istringstream in{bytes, std::ios::binary};
  try {
    (void)read_trace_binary(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("epoch 2147483648 out of range"),
              std::string::npos)
        << "got: " << e.what();
  }

  const RobustLoadedTrace q =
      parse_binary(bytes, {.policy = ErrorPolicy::kQuarantine});
  EXPECT_EQ(q.report.rows_kept, n - 1);
  EXPECT_EQ(count_of(q.report, RowErrorKind::kBadNumber), 1u);
  // The poisoned epoch never reaches the per-epoch stats or the table.
  for (const EpochIngestStats& e : q.report.epochs) EXPECT_LE(e.epoch, 1u);
  EXPECT_EQ(q.table.num_epochs(), 1u);
}

TEST(RobustBinary, TruncationReportsDegradedTailEpoch) {
  const std::size_t n = 8;  // epochs 0 (records 1-4) and 1 (records 5-8)
  std::string bytes = binary_trace(n);
  bytes.resize(bytes.size() - kRecordSize - 3);  // cut mid-record 7
  const RobustLoadedTrace loaded =
      parse_binary(bytes, {.policy = ErrorPolicy::kQuarantine});
  EXPECT_TRUE(loaded.report.input_truncated);
  EXPECT_EQ(loaded.report.rows_kept, 6u);
  EXPECT_EQ(count_of(loaded.report, RowErrorKind::kTruncated), 1u);
  // Epoch 0 is intact; epoch 1 lost its tail.
  EXPECT_EQ(loaded.report.degraded_epochs(),
            (std::vector<std::uint32_t>{1}));
}

}  // namespace
}  // namespace vq

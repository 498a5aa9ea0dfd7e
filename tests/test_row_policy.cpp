// One row policy on every ingest path (DESIGN.md §4.3): the same planted
// rows, written as CSV, as a VQTR container, as a VQTC container (one clean
// chunk for the column fast path, the others through the per-row fallback)
// and as a serve data frame, give the same kept rows, reason counts, clamp
// counts and degraded epochs under every ErrorPolicy, and those are the
// ones the policy table names.  The files are written byte by byte here,
// not through the writers or the record codec under test.  Every table a
// reader builds also passes the indexed-table differential
// (test_support.h, expect_indexed_as_counted).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/session.h"
#include "src/gen/columnar.h"
#include "src/gen/robust_io.h"
#include "src/gen/trace_io.h"
#include "src/serve/framing.h"
#include "src/serve/producer.h"
#include "src/serve/server.h"
#include "tests/socket_fault.h"
#include "tests/test_support.h"
#include "tests/vqtc_test_util.h"

namespace vq {
namespace {

constexpr std::uint32_t kEpochs = 4;
constexpr std::size_t kRowsPerEpoch = 10;
constexpr std::uint16_t kIdsPerDim = 3;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// One row as the producer wrote it, before any policy.
struct WrittenRow {
  std::uint32_t epoch = 0;
  std::array<std::uint16_t, kNumDims> ids{};
  std::array<float, 3> metrics{};  // buffering_ratio, bitrate_kbps,
                                   // join_time_ms
  int flag = 0;
};

enum class Field { kBuffering, kBitrate, kJoinTime, kFlag, kAsn, kEpoch };

/// Overwrites one field of row `row` (index in file order).
struct Plant {
  std::size_t row = 0;
  Field field = Field::kBuffering;
  double value = 0.0;
};

AttributeSchema make_schema() {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    for (int k = 0; k < kIdsPerDim; ++k) {
      (void)schema.intern(static_cast<AttrDim>(d),
                          "d" + std::to_string(d) + "v" + std::to_string(k));
    }
  }
  return schema;
}

/// kEpochs x kRowsPerEpoch clean rows in epoch order; every fourth row is a
/// failed join, so a flag bound that rejects 1 shows.
std::vector<Session> base_sessions() {
  std::vector<Session> out;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    for (std::size_t i = 0; i < kRowsPerEpoch; ++i) {
      Session s;
      s.epoch = e;
      for (int d = 0; d < kNumDims; ++d) {
        s.attrs.v[d] = static_cast<std::uint16_t>((i + d) % kIdsPerDim);
      }
      s.quality.buffering_ratio = 0.01F * static_cast<float>(i);
      s.quality.bitrate_kbps = 800.0F + 100.0F * static_cast<float>(i);
      s.quality.join_time_ms = 400.0F + 50.0F * static_cast<float>(i);
      s.quality.join_failed = i % 4 == 3;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<WrittenRow> written_rows(const std::vector<Plant>& plants) {
  std::vector<WrittenRow> rows;
  for (const Session& s : base_sessions()) {
    WrittenRow r;
    r.epoch = s.epoch;
    r.ids = s.attrs.v;
    r.metrics = {s.quality.buffering_ratio, s.quality.bitrate_kbps,
                 s.quality.join_time_ms};
    r.flag = s.quality.join_failed ? 1 : 0;
    rows.push_back(r);
  }
  for (const Plant& p : plants) {
    WrittenRow& r = rows.at(p.row);
    switch (p.field) {
      case Field::kBuffering: r.metrics[0] = static_cast<float>(p.value); break;
      case Field::kBitrate: r.metrics[1] = static_cast<float>(p.value); break;
      case Field::kJoinTime: r.metrics[2] = static_cast<float>(p.value); break;
      case Field::kFlag: r.flag = static_cast<int>(p.value); break;
      case Field::kAsn: r.ids[2] = static_cast<std::uint16_t>(p.value); break;
      case Field::kEpoch: r.epoch = static_cast<std::uint32_t>(p.value); break;
    }
  }
  return rows;
}

std::string csv_text(const std::vector<WrittenRow>& rows,
                     const AttributeSchema& schema) {
  std::ostringstream out;
  out.precision(9);
  out << "epoch,site,cdn,asn,conn_type,player,browser,vod_live,"
         "buffering_ratio,bitrate_kbps,join_time_ms,join_failed\n";
  for (const WrittenRow& r : rows) {
    out << r.epoch;
    for (int d = 0; d < kNumDims; ++d) {
      out << ',' << schema.name(static_cast<AttrDim>(d), r.ids[d]);
    }
    for (const float m : r.metrics) out << ',' << m;
    out << ',' << r.flag << '\n';
  }
  return out.str();
}

template <typename T>
void append_bytes(std::string& out, T value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

/// The rows as 31-byte records: 7 x u16 ids, u32 epoch, 3 x f32 metrics,
/// u8 flag.  A VQTR container's record section and a data frame's payload.
std::string records(const std::vector<WrittenRow>& rows) {
  std::string out;
  for (const WrittenRow& r : rows) {
    for (const std::uint16_t id : r.ids) append_bytes(out, id);
    append_bytes(out, r.epoch);
    for (const float m : r.metrics) append_bytes(out, m);
    append_bytes(out, static_cast<std::uint8_t>(r.flag));
  }
  return out;
}

std::string vqtr_bytes(const std::vector<WrittenRow>& rows,
                       const AttributeSchema& schema) {
  std::ostringstream out;
  write_trace_binary(out, SessionTable{base_sessions()}, schema);
  std::string bytes = out.str();
  const std::string body = records(rows);
  bytes.replace(bytes.size() - body.size(), body.size(), body);
  return bytes;
}

/// A version-1 container (fnv1a checksums, which vqtc_reseal recomputes)
/// whose columns hold the rows; every row keeps its base epoch.
std::string vqtc_bytes(const std::vector<WrittenRow>& rows,
                       const AttributeSchema& schema) {
  std::ostringstream out;
  write_trace_columnar(out, SessionTable{base_sessions()}, schema);
  std::string bytes = test::vqtc_as_v1(out.str());
  std::size_t next = 0;
  for (const test::VqtcChunk& chunk : test::vqtc_chunks(bytes)) {
    for (std::size_t r = 0; r < chunk.count; ++r, ++next) {
      const WrittenRow& row = rows.at(next);
      EXPECT_EQ(row.epoch, chunk.epoch) << "a chunk row has no epoch field";
      const auto put = [&](int column, const auto value) {
        std::memcpy(bytes.data() + chunk.column_offset(column) +
                        r * sizeof value,
                    &value, sizeof value);
      };
      for (int d = 0; d < kNumDims; ++d) put(d, row.ids[d]);
      for (int k = 0; k < 3; ++k) put(kNumDims + k, row.metrics[k]);
      put(kNumDims + 3, static_cast<std::uint8_t>(row.flag));
    }
  }
  test::vqtc_reseal(bytes);
  return bytes;
}

enum class Path { kCsv, kVqtr, kVqtc, kServe };

const char* path_name(Path path) {
  switch (path) {
    case Path::kCsv: return "csv";
    case Path::kVqtr: return "vqtr";
    case Path::kVqtc: return "vqtc";
    case Path::kServe: return "serve";
  }
  return "?";
}

/// What one path made of the rows.  The server's kept rows go to its
/// detector, so it reports their count only; its faults carry no message.
struct Outcome {
  std::uint64_t kept_count = 0;
  std::vector<Session> kept;
  std::array<std::uint64_t, kNumRowErrorKinds> reasons{};
  std::uint64_t clamped = 0;
  std::vector<std::uint32_t> degraded;
  std::vector<std::string> faults;  // quarantine reasons, positions cut
  std::string strict_error;         // the reason a strict read threw
};

/// A fault message without its reader prefix and position suffix.
std::string reason_of(std::string message) {
  if (const auto colon = message.find(": "); colon != std::string::npos) {
    message.erase(0, colon + 2);
  }
  return message.substr(0, message.find(" at "));
}

Outcome read_file(Path path, const std::string& bytes, ErrorPolicy policy) {
  const RobustReadOptions options{.policy = policy};
  std::istringstream in{bytes};
  Outcome out;
  try {
    const RobustLoadedTrace loaded =
        path == Path::kCsv    ? read_trace_csv_robust(in, options)
        : path == Path::kVqtr ? read_trace_binary_robust(in, options)
                              : read_trace_columnar_robust(in, options);
    test::expect_indexed_as_counted(loaded.table);
    const IngestReport& report = loaded.report;
    out.kept_count = report.rows_kept;
    // A CSV reader numbers names in the order it meets them: compare ids
    // in make_schema()'s numbering.
    AttributeSchema schema = make_schema();
    for (Session s : loaded.table.sessions()) {
      for (int d = 0; d < kNumDims; ++d) {
        const auto dim = static_cast<AttrDim>(d);
        s.attrs.v[d] =
            schema.intern(dim, loaded.schema.name(dim, s.attrs.v[d]));
      }
      out.kept.push_back(s);
    }
    out.reasons = report.reason_counts;
    out.clamped = report.fields_clamped;
    out.degraded = report.degraded_epochs();
    for (const QuarantinedRow& q : report.quarantine) {
      out.faults.push_back(reason_of(q.detail));
    }
  } catch (const std::runtime_error& e) {
    out.strict_error = reason_of(e.what());
  }
  return out;
}

Outcome serve_rows(const std::vector<WrittenRow>& rows,
                   const AttributeSchema& schema, ErrorPolicy policy) {
  serve::ServeConfig config;
  config.drain_on_idle = true;
  config.row_policy = policy;
  test::ServeHarness harness{std::move(config)};
  {
    serve::Producer producer{harness.address()};
    producer.send_hello(schema);
    producer.send_raw(serve::encode_frame(serve::kDataMagic, records(rows)));
  }
  EXPECT_EQ(harness.drain(), 0);
  const serve::ServeStats stats = harness.stats();
  EXPECT_TRUE(stats.accounting_exact());
  if (policy != ErrorPolicy::kStrict) {
    EXPECT_EQ(stats.rows_received, rows.size());
  }
  Outcome out;
  out.kept_count = stats.rows_admitted;
  out.reasons = stats.row_reasons;
  out.clamped = stats.fields_clamped;
  out.degraded = stats.degraded_epochs;
  return out;
}

Outcome run_path(Path path, const std::vector<WrittenRow>& rows,
                 ErrorPolicy policy) {
  const AttributeSchema schema = make_schema();
  switch (path) {
    case Path::kCsv: return read_file(path, csv_text(rows, schema), policy);
    case Path::kVqtr: return read_file(path, vqtr_bytes(rows, schema), policy);
    case Path::kVqtc: return read_file(path, vqtc_bytes(rows, schema), policy);
    case Path::kServe: return serve_rows(rows, schema, policy);
  }
  return {};
}

/// What the policy table says the plants come to: under quarantine the
/// planted rows go, under best-effort a planted non-finite metric reads 0
/// and a planted flag reads as a failed join.
struct Expected {
  std::vector<Session> kept;
  std::array<std::uint64_t, kNumRowErrorKinds> reasons{};
  std::uint64_t clamped = 0;
  std::vector<std::uint32_t> degraded;
  std::vector<std::string> faults;
  std::string strict_error;
  std::uint64_t strict_kept = 0;  // the server admits rows before the fault
};

std::array<std::uint64_t, kNumRowErrorKinds> counts(
    std::initializer_list<std::pair<RowErrorKind, std::uint64_t>> kinds) {
  std::array<std::uint64_t, kNumRowErrorKinds> out{};
  for (const auto& [kind, n] : kinds) out[static_cast<std::size_t>(kind)] = n;
  return out;
}

void expect_outcome(Path path, ErrorPolicy policy, const Outcome& got,
                    const Expected& want) {
  SCOPED_TRACE(std::string{path_name(path)} + " under " +
               std::string{error_policy_name(policy)});
  if (policy == ErrorPolicy::kStrict) {
    if (path == Path::kServe) {
      // The server cannot throw: it quarantines the first fault, closes
      // the connection and keeps what came before it.
      EXPECT_EQ(got.kept_count, want.strict_kept);
      std::uint64_t quarantined = 0;
      for (const std::uint64_t n : got.reasons) quarantined += n;
      EXPECT_EQ(quarantined, 1u);
    } else {
      EXPECT_EQ(got.strict_error, want.strict_error);
    }
    return;
  }
  EXPECT_EQ(got.kept_count, want.kept.size());
  if (path != Path::kServe) {
    test::expect_same_rows(want.kept, got.kept);
    EXPECT_EQ(got.faults, want.faults);
  }
  EXPECT_EQ(got.reasons, want.reasons);
  EXPECT_EQ(got.clamped, want.clamped);
  EXPECT_EQ(got.degraded, want.degraded);
}

// Faults every format can carry: non-finite metrics (one, two and all three
// in a row, so any reordering of the metric checks renames a reason) and a
// join flag of 2, alone and after a non-finite metric.  Epoch 3 is clean.
const std::vector<Plant> kMetricAndFlagPlants = {
    {2, Field::kBuffering, kNaN},
    {13, Field::kBitrate, kInf},
    {13, Field::kJoinTime, -kInf},
    {15, Field::kBuffering, kNaN},
    {15, Field::kBitrate, -kInf},
    {15, Field::kJoinTime, kInf},
    {24, Field::kFlag, 2},
    {26, Field::kJoinTime, kNaN},
    {26, Field::kFlag, 2},
};

Expected metric_and_flag_expectation(ErrorPolicy policy) {
  Expected want;
  std::vector<Session> base = base_sessions();
  if (policy == ErrorPolicy::kQuarantine) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (i != 2 && i != 13 && i != 15 && i != 24 && i != 26) {
        want.kept.push_back(base[i]);
      }
    }
    want.reasons = counts({{RowErrorKind::kNonFinite, 4},
                           {RowErrorKind::kBadFlag, 1}});
    want.degraded = {0, 1, 2};
    want.faults = {"non-finite buffering_ratio", "non-finite bitrate_kbps",
                   "non-finite buffering_ratio",
                   "join_failed byte must be 0 or 1, got 2",
                   "non-finite join_time_ms"};
  } else {
    base[2].quality.buffering_ratio = 0.0F;
    base[13].quality.bitrate_kbps = 0.0F;
    base[13].quality.join_time_ms = 0.0F;
    base[15].quality = QualityMetrics{0.0F, 0.0F, 0.0F,
                                      base[15].quality.join_failed};
    base[24].quality.join_failed = true;
    base[26].quality.join_time_ms = 0.0F;
    base[26].quality.join_failed = true;
    want.kept = base;
    want.clamped = 9;
  }
  want.strict_error = "non-finite buffering_ratio";
  want.strict_kept = 2;
  return want;
}

TEST(RowPolicyDifferential, AllFourPathsAgreeOnMetricAndFlagFaults) {
  const std::vector<WrittenRow> rows = written_rows(kMetricAndFlagPlants);
  for (const ErrorPolicy policy :
       {ErrorPolicy::kStrict, ErrorPolicy::kQuarantine,
        ErrorPolicy::kBestEffort}) {
    const Expected want = metric_and_flag_expectation(policy);
    for (const Path path :
         {Path::kCsv, Path::kVqtr, Path::kVqtc, Path::kServe}) {
      expect_outcome(path, policy, run_path(path, rows, policy), want);
    }
  }
}

// An attribute id one past the schema (VQTR, VQTC and serve: a CSV row
// names its attributes) and an epoch one past the cap (CSV, VQTR and serve:
// a VQTC chunk holds one epoch for all its rows), each in its own epoch.
// Neither is repairable, so best-effort quarantines them too.
TEST(RowPolicyDifferential, PathsThatCarryIdAndEpochFaultsAgree) {
  const std::vector<WrittenRow> id_rows =
      written_rows({{5, Field::kAsn, kIdsPerDim}});
  const std::vector<WrittenRow> epoch_rows =
      written_rows({{25, Field::kEpoch, kDefaultMaxEpoch + 1.0}});
  for (const ErrorPolicy policy :
       {ErrorPolicy::kStrict, ErrorPolicy::kQuarantine,
        ErrorPolicy::kBestEffort}) {
    std::vector<Session> base = base_sessions();
    Expected id_want;
    id_want.kept = base;
    id_want.kept.erase(id_want.kept.begin() + 5);
    id_want.reasons = counts({{RowErrorKind::kSchemaViolation, 1}});
    id_want.degraded = {0};
    id_want.faults = {"attribute id outside schema (Asn=3)"};
    id_want.strict_error = id_want.faults.front();
    id_want.strict_kept = 5;
    for (const Path path : {Path::kVqtr, Path::kVqtc, Path::kServe}) {
      expect_outcome(path, policy, run_path(path, id_rows, policy), id_want);
    }

    // A poisoned epoch is not tallied by its epoch: nothing is degraded.
    Expected epoch_want;
    epoch_want.kept = base;
    epoch_want.kept.erase(epoch_want.kept.begin() + 25);
    epoch_want.reasons = counts({{RowErrorKind::kBadNumber, 1}});
    epoch_want.faults = {"epoch 1048577 out of range (max 1048576)"};
    epoch_want.strict_error = epoch_want.faults.front();
    epoch_want.strict_kept = 25;
    for (const Path path : {Path::kCsv, Path::kVqtr, Path::kServe}) {
      expect_outcome(path, policy, run_path(path, epoch_rows, policy),
                     epoch_want);
    }
  }
}

}  // namespace
}  // namespace vq

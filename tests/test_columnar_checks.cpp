// Differential test of the VQTC reader's chunk checks by column: defects
// are planted in the columns of a generated container (which is then
// resealed, so the chunk checksums pass), and every read — strict,
// quarantine and best-effort, streamed and whole, version 2 and its
// version-1 rendering — must agree with a per-row reference validator kept
// here: the rows kept (with their clamps), the reject sequence (record,
// offset, kind, message), the per-epoch tallies, the IngestReport and each
// epoch's degraded flag.  The reference restates the row policy of
// columnar.h (attribute ids against the schema, then metric finiteness in
// column order, then the join flag) and shares no code with the reader.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/columns.h"
#include "src/gen/columnar.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "tests/vqtc_test_util.h"

namespace vq {
namespace {

using test::expect_same_report;
using test::expect_same_rows;
using test::VqtcChunk;

constexpr std::uint32_t kEpochs = 3;
/// Rows every chunk has at least: more than two of the column checks'
/// 64-row blocks, so defects land inside blocks as well as in a tail.
constexpr std::size_t kMinRows = 130;

/// A generated trace's columns, one batch per epoch, and its container.
struct Planted {
  AttributeSchema schema;
  std::vector<SessionColumns> epochs;
  std::string bytes;
};

Planted clean_container() {
  WorldConfig world_config;
  world_config.num_sites = 12;
  world_config.num_cdns = 3;
  world_config.num_asns = 20;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = kEpochs;
  trace_config.sessions_per_epoch = 220;
  std::stringstream csv;
  write_trace_csv(csv,
                  generate_trace(world, EventSchedule::none(kEpochs),
                                 trace_config),
                  world.schema());
  LoadedTrace trace = read_trace_csv(csv);
  Planted out;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    out.epochs.push_back(
        SessionColumns::from_sessions(trace.table.epoch(e), e));
    EXPECT_GE(out.epochs.back().size(), kMinRows) << e;
  }
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(buffer, trace.table, trace.schema);
  out.bytes = buffer.str();
  out.schema = std::move(trace.schema);
  return out;
}

/// Copies the planted columns over the container's and reseals it.
void write_columns(Planted& p) {
  const std::vector<VqtcChunk> chunks = test::vqtc_chunks(p.bytes);
  ASSERT_EQ(chunks.size(), p.epochs.size());
  for (const VqtcChunk& c : chunks) {
    const SessionColumns& cols = p.epochs[c.epoch];
    ASSERT_EQ(c.count, cols.size());
    const auto put = [&](int k, const void* data) {
      std::memcpy(p.bytes.data() + c.column_offset(k), data,
                  VqtcChunk::width(k) * c.count);
    };
    for (int d = 0; d < kNumDims; ++d) {
      put(d, cols.attrs[static_cast<std::size_t>(d)].data());
    }
    put(7, cols.buffering_ratio.data());
    put(8, cols.bitrate_kbps.data());
    put(9, cols.join_time_ms.data());
    put(10, cols.join_failed.data());
  }
  test::vqtc_reseal(p.bytes);
}

// --- the reference validator -------------------------------------------------

struct Expected {
  std::vector<std::vector<Session>> kept;  // per epoch
  std::vector<bool> degraded;              // per epoch
  std::vector<QuarantinedRow> rejects;     // in read order
  IngestReport report;
};

Expected reference(const Planted& p, ErrorPolicy policy) {
  const std::vector<VqtcChunk> chunks = test::vqtc_chunks(p.bytes);
  Expected out;
  out.report.policy = policy;
  for (const VqtcChunk& c : chunks) {
    const SessionColumns& cols = p.epochs[c.epoch];
    std::vector<Session> kept;
    std::uint64_t lost = 0;
    for (std::size_t r = 0; r < cols.size(); ++r) {
      const std::string where =
          " at record " + std::to_string(r + 1) + " in chunk for epoch " +
          std::to_string(c.epoch) + " (offset " + std::to_string(c.offset) +
          ")";
      const auto reject = [&](RowErrorKind kind, const std::string& why) {
        out.rejects.push_back(QuarantinedRow{r + 1, c.offset, kind,
                                             why + where});
      };
      Session s = cols.row(r, c.epoch);
      bool rejected = false;
      for (int d = 0; d < kNumDims && !rejected; ++d) {
        const auto dim = static_cast<AttrDim>(d);
        if (s.attrs[dim] >= p.schema.cardinality(dim)) {
          reject(RowErrorKind::kSchemaViolation,
                 "attribute id outside schema (" + std::string{dim_name(dim)} +
                     "=" + std::to_string(s.attrs[dim]) + ")");
          rejected = true;
        }
      }
      const std::array<std::pair<float*, const char*>, 3> metrics = {{
          {&s.quality.buffering_ratio, "buffering_ratio"},
          {&s.quality.bitrate_kbps, "bitrate_kbps"},
          {&s.quality.join_time_ms, "join_time_ms"},
      }};
      for (const auto& [value, label] : metrics) {
        if (rejected || std::isfinite(*value)) continue;
        if (policy == ErrorPolicy::kBestEffort) {
          *value = 0.0F;
          out.report.fields_clamped += 1;
        } else {
          reject(RowErrorKind::kNonFinite,
                 std::string{"non-finite "} + label);
          rejected = true;
        }
      }
      const std::uint8_t flag = cols.join_failed[r];
      if (!rejected && flag > 1) {
        if (policy == ErrorPolicy::kBestEffort) {
          out.report.fields_clamped += 1;  // row() already reads it as true
        } else {
          reject(RowErrorKind::kBadFlag,
                 "join_failed byte must be 0 or 1, got " +
                     std::to_string(flag));
          rejected = true;
        }
      }
      if (rejected) {
        ++lost;
      } else {
        kept.push_back(s);
      }
    }
    out.report.rows_read += cols.size();
    out.report.rows_kept += kept.size();
    out.report.rows_quarantined += lost;
    out.report.epochs.push_back(EpochIngestStats{c.epoch, kept.size(), lost});
    out.degraded.push_back(lost > 0);
    out.kept.push_back(std::move(kept));
  }
  for (const QuarantinedRow& row : out.rejects) {
    out.report.reason_counts[static_cast<std::uint8_t>(row.kind)] += 1;
  }
  out.report.quarantine = out.rejects;
  return out;
}

/// Reads `bytes` whole and streamed under `policy` and checks both against
/// the reference.  Strict reads must throw the first reject's message, and
/// the streamed one only at its epoch.
void expect_reads_match(const Planted& p, const std::string& bytes,
                        ErrorPolicy policy) {
  const Expected want = reference(p, policy);
  // Room for every reject's sample, so the whole sequence is compared.
  const RobustReadOptions options{.policy = policy,
                                  .max_quarantine_samples = 1u << 16};
  if (policy == ErrorPolicy::kStrict && !want.rejects.empty()) {
    const std::string message =
        "read_trace_columnar: " + want.rejects.front().detail;
    std::stringstream whole{bytes, std::ios::in | std::ios::binary};
    try {
      (void)read_trace_columnar_robust(whole, options);
      ADD_FAILURE() << "strict whole read did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, message);
    }
    std::stringstream in{bytes, std::ios::in | std::ios::binary};
    ColumnarReader reader{in, options};
    SessionColumns columns;
    for (std::uint32_t e = 0; e < reader.num_epochs(); ++e) {
      if (!want.degraded[e]) {
        EXPECT_FALSE(reader.read_epoch(e, columns)) << e;
        continue;
      }
      try {
        (void)reader.read_epoch(e, columns);
        ADD_FAILURE() << "strict read_epoch(" << e << ") did not throw";
      } catch (const std::runtime_error& err) {
        EXPECT_EQ(std::string{err.what()}, message);
      }
      break;
    }
    return;
  }

  std::stringstream whole{bytes, std::ios::in | std::ios::binary};
  const RobustLoadedTrace loaded = read_trace_columnar_robust(whole, options);
  std::vector<Session> all;
  for (const std::vector<Session>& rows : want.kept) {
    all.insert(all.end(), rows.begin(), rows.end());
  }
  expect_same_rows(all, loaded.table.sessions());
  expect_same_report(want.report, loaded.report);

  std::stringstream in{bytes, std::ios::in | std::ios::binary};
  ColumnarReader reader{in, options};
  ASSERT_EQ(reader.num_epochs(), kEpochs);
  SessionColumns columns;
  std::vector<Session> rows;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(reader.read_epoch(e, columns), want.degraded[e]) << e;
    rows.clear();
    columns.append_rows(e, rows);
    expect_same_rows(want.kept[e], rows);
    // A clamped flag is stored as 1, never as the raw byte.
    for (const std::uint8_t flag : columns.join_failed) EXPECT_LE(flag, 1);
  }
  expect_same_report(want.report, reader.report());
}

/// Plants the defects `plant` makes into a clean container and checks
/// every read of it, and of its version-1 rendering, against the
/// reference.
void check_case(const std::function<void(Planted&)>& plant) {
  Planted p = clean_container();
  plant(p);
  write_columns(p);
  const std::string v1 = test::vqtc_as_v1(p.bytes);
  for (const ErrorPolicy policy :
       {ErrorPolicy::kStrict, ErrorPolicy::kQuarantine,
        ErrorPolicy::kBestEffort}) {
    SCOPED_TRACE(std::string{error_policy_name(policy)});
    {
      SCOPED_TRACE("version 2");
      expect_reads_match(p, p.bytes, policy);
    }
    {
      SCOPED_TRACE("version 1");
      expect_reads_match(p, v1, policy);
    }
  }
}

std::vector<float>& metric(SessionColumns& c, int m) {
  return m == 0 ? c.buffering_ratio : m == 1 ? c.bitrate_kbps : c.join_time_ms;
}

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(ColumnarChecks, CleanContainerMatchesReference) {
  check_case([](Planted&) {});
}

TEST(ColumnarChecks, OutOfSchemaIdInEachDimension) {
  for (int d = 0; d < kNumDims; ++d) {
    SCOPED_TRACE(std::string{dim_name(static_cast<AttrDim>(d))});
    check_case([d](Planted& p) {
      const auto dim = static_cast<AttrDim>(d);
      const auto past = static_cast<std::uint16_t>(p.schema.cardinality(dim));
      p.epochs[1].attrs[static_cast<std::size_t>(d)][100] = past;
      p.epochs[2].attrs[static_cast<std::size_t>(d)][3] = 0xFFFF;
    });
  }
}

TEST(ColumnarChecks, NonFiniteValueInEachMetric) {
  for (int m = 0; m < 3; ++m) {
    for (const float bad : {kNan, kInf, -kInf}) {
      SCOPED_TRACE("metric " + std::to_string(m) + " value " +
                   std::to_string(bad));
      check_case([m, bad](Planted& p) { metric(p.epochs[0], m)[70] = bad; });
    }
  }
}

TEST(ColumnarChecks, JoinFlagOutsideZeroOne) {
  for (const std::uint8_t flag : {std::uint8_t{2}, std::uint8_t{255}}) {
    SCOPED_TRACE(std::to_string(flag));
    check_case([flag](Planted& p) { p.epochs[2].join_failed[5] = flag; });
  }
}

TEST(ColumnarChecks, SeveralDefectsInOneRow) {
  // Clamp-only defects: best-effort repairs all four fields of the row.
  check_case([](Planted& p) {
    p.epochs[1].buffering_ratio[4] = kNan;
    p.epochs[1].bitrate_kbps[4] = kInf;
    p.epochs[1].join_time_ms[4] = -kInf;
    p.epochs[1].join_failed[4] = 2;
  });
  // A schema violation first: the row is rejected under every policy and
  // nothing after it is clamped or reported.
  check_case([](Planted& p) {
    p.epochs[0].attrs[2][9] = 0xFFFF;
    p.epochs[0].attrs[5][9] = 0xFFFF;
    p.epochs[0].bitrate_kbps[9] = kNan;
    p.epochs[0].join_failed[9] = 255;
  });
}

TEST(ColumnarChecks, DefectsInTheFirstRowTheLastRowAndEveryRow) {
  check_case([](Planted& p) {
    p.epochs[0].join_time_ms.front() = kNan;
    p.epochs[1].join_failed.back() = 3;
    for (std::uint8_t& flag : p.epochs[2].join_failed) flag = 7;
  });
  check_case([](Planted& p) {
    p.epochs[0].attrs[0].front() = 0xFFFF;
    p.epochs[0].attrs[6].back() = 0xFFFF;
    for (float& v : p.epochs[2].bitrate_kbps) v = -kInf;
  });
}

}  // namespace
}  // namespace vq

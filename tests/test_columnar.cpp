// Columnar ("VQTC") container tests: round-trips, streaming reader
// semantics, the CSV -> binary -> columnar differential, and the hardened
// write-path contracts (stream-state checks, precision restoration, the
// attribute-name length cap on both sides of the wire).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/gen/columnar.h"
#include "src/gen/robust_io.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

LoadedTrace generate_loaded(std::uint32_t epochs = 3,
                            std::uint32_t per_epoch = 400) {
  WorldConfig world_config;
  world_config.num_sites = 20;
  world_config.num_cdns = 4;
  world_config.num_asns = 35;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = per_epoch;
  SessionTable table =
      generate_trace(world, EventSchedule::none(epochs), trace_config);
  std::stringstream buffer;
  write_trace_csv(buffer, table, world.schema());
  return read_trace_csv(buffer);
}

std::string columnar_bytes(const SessionTable& table,
                           const AttributeSchema& schema) {
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(buffer, table, schema);
  return buffer.str();
}

void expect_tables_equal(const SessionTable& expected,
                         const SessionTable& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Session& a = expected.sessions()[i];
    const Session& b = actual.sessions()[i];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.attrs, b.attrs);
    EXPECT_EQ(a.quality, b.quality);
  }
  ASSERT_EQ(actual.num_epochs(), expected.num_epochs());
  for (std::uint32_t e = 0; e < expected.num_epochs(); ++e) {
    EXPECT_EQ(actual.epoch(e).size(), expected.epoch(e).size()) << e;
  }
}

void expect_schemas_equal(const AttributeSchema& expected,
                          const AttributeSchema& actual) {
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    ASSERT_EQ(actual.cardinality(dim), expected.cardinality(dim));
    for (std::size_t id = 0; id < expected.cardinality(dim); ++id) {
      EXPECT_EQ(actual.name(dim, static_cast<std::uint16_t>(id)),
                expected.name(dim, static_cast<std::uint16_t>(id)));
    }
  }
}

void expect_reports_equal(const IngestReport& expected,
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
  EXPECT_EQ(actual.quarantine.size(), expected.quarantine.size());
  ASSERT_EQ(actual.epochs.size(), expected.epochs.size());
  for (std::size_t i = 0; i < expected.epochs.size(); ++i) {
    EXPECT_EQ(actual.epochs[i].epoch, expected.epochs[i].epoch);
    EXPECT_EQ(actual.epochs[i].kept, expected.epochs[i].kept);
    EXPECT_EQ(actual.epochs[i].quarantined, expected.epochs[i].quarantined);
  }
  EXPECT_EQ(actual.summary(), expected.summary());
}

TEST(Columnar, RoundTripsExactly) {
  const LoadedTrace original = generate_loaded();
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(buffer, original.table, original.schema);
  const LoadedTrace loaded = read_trace_columnar(buffer);
  expect_tables_equal(original.table, loaded.table);
  expect_schemas_equal(original.schema, loaded.schema);
}

TEST(Columnar, StreamingReaderServesEpochsIndependently) {
  const LoadedTrace original = generate_loaded(4, 250);
  std::stringstream buffer{columnar_bytes(original.table, original.schema),
                           std::ios::in | std::ios::binary};
  ColumnarReader reader{buffer};
  EXPECT_EQ(reader.num_epochs(), original.table.num_epochs());
  EXPECT_EQ(reader.total_sessions(), original.table.size());
  EXPECT_FALSE(reader.footer_recovered());

  SessionColumns columns;  // reused across epochs, like the pipeline does
  // Read out of order to prove chunks are independently addressable.
  for (const std::uint32_t e : {2u, 0u, 3u, 1u, 2u}) {
    EXPECT_FALSE(reader.read_epoch(e, columns));
    const std::span<const Session> expected = original.table.epoch(e);
    ASSERT_EQ(columns.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Session round = columns.row(i, e);
      EXPECT_EQ(round.attrs, expected[i].attrs);
      EXPECT_EQ(round.quality, expected[i].quality);
    }
  }
  EXPECT_THROW((void)reader.read_epoch(reader.num_epochs(), columns),
               std::out_of_range);
  EXPECT_FALSE(reader.report().degraded());
}

TEST(Columnar, EmptyEpochsYieldEmptyBatches) {
  // Epoch 1 has no sessions: no chunk is written, the reader serves an
  // empty, non-degraded batch for it, and neighbours are unaffected.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.site = 1}, test::good_quality(), 5);
  test::add_sessions(sessions, 2, Attrs{.site = 2}, test::bad_buffering(), 7);
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "a");
    (void)schema.intern(static_cast<AttrDim>(d), "b");
    (void)schema.intern(static_cast<AttrDim>(d), "c");
  }
  const SessionTable table{std::move(sessions)};
  std::stringstream buffer{columnar_bytes(table, schema),
                           std::ios::in | std::ios::binary};
  ColumnarReader reader{buffer};
  EXPECT_EQ(reader.num_epochs(), 3u);
  EXPECT_EQ(reader.total_sessions(), 12u);
  SessionColumns columns;
  EXPECT_FALSE(reader.read_epoch(0, columns));
  EXPECT_EQ(columns.size(), 5u);
  EXPECT_FALSE(reader.read_epoch(1, columns));
  EXPECT_TRUE(columns.empty());
  EXPECT_FALSE(reader.read_epoch(2, columns));
  EXPECT_EQ(columns.size(), 7u);
}

TEST(Columnar, FileRoundTripAndStreamingPipelineAgree) {
  const LoadedTrace original = generate_loaded(3, 300);
  const auto path =
      std::filesystem::temp_directory_path() / "vidqual_trace_test.vqtc";
  write_trace_columnar(path, original.table, original.schema);

  PipelineConfig config;
  config.cluster_params.min_sessions = 30;
  const PipelineResult in_ram = run_pipeline(original.table, config);
  ColumnarReader reader{path};
  const PipelineResult streamed = run_pipeline_streaming(reader, config);
  ASSERT_EQ(streamed.num_epochs, in_ram.num_epochs);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < in_ram.num_epochs; ++e) {
      const CriticalAnalysis& a = in_ram.at(m, e).analysis;
      const CriticalAnalysis& b = streamed.at(m, e).analysis;
      EXPECT_EQ(a.problem_sessions, b.problem_sessions);
      EXPECT_EQ(a.num_problem_clusters, b.num_problem_clusters);
      ASSERT_EQ(a.criticals.size(), b.criticals.size());
      for (std::size_t i = 0; i < a.criticals.size(); ++i) {
        EXPECT_EQ(a.criticals[i].key.raw(), b.criticals[i].key.raw());
        EXPECT_EQ(a.criticals[i].attributed, b.criticals[i].attributed);
      }
    }
  }
  std::filesystem::remove(path);
  EXPECT_THROW(ColumnarReader{path}, std::runtime_error);
}

TEST(Columnar, CsvBinaryColumnarChainIsLossless) {
  // The convert chain of the CLI: CSV -> binary -> columnar -> load must
  // preserve every session bit-exactly at each hop, and the three loaders
  // must agree on table, schema and ingest report.  The second trace has
  // many epochs: the columnar loader appends one chunk per epoch.
  for (const auto& [epochs, per_epoch] :
       {std::pair{2u, 350u}, std::pair{120u, 30u}}) {
    SCOPED_TRACE(std::to_string(epochs) + " epochs");
    const LoadedTrace original = generate_loaded(epochs, per_epoch);
    ASSERT_EQ(original.table.num_epochs(), epochs);

    std::stringstream csv;
    write_trace_csv(csv, original.table, original.schema);
    const RobustLoadedTrace from_csv = read_trace_csv_robust(csv);
    expect_tables_equal(original.table, from_csv.table);

    std::stringstream bin{std::ios::in | std::ios::out | std::ios::binary};
    write_trace_binary(bin, from_csv.table, from_csv.schema);
    const RobustLoadedTrace from_bin = read_trace_binary_robust(bin);
    expect_tables_equal(original.table, from_bin.table);

    std::stringstream col{std::ios::in | std::ios::out | std::ios::binary};
    write_trace_columnar(col, from_bin.table, from_bin.schema);
    const RobustLoadedTrace from_col = read_trace_columnar_robust(col);
    expect_tables_equal(original.table, from_col.table);

    for (const RobustLoadedTrace* loaded : {&from_bin, &from_col}) {
      expect_schemas_equal(from_csv.schema, loaded->schema);
      expect_reports_equal(from_csv.report, loaded->report);
    }
    EXPECT_EQ(from_col.report.rows_kept, original.table.size());
    EXPECT_EQ(from_col.report.epochs.size(), epochs);
  }
}

TEST(Columnar, RejectsBadMagic) {
  std::stringstream buffer{std::string{"NOPE garbage bytes"},
                           std::ios::in | std::ios::binary};
  EXPECT_THROW((void)read_trace_columnar(buffer), std::runtime_error);
}

TEST(Columnar, RejectsWrongVersion) {
  const LoadedTrace original = generate_loaded(1, 20);
  std::string bytes = columnar_bytes(original.table, original.schema);
  bytes[4] = 99;  // patch the version field
  std::stringstream patched{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)read_trace_columnar(patched), std::runtime_error);
}

TEST(Columnar, WriterReportsStreamFailure) {
  const LoadedTrace original = generate_loaded(1, 10);
  std::ostream broken{nullptr};  // every insertion sets badbit
  EXPECT_THROW(write_trace_columnar(broken, original.table, original.schema),
               std::runtime_error);
}

// --- hardened row-wise write paths (the bugfix satellites) ------------------

TEST(TraceWritePath, CsvWriterThrowsOnStreamFailure) {
  const LoadedTrace original = generate_loaded(1, 10);
  std::ostream broken{nullptr};
  EXPECT_THROW(write_trace_csv(broken, original.table, original.schema),
               std::runtime_error);
}

TEST(TraceWritePath, CsvWriterRestoresCallerPrecision) {
  const LoadedTrace original = generate_loaded(1, 10);
  std::ostringstream out;
  out.precision(3);
  write_trace_csv(out, original.table, original.schema);
  EXPECT_EQ(out.precision(), 3);

  // Restored on the failure path too.
  std::ostream broken{nullptr};
  broken.precision(5);
  EXPECT_THROW(write_trace_csv(broken, original.table, original.schema),
               std::runtime_error);
  EXPECT_EQ(broken.precision(), 5);
}

AttributeSchema schema_with_long_name(std::size_t len) {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "v");
  }
  (void)schema.intern(AttrDim::kSite, std::string(len, 'x'));
  return schema;
}

TEST(TraceWritePath, BinaryWriterRejectsOverlongAttributeNames) {
  // A name longer than the shared cap would silently truncate through the
  // u16 length field; both binary-family writers must refuse it up front.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{}, test::good_quality(), 1);
  const SessionTable table{std::move(sessions)};
  const AttributeSchema schema = schema_with_long_name(4097);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  EXPECT_THROW(write_trace_binary(buffer, table, schema),
               std::invalid_argument);
  EXPECT_THROW(write_trace_columnar(buffer, table, schema),
               std::invalid_argument);
}

TEST(TraceWritePath, NamesAtTheCapRoundTrip) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{}, test::good_quality(), 1);
  const SessionTable table{std::move(sessions)};
  const AttributeSchema schema = schema_with_long_name(4096);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, table, schema);
  const LoadedTrace loaded = read_trace_binary(buffer);
  EXPECT_EQ(loaded.schema.name(AttrDim::kSite, 1),
            std::string(4096, 'x'));
}

/// Patches the first schema name's u16 length field (offset 12 in both
/// binary-family containers: magic + version + first dim's u32 count).
std::string patch_first_name_len(std::string bytes, std::uint16_t claimed) {
  std::memcpy(bytes.data() + 12, &claimed, sizeof claimed);
  return bytes;
}

TEST(TraceWritePath, ReadersRejectOverlongClaimedNameLengths) {
  // Reader-side symmetry: a corrupted length field beyond the cap is
  // schema corruption, rejected before any allocation — in both containers.
  const LoadedTrace original = generate_loaded(1, 10);

  std::stringstream bin{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(bin, original.table, original.schema);
  std::stringstream bad_bin{patch_first_name_len(bin.str(), 4097),
                            std::ios::in | std::ios::binary};
  try {
    (void)read_trace_binary(bad_bin);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("exceeds cap"), std::string::npos)
        << e.what();
  }

  std::stringstream bad_col{
      patch_first_name_len(
          columnar_bytes(original.table, original.schema), 4097),
      std::ios::in | std::ios::binary};
  try {
    (void)read_trace_columnar(bad_col);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("exceeds cap"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace vq

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>

#include "src/gen/robust_io.h"
#include "src/gen/trace_format.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

LoadedTrace generate_loaded(std::uint32_t epochs = 2,
                            std::uint32_t per_epoch = 300) {
  WorldConfig world_config;
  world_config.num_sites = 25;
  world_config.num_cdns = 6;
  world_config.num_asns = 40;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = per_epoch;
  SessionTable table =
      generate_trace(world, EventSchedule::none(epochs), trace_config);
  // Round through CSV once to get a LoadedTrace-style schema copy.
  std::stringstream buffer;
  write_trace_csv(buffer, table, world.schema());
  return read_trace_csv(buffer);
}

TEST(TraceBinary, RoundTripsExactly) {
  const LoadedTrace original = generate_loaded();
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, original.table, original.schema);
  const LoadedTrace loaded = read_trace_binary(buffer);

  ASSERT_EQ(loaded.table.size(), original.table.size());
  for (std::size_t i = 0; i < original.table.size(); ++i) {
    const Session& a = original.table.sessions()[i];
    const Session& b = loaded.table.sessions()[i];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.attrs, b.attrs);  // binary keeps ids stable
    EXPECT_EQ(a.quality, b.quality);
  }
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    ASSERT_EQ(loaded.schema.cardinality(dim),
              original.schema.cardinality(dim));
    for (std::size_t id = 0; id < loaded.schema.cardinality(dim); ++id) {
      EXPECT_EQ(loaded.schema.name(dim, static_cast<std::uint16_t>(id)),
                original.schema.name(dim, static_cast<std::uint16_t>(id)));
    }
  }
}

TEST(TraceBinary, FloatsSurviveBitExactly) {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "v");
  }
  std::vector<Session> sessions;
  Session s = test::make_session(3, Attrs{}, test::good_quality());
  s.quality.buffering_ratio = 0.123456789F;
  s.quality.bitrate_kbps = 1234.56789F;
  s.quality.join_time_ms = 98765.4321F;
  sessions.push_back(s);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, SessionTable{sessions}, schema);
  const LoadedTrace loaded = read_trace_binary(buffer);
  ASSERT_EQ(loaded.table.size(), 1u);
  EXPECT_EQ(loaded.table.sessions()[0].quality, s.quality);
}

TEST(TraceBinary, MuchSmallerThanCsv) {
  const LoadedTrace original = generate_loaded(2, 500);
  std::stringstream csv;
  write_trace_csv(csv, original.table, original.schema);
  std::stringstream bin{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(bin, original.table, original.schema);
  EXPECT_LT(bin.str().size(), csv.str().size() / 2);
}

TEST(TraceBinary, RejectsBadMagic) {
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  buffer << "NOPE garbage";
  EXPECT_THROW((void)read_trace_binary(buffer), std::runtime_error);
}

TEST(TraceBinary, RejectsTruncation) {
  const LoadedTrace original = generate_loaded(1, 50);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, original.table, original.schema);
  const std::string full = buffer.str();
  // Truncate in the middle of the session records.
  std::stringstream cut{std::string{full.begin(),
                                    full.begin() +
                                        static_cast<long>(full.size() - 7)},
                        std::ios::in | std::ios::binary};
  EXPECT_THROW((void)read_trace_binary(cut), std::runtime_error);
}

TEST(TraceBinary, CorruptedSessionCountFailsFastWithoutHugeAllocation) {
  // Patch the 64-bit session count to an absurd value: the reader must hit
  // "truncated input" quickly instead of reserving sessions for the claimed
  // count (a multi-GB allocation) first.
  const LoadedTrace original = generate_loaded(1, 20);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, original.table, original.schema);
  std::string bytes = buffer.str();

  // The count is the little-endian u64 right before the fixed-size session
  // records (31 bytes each), one per session the table holds.
  constexpr std::size_t kRecordSize = 7 * 2 + 4 + 3 * 4 + 1;
  static_assert(kRecordSize == 31);
  ASSERT_GT(original.table.size(), 0u);
  const std::size_t count_pos =
      bytes.size() - original.table.size() * kRecordSize - 8;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_pos, sizeof count);
  ASSERT_EQ(count, original.table.size());
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + count_pos, &huge, sizeof huge);

  std::stringstream patched{bytes, std::ios::in | std::ios::binary};
  try {
    (void)read_trace_binary(patched);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("truncated input"),
              std::string::npos)
        << e.what();
  }
}

/// A stream that cannot seek, like a pipe: tellg() reports no position.
class UnseekableStreambuf : public std::streambuf {
 public:
  explicit UnseekableStreambuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(TraceBinary, ForgedSessionCountReservesOnlyWhatTheBytesHold) {
  // Only the header count lies: every record is intact.  The reader sizes
  // its rows by the bytes left, not by the count, so it reads every record
  // and then fails positioned at the first missing one, whether or not the
  // stream can report its size.
  const LoadedTrace original = generate_loaded(2, 50);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, original.table, original.schema);
  std::string bytes = buffer.str();
  const std::size_t count_pos =
      bytes.size() - original.table.size() * detail::kBinaryRecordSize - 8;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_pos, sizeof count);
  ASSERT_EQ(count, original.table.size());
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + count_pos, &huge, sizeof huge);

  std::stringstream seekable{bytes, std::ios::in | std::ios::binary};
  UnseekableStreambuf unseekable_buf{bytes};
  std::istream unseekable{&unseekable_buf};
  for (std::istream* in : {static_cast<std::istream*>(&seekable),
                           &unseekable}) {
    const RobustLoadedTrace loaded =
        read_trace_binary_robust(*in, {.policy = ErrorPolicy::kQuarantine});
    EXPECT_TRUE(loaded.report.input_truncated);
    EXPECT_EQ(loaded.report.rows_kept, original.table.size());
    ASSERT_EQ(loaded.table.size(), original.table.size());
    for (std::size_t i = 0; i < original.table.size(); ++i) {
      EXPECT_EQ(loaded.table.sessions()[i].attrs,
                original.table.sessions()[i].attrs);
    }
  }

  std::stringstream strict{bytes, std::ios::in | std::ios::binary};
  try {
    (void)read_trace_binary(strict);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("truncated input"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceBinary, RejectsWrongVersion) {
  const LoadedTrace original = generate_loaded(1, 10);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, original.table, original.schema);
  std::string bytes = buffer.str();
  bytes[4] = 99;  // patch the version field
  std::stringstream patched{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)read_trace_binary(patched), std::runtime_error);
}

TEST(TraceBinary, RejectsOutOfSchemaAttributeIds) {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "only");
  }
  std::vector<Session> sessions;
  sessions.push_back(test::make_session(0, Attrs{.site = 5},  // id 5 unknown
                                        test::good_quality()));
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, SessionTable{sessions}, schema);
  EXPECT_THROW((void)read_trace_binary(buffer), std::runtime_error);
}

/// A deterministic container: `n` good sessions, one-name schema per dim.
std::string tiny_binary(std::size_t n) {
  AttributeSchema schema;
  for (int d = 0; d < kNumDims; ++d) {
    (void)schema.intern(static_cast<AttrDim>(d), "v");
  }
  std::vector<Session> sessions;
  for (std::size_t i = 0; i < n; ++i) {
    sessions.push_back(test::make_session(0, Attrs{}, test::good_quality()));
  }
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_binary(buffer, SessionTable{std::move(sessions)}, schema);
  return buffer.str();
}

TEST(TraceBinary, RejectsBadJoinFlagByte) {
  constexpr std::size_t kRecordSize = 31;
  const std::size_t n = 8;
  std::string bytes = tiny_binary(n);
  // join_failed is the last byte of each record; corrupt record 4's (the
  // 4 records after it span the trailing 4 * kRecordSize bytes).
  bytes[bytes.size() - 4 * kRecordSize - 1] = 2;
  std::stringstream patched{bytes, std::ios::in | std::ios::binary};
  try {
    (void)read_trace_binary(patched);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "join_failed byte must be 0 or 1, got 2 at record 4"),
              std::string::npos)
        << "got: " << e.what();
  }
}

TEST(TraceBinary, RejectsNonFiniteMetrics) {
  constexpr std::size_t kRecordSize = 31;
  const std::size_t n = 8;
  std::string bytes = tiny_binary(n);
  // buffering_ratio is the f32 at record offset 18; give record 1 an Inf.
  const float inf = std::numeric_limits<float>::infinity();
  std::memcpy(bytes.data() + bytes.size() - n * kRecordSize + 18, &inf,
              sizeof inf);
  std::stringstream patched{bytes, std::ios::in | std::ios::binary};
  try {
    (void)read_trace_binary(patched);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "non-finite buffering_ratio at record 1"),
              std::string::npos)
        << "got: " << e.what();
  }
}

TEST(TraceBinary, FileRoundTrip) {
  const LoadedTrace original = generate_loaded(1, 100);
  const auto path =
      std::filesystem::temp_directory_path() / "vidqual_trace_bin_test.vqtr";
  write_trace_binary(path, original.table, original.schema);
  const LoadedTrace loaded = read_trace_binary(path);
  EXPECT_EQ(loaded.table.size(), original.table.size());
  std::filesystem::remove(path);
  EXPECT_THROW((void)read_trace_binary(path), std::runtime_error);
}

TEST(TraceBinary, RecordCodecPlacesEveryFieldAtItsDocumentedOffset) {
  // The layout docs/wire_contracts.json and DESIGN.md describe: 7 x u16
  // attribute ids, u32 epoch at 14, f32 metrics at 18, 22 and 26, the u8
  // join flag at 30.  Every field holds a distinct value, so a shifted
  // field in encode_record shows here as well as in a round trip.
  Session s;
  for (int d = 0; d < kNumDims; ++d) {
    s.attrs.v[d] = static_cast<std::uint16_t>(0x0101 * (d + 1));
  }
  s.epoch = 0x0A0B0C0D;
  s.quality.buffering_ratio = 0.25F;
  s.quality.bitrate_kbps = 1234.5F;
  s.quality.join_time_ms = 987.0F;
  s.quality.join_failed = true;
  char record[detail::kBinaryRecordSize];
  detail::encode_record(s, record);
  for (int d = 0; d < kNumDims; ++d) {
    EXPECT_EQ(detail::load_pod<std::uint16_t>(record + 2 * d), s.attrs.v[d]);
  }
  EXPECT_EQ(detail::load_pod<std::uint32_t>(record + 14), s.epoch);
  EXPECT_EQ(detail::load_pod<float>(record + 18), 0.25F);
  EXPECT_EQ(detail::load_pod<float>(record + 22), 1234.5F);
  EXPECT_EQ(detail::load_pod<float>(record + 26), 987.0F);
  EXPECT_EQ(detail::load_pod<std::uint8_t>(record + 30), 1);

  record[30] = 2;  // a flag byte the session's bool cannot hold
  const detail::DecodedRow row = detail::decode_record(record);
  EXPECT_EQ(row.session.attrs, s.attrs);
  EXPECT_EQ(row.session.epoch, s.epoch);
  EXPECT_EQ(row.session.quality, s.quality);
  EXPECT_EQ(row.join_flag, 2);
}

TEST(TraceBinary, Fnv1aUsesTheFormatsOffsetBasis) {
  // Not FNV-1a's standard basis 14695981039346656037 (which gives
  // fnv1a("a") == 0xaf63dc4c8601ec8c): every VQTC footer, version-1 chunk
  // and serve frame checksum is computed from this one.
  EXPECT_EQ(detail::kFnvOffsetBasis, 1469598103934665603ULL);
  const auto fnv = [](std::string_view text) {
    return detail::fnv1a(text.data(), text.size());
  };
  EXPECT_EQ(fnv(""), 0x14650fb0739d0383ULL);
  EXPECT_EQ(fnv("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(fnv("foobar"), 0x88fad7c0a8ff07f2ULL);
}

}  // namespace
}  // namespace vq

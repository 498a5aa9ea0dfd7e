// VQTC version 2: the word_hash64 chunk checksum, and version-1 containers
// (fnv1a chunk checksums, the format earlier releases wrote), which must
// still load to the same table, schema and IngestReport as the version-2
// file the writer makes of the same sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/gen/columnar.h"
#include "src/gen/trace_format.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "tests/fault_injection.h"
#include "tests/vqtc_test_util.h"

namespace vq {
namespace {

using detail::word_hash64;
using test::expect_same_report;
using test::expect_same_rows;
using test::VqtcChunk;

/// A 1 KiB buffer with no repeating structure.
std::vector<unsigned char> kibibyte() {
  std::vector<unsigned char> buf(1024);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (unsigned char& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  return buf;
}

TEST(WordHash64, MatchesPublishedXxh64Vectors) {
  EXPECT_EQ(word_hash64("", 0, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(word_hash64("abc", 3, 0), 0x44BC2CF5AD770999ULL);
  const std::string_view text = "Nobody inspects the spammish repetition";
  EXPECT_EQ(word_hash64(text.data(), text.size(), 0), 0xFBCEA83C8A378BF1ULL);
  // 1 KiB of the bytes 0..255 repeated: the four-lane path, recorded from
  // an independent restatement of the construction.
  std::vector<unsigned char> ramp(1024);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<unsigned char>(i);
  }
  EXPECT_EQ(word_hash64(ramp.data(), ramp.size(), 0), 0x6F3914F18FE4DF57ULL);
}

TEST(WordHash64, EverySingleBitFlipOfAKibibyteChangesIt) {
  std::vector<unsigned char> buf = kibibyte();
  const std::uint64_t base = word_hash64(buf.data(), buf.size(), 0);
  std::set<std::uint64_t> seen{base};
  for (std::size_t bit = 0; bit < 8 * buf.size(); ++bit) {
    const auto mask = static_cast<unsigned char>(1u << (bit % 8));
    buf[bit / 8] ^= mask;
    const std::uint64_t h = word_hash64(buf.data(), buf.size(), 0);
    buf[bit / 8] ^= mask;
    EXPECT_NE(h, base) << "bit " << bit;
    seen.insert(h);
  }
  EXPECT_EQ(seen.size(), 8 * buf.size() + 1);
}

TEST(WordHash64, EveryTruncationChangesIt) {
  const std::vector<unsigned char> buf = kibibyte();
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    seen.insert(word_hash64(buf.data(), len, 0));
  }
  EXPECT_EQ(seen.size(), buf.size() + 1);  // every prefix hashes apart
}

TEST(WordHash64, ChainingIsOrderSensitive) {
  const std::vector<unsigned char> buf = kibibyte();
  const unsigned char* a = buf.data();
  const unsigned char* b = buf.data() + 512;
  const std::uint64_t ab = word_hash64(b, 512, word_hash64(a, 512, 0));
  const std::uint64_t ba = word_hash64(a, 512, word_hash64(b, 512, 0));
  EXPECT_NE(ab, ba);
}

// --- the container ----------------------------------------------------------

struct Generated {
  LoadedTrace trace;
  std::string v2;  // the writer's output
};

Generated generated(std::uint32_t epochs = 3, std::uint32_t per_epoch = 300) {
  WorldConfig world_config;
  world_config.num_sites = 20;
  world_config.num_cdns = 4;
  world_config.num_asns = 35;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = per_epoch;
  Generated out;
  std::stringstream csv;
  write_trace_csv(csv, generate_trace(world, EventSchedule::none(epochs),
                                      trace_config),
                  world.schema());
  out.trace = read_trace_csv(csv);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  write_trace_columnar(buffer, out.trace.table, out.trace.schema);
  out.v2 = buffer.str();
  return out;
}

RobustLoadedTrace load(const std::string& bytes, ErrorPolicy policy) {
  std::stringstream in{bytes, std::ios::in | std::ios::binary};
  return read_trace_columnar_robust(in, {.policy = policy});
}

/// Everything a streamed read yields: each epoch's rows and degraded flag,
/// then the reader's report.
struct Streamed {
  std::vector<std::vector<Session>> epochs;
  std::vector<bool> degraded;
  IngestReport report;
};

Streamed stream(const std::string& bytes, ErrorPolicy policy) {
  std::stringstream in{bytes, std::ios::in | std::ios::binary};
  ColumnarReader reader{in, {.policy = policy}};
  Streamed out;
  SessionColumns columns;
  for (std::uint32_t e = 0; e < reader.num_epochs(); ++e) {
    out.degraded.push_back(reader.read_epoch(e, columns));
    out.epochs.emplace_back();
    columns.append_rows(e, out.epochs.back());
  }
  out.report = reader.report();
  return out;
}

void expect_same_schema(const AttributeSchema& expected,
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

/// The v1 rendering of `v2` reads exactly as `v2` does, whole and
/// streamed, under every policy (strict: the same exception, or none).
void expect_v1_reads_like_v2(const std::string& v2) {
  const std::string v1 = test::vqtc_as_v1(v2);
  ASSERT_EQ(test::vqtc_version(v1), detail::kColumnarFnvVersion);
  for (const ErrorPolicy policy :
       {ErrorPolicy::kStrict, ErrorPolicy::kQuarantine,
        ErrorPolicy::kBestEffort}) {
    SCOPED_TRACE(std::string{error_policy_name(policy)});
    std::string thrown_v2;
    std::string thrown_v1;
    RobustLoadedTrace whole_v2;
    RobustLoadedTrace whole_v1;
    try {
      whole_v2 = load(v2, policy);
    } catch (const std::runtime_error& e) {
      thrown_v2 = e.what();
    }
    try {
      whole_v1 = load(v1, policy);
    } catch (const std::runtime_error& e) {
      thrown_v1 = e.what();
    }
    EXPECT_EQ(thrown_v1, thrown_v2);
    if (!thrown_v2.empty()) continue;
    expect_same_rows(whole_v2.table.sessions(), whole_v1.table.sessions());
    EXPECT_EQ(whole_v1.table.num_epochs(), whole_v2.table.num_epochs());
    expect_same_schema(whole_v2.schema, whole_v1.schema);
    expect_same_report(whole_v2.report, whole_v1.report);

    const Streamed streamed_v2 = stream(v2, policy);
    const Streamed streamed_v1 = stream(v1, policy);
    ASSERT_EQ(streamed_v1.epochs.size(), streamed_v2.epochs.size());
    for (std::size_t e = 0; e < streamed_v2.epochs.size(); ++e) {
      expect_same_rows(streamed_v2.epochs[e], streamed_v1.epochs[e]);
    }
    EXPECT_EQ(streamed_v1.degraded, streamed_v2.degraded);
    expect_same_report(streamed_v2.report, streamed_v1.report);
  }
}

TEST(ColumnarV2, WriterStampsVersion2AndChainedChecksums) {
  const Generated g = generated();
  EXPECT_EQ(test::vqtc_version(g.v2), 2u);
  const std::vector<VqtcChunk> chunks = test::vqtc_chunks(g.v2);
  ASSERT_EQ(chunks.size(), 3u);
  for (const VqtcChunk& c : chunks) {
    const auto stored =
        detail::load_pod<std::uint64_t>(g.v2.data() + c.checksum_offset());
    EXPECT_EQ(stored, test::vqtc_chunk_checksum(g.v2, c, 2));
    EXPECT_NE(stored, test::vqtc_chunk_checksum(g.v2, c, 1));
    EXPECT_EQ(detail::load_pod<std::uint64_t>(
                  g.v2.data() + c.entry + detail::kFooterEntryChecksumPos),
              stored);
  }
  // The footer keeps its fnv1a: resealing the writer's output is a no-op.
  std::string resealed = g.v2;
  test::vqtc_reseal(resealed);
  EXPECT_EQ(resealed, g.v2);
}

TEST(ColumnarV2, SwappedColumnsFailTheChunkChecksum) {
  const Generated g = generated();
  const VqtcChunk c = test::vqtc_chunks(g.v2).at(1);
  std::string swapped = g.v2;
  const std::size_t bytes = VqtcChunk::width(0) * c.count;
  // site and cdn: equal widths, different contents.
  ASSERT_NE(swapped.compare(c.column_offset(0), bytes, swapped,
                            c.column_offset(1), bytes),
            0);
  std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(
                                         c.column_offset(0)),
                   swapped.begin() + static_cast<std::ptrdiff_t>(
                                         c.column_offset(0) + bytes),
                   swapped.begin() + static_cast<std::ptrdiff_t>(
                                         c.column_offset(1)));
  try {
    (void)load(swapped, ErrorPolicy::kStrict);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("chunk checksum mismatch"),
              std::string::npos)
        << e.what();
  }
  const RobustLoadedTrace loaded = load(swapped, ErrorPolicy::kQuarantine);
  EXPECT_EQ(loaded.report.reason_counts[static_cast<std::uint8_t>(
                RowErrorKind::kBadChecksum)],
            c.count);
  EXPECT_EQ(loaded.report.degraded_epochs(),
            (std::vector<std::uint32_t>{c.epoch}));
}

TEST(ColumnarV2, Version1ContainerLoadsIdentically) {
  const Generated g = generated();
  expect_v1_reads_like_v2(g.v2);
  const RobustLoadedTrace v1 =
      load(test::vqtc_as_v1(g.v2), ErrorPolicy::kStrict);
  expect_same_rows(g.trace.table.sessions(), v1.table.sessions());
  expect_same_schema(g.trace.schema, v1.schema);
}

TEST(ColumnarV2, Version1DamagedChunkIsQuarantinedLikeVersion2) {
  const Generated g = generated();
  const VqtcChunk c = test::vqtc_chunks(g.v2).at(2);
  // The same flipped payload byte in both versions: checksum failure, the
  // same positioned exception under strict and the same whole-chunk loss
  // otherwise.
  std::string v2 = g.v2;
  std::string v1 = test::vqtc_as_v1(g.v2);
  v2[c.column_offset(8) + 5] ^= 0x10;
  v1[c.column_offset(8) + 5] ^= 0x10;
  for (const ErrorPolicy policy :
       {ErrorPolicy::kStrict, ErrorPolicy::kQuarantine,
        ErrorPolicy::kBestEffort}) {
    SCOPED_TRACE(std::string{error_policy_name(policy)});
    if (policy == ErrorPolicy::kStrict) {
      std::string what_v1;
      std::string what_v2;
      try {
        (void)load(v1, policy);
      } catch (const std::runtime_error& e) {
        what_v1 = e.what();
      }
      try {
        (void)load(v2, policy);
      } catch (const std::runtime_error& e) {
        what_v2 = e.what();
      }
      EXPECT_NE(what_v2.find("chunk checksum mismatch"), std::string::npos);
      EXPECT_EQ(what_v1, what_v2);
      continue;
    }
    const RobustLoadedTrace a = load(v2, policy);
    const RobustLoadedTrace b = load(v1, policy);
    expect_same_rows(a.table.sessions(), b.table.sessions());
    expect_same_report(a.report, b.report);
    EXPECT_EQ(a.report.rows_quarantined, c.count);
  }
}

TEST(ColumnarV2, RefusesEveryOtherVersion) {
  const Generated g = generated(1, 20);
  for (const std::uint32_t version : {0u, 3u, 99u, 0xFFFFFFFFu}) {
    std::string bytes = g.v2;
    std::memcpy(bytes.data() + 4, &version, sizeof version);
    for (const ErrorPolicy policy :
         {ErrorPolicy::kStrict, ErrorPolicy::kBestEffort}) {
      try {
        (void)load(bytes, policy);
        FAIL() << "version " << version << " was read";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("unsupported version " +
                                             std::to_string(version)),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ColumnarV2, Version1BitFlipSweepAccountsExactly) {
  const Generated g = generated(2, 6);
  const std::string v1 = test::vqtc_as_v1(g.v2);
  const std::size_t data_start = test::vqtc_chunks(v1).at(0).offset;
  for (std::size_t off = data_start; off < v1.size(); ++off) {
    test::FaultyStream fs{v1, {.flip_offset = off}};
    try {
      const RobustLoadedTrace loaded = read_trace_columnar_robust(
          fs.stream(), {.policy = ErrorPolicy::kQuarantine});
      EXPECT_EQ(loaded.report.rows_read,
                loaded.report.rows_kept + loaded.report.rows_quarantined)
          << "flip at " << off;
      EXPECT_EQ(loaded.table.size(), loaded.report.rows_kept)
          << "flip at " << off;
    } catch (const std::out_of_range&) {
      // A flipped epoch id may push reads past num_epochs in materialize.
    }
  }
}

}  // namespace
}  // namespace vq

// Whole-trace tables that arrive indexed (DESIGN.md §4.9): each reader
// (VQTC, VQTR, CSV) counts its kept rows per epoch as it appends them and
// hands the counts to SessionTable, so no counting pass runs.  The
// differential (test_support.h, expect_indexed_as_counted) builds every
// such table a second time with the counting constructor from the same
// rows and compares rows, num_epochs() and every epoch span; the inputs
// cover each format, rows out of epoch order, empty epochs, an empty trace
// and damaged files under every policy.  Also: the EpochCounts constructor
// on its own, the huge-page advice helper, and the problem-cluster key sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/problem_cluster.h"
#include "src/gen/columnar.h"
#include "src/gen/robust_io.h"
#include "src/gen/trace_format.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "src/util/huge_pages.h"
#include "src/util/rng.h"
#include "tests/test_support.h"
#include "tests/vqtc_test_util.h"

namespace vq {
namespace {

enum class Format { kVqtc, kVqtr, kCsv };

constexpr Format kFormats[] = {Format::kVqtc, Format::kVqtr, Format::kCsv};
constexpr ErrorPolicy kPolicies[] = {
    ErrorPolicy::kStrict, ErrorPolicy::kQuarantine, ErrorPolicy::kBestEffort};

const char* format_name(Format f) {
  switch (f) {
    case Format::kVqtc: return "vqtc";
    case Format::kVqtr: return "vqtr";
    case Format::kCsv: return "csv";
  }
  return "?";
}

struct Generated {
  World world;
  SessionTable table;

  [[nodiscard]] const AttributeSchema& schema() const noexcept {
    return world.schema();
  }
};

Generated generated(std::uint32_t epochs = 4, std::uint32_t per_epoch = 300) {
  WorldConfig world_config;
  world_config.num_sites = 12;
  world_config.num_cdns = 3;
  world_config.num_asns = 20;
  World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = per_epoch;
  SessionTable table =
      generate_trace(world, EventSchedule::none(epochs), trace_config);
  return Generated{std::move(world), std::move(table)};
}

std::string render(Format f, const SessionTable& table,
                   const AttributeSchema& schema) {
  std::stringstream out{std::ios::in | std::ios::out | std::ios::binary};
  switch (f) {
    case Format::kVqtc: write_trace_columnar(out, table, schema); break;
    case Format::kVqtr: write_trace_binary(out, table, schema); break;
    case Format::kCsv: write_trace_csv(out, table, schema); break;
  }
  return out.str();
}

RobustLoadedTrace load(Format f, const std::string& bytes,
                       ErrorPolicy policy = ErrorPolicy::kStrict) {
  std::stringstream in{bytes, std::ios::in | std::ios::binary};
  const RobustReadOptions options{.policy = policy};
  switch (f) {
    case Format::kVqtc: return read_trace_columnar_robust(in, options);
    case Format::kVqtr: return read_trace_binary_robust(in, options);
    case Format::kCsv: break;
  }
  return read_trace_csv_robust(in, options);
}

/// The epoch span sizes of `table`, indexed by epoch.
std::vector<std::size_t> epoch_sizes(const SessionTable& table) {
  std::vector<std::size_t> out;
  for (std::uint32_t e = 0; e < table.num_epochs(); ++e) {
    out.push_back(table.epoch(e).size());
  }
  return out;
}

/// `rows` in a fixed shuffled order: ordinal i goes to (i * 7919) mod n,
/// which interleaves every epoch with every other.
std::vector<std::size_t> shuffled_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = (i * 7919) % n;
  return order;
}

/// A VQTR or CSV rendering of `table` whose rows appear in `order`.  The
/// rows are the writer's, moved as whole records or lines.
std::string reordered(Format f, const SessionTable& table,
                      const AttributeSchema& schema,
                      const std::vector<std::size_t>& order) {
  std::string bytes = render(f, table, schema);
  if (f == Format::kVqtr) {
    const std::size_t r = detail::kBinaryRecordSize;
    const std::size_t body = bytes.size() - table.size() * r;
    std::string out = bytes.substr(0, body);
    for (const std::size_t i : order) out += bytes.substr(body + i * r, r);
    return out;
  }
  std::istringstream in{bytes};
  std::string header;
  std::getline(in, header);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::string out = header + "\n";
  for (const std::size_t i : order) out += lines.at(i) + "\n";
  return out;
}

TEST(IndexedTable, GeneratedTraceInEveryFormat) {
  const Generated g = generated();
  for (const Format f : kFormats) {
    SCOPED_TRACE(format_name(f));
    const RobustLoadedTrace loaded = load(f, render(f, g.table, g.schema()));
    test::expect_indexed_as_counted(loaded.table);
    EXPECT_EQ(loaded.table.size(), g.table.size());
    EXPECT_EQ(epoch_sizes(loaded.table), epoch_sizes(g.table));
    if (f != Format::kCsv) {  // CSV ids follow first appearance
      test::expect_indexed_as_counted(g.table);
      for (std::size_t i = 0; i < g.table.size(); ++i) {
        EXPECT_EQ(loaded.table.sessions()[i].attrs,
                  g.table.sessions()[i].attrs);
        EXPECT_EQ(loaded.table.sessions()[i].quality,
                  g.table.sessions()[i].quality);
      }
    }
  }
}

TEST(IndexedTable, RowsOutOfEpochOrderAreScatteredStably) {
  const Generated g = generated();
  const std::vector<std::size_t> order = shuffled_order(g.table.size());
  std::vector<Session> file_order;
  for (const std::size_t i : order) file_order.push_back(g.table.sessions()[i]);
  const SessionTable counted{file_order};
  for (const Format f : {Format::kVqtr, Format::kCsv}) {
    SCOPED_TRACE(format_name(f));
    const RobustLoadedTrace loaded =
        load(f, reordered(f, g.table, g.schema(), order));
    test::expect_indexed_as_counted(loaded.table);
    ASSERT_EQ(loaded.table.size(), counted.size());
    EXPECT_EQ(epoch_sizes(loaded.table), epoch_sizes(counted));
    for (std::size_t i = 0; i < counted.size(); ++i) {
      EXPECT_EQ(loaded.table.sessions()[i].epoch, counted.sessions()[i].epoch);
      EXPECT_EQ(loaded.table.sessions()[i].quality,
                counted.sessions()[i].quality)
          << i;
    }
  }
}

/// Rows in epochs 0, 1, 4 and 6 (2, 3 and 5 empty), plus epoch 7, whose
/// every buffering ratio is NaN: no row of it survives quarantine.
std::vector<Session> sparse_rows() {
  const Generated g = generated(8, 40);
  std::vector<Session> out;
  for (Session s : g.table.sessions()) {
    if (s.epoch == 2 || s.epoch == 3 || s.epoch == 5) continue;
    if (s.epoch == 7) {
      s.quality.buffering_ratio = std::numeric_limits<float>::quiet_NaN();
    }
    out.push_back(s);
  }
  return out;
}

TEST(IndexedTable, EmptyEpochsInTheMiddleAndAtTheEnd) {
  const Generated g = generated(8, 40);
  const SessionTable sparse{sparse_rows()};
  for (const Format f : kFormats) {
    const std::string bytes = render(f, sparse, g.schema());
    for (const ErrorPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string{format_name(f)} + " under " +
                   std::string{error_policy_name(policy)});
      if (policy == ErrorPolicy::kStrict) {
        EXPECT_THROW((void)load(f, bytes, policy), std::runtime_error);
        continue;
      }
      const RobustLoadedTrace loaded = load(f, bytes, policy);
      test::expect_indexed_as_counted(loaded.table);
      const std::vector<std::size_t> sizes = epoch_sizes(loaded.table);
      // Under quarantine epoch 7 keeps nothing and is not indexed; under
      // best-effort its metrics are clamped and it is.
      ASSERT_EQ(sizes.size(), policy == ErrorPolicy::kQuarantine ? 7u : 8u);
      for (const std::uint32_t empty : {2u, 3u, 5u}) {
        EXPECT_EQ(sizes[empty], 0u) << empty;
      }
      for (const std::uint32_t full : {0u, 1u, 4u, 6u}) {
        EXPECT_EQ(sizes[full], sparse.epoch(full).size()) << full;
      }
    }
  }
}

TEST(IndexedTable, EmptyTrace) {
  const Generated g = generated(1, 10);
  for (const Format f : kFormats) {
    SCOPED_TRACE(format_name(f));
    const RobustLoadedTrace loaded =
        load(f, render(f, SessionTable{}, g.schema()));
    test::expect_indexed_as_counted(loaded.table);
    EXPECT_TRUE(loaded.table.empty());
    EXPECT_EQ(loaded.table.num_epochs(), 0u);
    EXPECT_TRUE(loaded.report.epochs.empty());
  }
}

/// Damaged renderings of one generated trace: a VQTR cut mid-record, a
/// VQTC chunk with a flipped byte, a VQTC footer whose first count is one
/// too high under a valid footer checksum, and CSV rows cut short.
std::vector<std::pair<Format, std::string>> damaged_inputs(
    const Generated& g) {
  std::vector<std::pair<Format, std::string>> out;
  std::string vqtr = render(Format::kVqtr, g.table, g.schema());
  vqtr.resize(vqtr.size() - 2 * detail::kBinaryRecordSize - 9);
  out.emplace_back(Format::kVqtr, vqtr);

  const std::string vqtc = render(Format::kVqtc, g.table, g.schema());
  const std::vector<test::VqtcChunk> chunks = test::vqtc_chunks(vqtc);
  std::string flipped = vqtc;
  flipped[chunks.at(1).column_offset(8) + 5] ^= 0x40;
  out.emplace_back(Format::kVqtc, flipped);

  std::string forged = vqtc;
  char* count = forged.data() + chunks.front().entry +
                detail::kFooterEntryCountPos;
  const std::uint64_t plus_one = chunks.front().count + 1;
  std::memcpy(count, &plus_one, sizeof plus_one);
  const std::size_t n = chunks.size() * detail::kColumnarFooterEntryBytes;
  const std::uint64_t footer_checksum =
      detail::fnv1a(forged.data() + chunks.front().entry, n);
  std::memcpy(forged.data() + chunks.front().entry + n, &footer_checksum,
              sizeof footer_checksum);
  out.emplace_back(Format::kVqtc, forged);

  std::istringstream csv{render(Format::kCsv, g.table, g.schema())};
  std::string cut;
  std::size_t line_no = 0;
  for (std::string line; std::getline(csv, line); ++line_no) {
    if (line_no % 97 == 50) line.resize(line.rfind(','));
    cut += line + "\n";
  }
  out.emplace_back(Format::kCsv, cut);
  return out;
}

TEST(IndexedTable, DamagedInputsUnderEveryPolicy) {
  const Generated g = generated();
  for (const auto& [format, bytes] : damaged_inputs(g)) {
    for (const ErrorPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string{format_name(format)} + " under " +
                   std::string{error_policy_name(policy)});
      if (policy == ErrorPolicy::kStrict) {
        EXPECT_THROW((void)load(format, bytes, policy), std::runtime_error);
        continue;
      }
      const RobustLoadedTrace loaded = load(format, bytes, policy);
      test::expect_indexed_as_counted(loaded.table);
      EXPECT_EQ(loaded.table.size(), loaded.report.rows_kept);
      std::uint64_t kept = 0;
      for (const EpochIngestStats& e : loaded.report.epochs) {
        EXPECT_EQ(e.kept, e.epoch < loaded.table.num_epochs()
                              ? loaded.table.epoch(e.epoch).size()
                              : 0u)
            << "epoch " << e.epoch;
        kept += e.kept;
      }
      EXPECT_EQ(kept, loaded.report.rows_kept);
    }
  }
}

TEST(IndexedTable, ForgedFooterCountGoesToTheScan) {
  const Generated g = generated();
  const std::string bytes = damaged_inputs(g).at(2).second;
  std::stringstream in{bytes, std::ios::in | std::ios::binary};
  const ColumnarReader reader{in, {.policy = ErrorPolicy::kQuarantine}};
  EXPECT_TRUE(reader.footer_recovered());
  EXPECT_EQ(reader.total_sessions(), g.table.size());
  const RobustLoadedTrace loaded =
      load(Format::kVqtc, bytes, ErrorPolicy::kQuarantine);
  EXPECT_EQ(loaded.table.size(), g.table.size());
  EXPECT_FALSE(loaded.report.degraded());
}

TEST(IndexedTable, EpochUint32MaxIsRefusedAsByTheCountingPass) {
  // Only a caller that lifts the epoch cap can get such a row this far.
  const Generated g = generated(2, 20);
  std::string bytes = render(Format::kVqtr, g.table, g.schema());
  const std::uint32_t poison = std::numeric_limits<std::uint32_t>::max();
  const std::size_t last_record = bytes.size() - detail::kBinaryRecordSize;
  std::memcpy(bytes.data() + last_record + 14, &poison, sizeof poison);
  std::stringstream in{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)read_trace_binary_robust(
                   in, {.policy = ErrorPolicy::kStrict, .max_epoch = poison}),
               std::out_of_range);
}

// --- the EpochCounts constructor -----------------------------------------------

std::vector<Session> rows_with_epochs(const std::vector<std::uint32_t>& epochs) {
  std::vector<Session> out;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    Session s;
    s.epoch = epochs[i];
    s.quality.bitrate_kbps = static_cast<float>(i);  // tells rows apart
    out.push_back(s);
  }
  return out;
}

TEST(IndexedTable, CountsMustSumToTheRows) {
  const std::vector<Session> rows = rows_with_epochs({0, 0, 1, 3});
  EXPECT_THROW((SessionTable{rows, EpochCounts{{2, 1, 0, 0}, true}}),
               std::invalid_argument);
  EXPECT_THROW((SessionTable{rows, EpochCounts{{2, 1, 0, 2}, true}}),
               std::invalid_argument);
  const SessionTable table{rows, EpochCounts{{2, 1, 0, 1, 0, 0}, true}};
  test::expect_indexed_as_counted(table);
  EXPECT_EQ(table.num_epochs(), 4u);  // trailing empty epochs not indexed
}

TEST(IndexedTable, UnorderedRowsTakeTheStableScatter) {
  const std::vector<Session> rows = rows_with_epochs({2, 0, 2, 1, 0, 2});
  const SessionTable table{rows, EpochCounts{{2, 1, 3}, false}};
  test::expect_indexed_as_counted(table);
  std::vector<float> order;
  for (const Session& s : table.sessions()) {
    order.push_back(s.quality.bitrate_kbps);
  }
  EXPECT_EQ(order, (std::vector<float>{1, 4, 3, 0, 2, 5}));
}

TEST(IndexedTable, ScatterRefusesRowsTheCountsDoNotHold) {
  // The counts sum to the rows but misplace them: the scatter must refuse
  // rather than write past an epoch's slots.
  const std::vector<Session> rows = rows_with_epochs({1, 0, 1, 1});
  EXPECT_THROW((SessionTable{rows, EpochCounts{{2, 2}, false}}),
               std::invalid_argument);
  EXPECT_THROW((SessionTable{rows, EpochCounts{{4}, false}}),
               std::invalid_argument);
}

// --- huge-page advice ----------------------------------------------------------

std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  return out;
}

TEST(HugePages, ZeroBytesAdviseNothing) {
  std::vector<unsigned char> buffer = pattern(64);
  EXPECT_EQ(detail::advise_huge_pages(buffer.data(), 0), 0u);
  EXPECT_EQ(detail::advise_huge_pages(nullptr, 0), 0u);
  EXPECT_EQ(buffer, pattern(64));
}

TEST(HugePages, BufferUnderTwoMiBIsLeftAlone) {
  const std::size_t n = detail::kHugePageBytes - 4096;
  std::vector<unsigned char> buffer = pattern(n);
  EXPECT_EQ(detail::advise_huge_pages(buffer.data(), buffer.size()), 0u);
  EXPECT_EQ(buffer.size(), n);
  EXPECT_EQ(buffer, pattern(n));
}

TEST(HugePages, UnalignedStartAdvisesOnlyWholeInteriorPages) {
  const std::size_t n = detail::kHugePageAdviceMinBytes +
                        3 * detail::kHugePageBytes + 12345;
  std::vector<unsigned char> buffer = pattern(n);
  const unsigned char* start = buffer.data() + 1;  // never 2 MiB-aligned
  const std::size_t advised = detail::advise_huge_pages(start, n - 1);
  EXPECT_EQ(advised % detail::kHugePageBytes, 0u);
  EXPECT_LE(advised, n - 1);
#if defined(__linux__)
  // Whole 2 MiB pages fit inside the buffer; the kernel may still refuse
  // the advice (transparent huge pages compiled out), which returns 0.
  EXPECT_TRUE(advised == 0 || advised >= 2 * detail::kHugePageBytes)
      << advised;
#else
  EXPECT_EQ(advised, 0u);
#endif
  EXPECT_EQ(buffer.size(), n);
  EXPECT_EQ(buffer, pattern(n));
}

// --- problem-cluster key sort --------------------------------------------------

TEST(ProblemKeySort, MaskMajorKeysComeOutInRawOrder) {
  // Keys as a cell store holds them: ascending masks, each mask's keys
  // ascending, every value field and radix digit varying.
  Xoshiro256ss rng{2013};
  std::vector<std::uint64_t> keys;
  for (std::uint64_t mask = 1; mask <= kFullMask; ++mask) {
    std::vector<std::uint64_t> run;
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t value = rng() & ((std::uint64_t{1} << 48) - 1);
      run.push_back((value << kNumDims) | mask);
    }
    std::sort(run.begin(), run.end());
    run.erase(std::unique(run.begin(), run.end()), run.end());
    keys.insert(keys.end(), run.begin(), run.end());
  }
  std::vector<std::uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  std::vector<std::uint64_t> scratch(keys.size());
  const std::uint64_t* sorted =
      detail::radix_sort_keys(keys.data(), scratch.data(), keys.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), sorted));
}

TEST(ProblemKeySort, ListsAtEveryFloorMatchAComparisonSort) {
  // Floor 1 gives lists long enough for the radix sort, the higher floors
  // lists that take std::sort.
  const Generated g = generated(1, 3000);
  const LeafFold fold = fold_sessions(g.table.epoch(0), ProblemThresholds{}, 0);
  const EpochClusterTable table = expand_fold(fold, ClusterEngineConfig{});
  for (const std::uint32_t floor : {1u, 20u, 150u}) {
    ProblemClusterParams params;
    params.min_sessions = floor;
    const auto analyses = find_critical_clusters(fold, table, params);
    std::size_t longest = 0;
    for (const Metric m : kAllMetrics) {
      std::vector<std::uint64_t> want;
      for (const ProblemCluster& pc :
           find_problem_clusters(table, params, m)) {
        want.push_back(pc.key.raw());
      }
      std::sort(want.begin(), want.end());
      const auto& got =
          analyses[static_cast<std::size_t>(m)].problem_cluster_keys;
      EXPECT_EQ(got, want) << metric_name(m) << " at floor " << floor;
      longest = std::max(longest, got.size());
    }
    if (floor == 1) {
      EXPECT_GE(longest, detail::kRadixMinProblemKeys);
    } else {
      EXPECT_GE(longest, 2u) << "floor " << floor << " sorts nothing";
      EXPECT_LT(longest, detail::kRadixMinProblemKeys) << "floor " << floor;
    }
  }
}

}  // namespace
}  // namespace vq

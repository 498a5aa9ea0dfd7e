// Differential tests for the column-batch fold (core/columns.h): on the
// same sessions, fold_codes_columns must reproduce the row-wise problem
// bits and leaf keys bit for bit, fold_sessions_columns the row-wise fold —
// and run_pipeline_streaming must match run_pipeline at every workers
// setting.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "tests/check_analysis.h"
#include "tests/test_support.h"

namespace vq {
namespace {

SessionTable medium_trace(std::uint32_t epochs = 3,
                          std::uint32_t per_epoch = 6'000) {
  WorldConfig world_config;
  world_config.num_sites = 14;
  world_config.num_cdns = 3;
  world_config.num_asns = 30;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = epochs;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = per_epoch;
  return generate_trace(world, events, trace_config);
}

TEST(ColumnsBatch, RoundTripsRowsExactly) {
  const SessionTable trace = medium_trace(2, 500);
  const std::span<const Session> sessions = trace.epoch(1);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 1);
  ASSERT_EQ(columns.size(), sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const Session round = columns.row(i, 1);
    EXPECT_EQ(round.attrs, sessions[i].attrs);
    EXPECT_EQ(round.quality, sessions[i].quality);
    EXPECT_EQ(round.epoch, 1u);
  }
  std::vector<Session> rows;
  columns.append_rows(1, rows);
  ASSERT_EQ(rows.size(), sessions.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].attrs, sessions[i].attrs);
    EXPECT_EQ(rows[i].quality, sessions[i].quality);
  }
}

TEST(ColumnsBatch, AppendRowsReallocatesLogarithmically) {
  // Materialising a trace appends one batch per epoch to one vector; 336
  // hourly batches must move it O(log rows) times, not once per batch.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{.site = 5}, test::bad_bitrate(),
                     25);
  const SessionColumns batch = SessionColumns::from_sessions(sessions, 0);
  constexpr std::uint32_t kEpochs = 336;
  std::vector<Session> rows;
  std::size_t moves = 0;  // data() pointers seen, each unlike the last
  const Session* data = rows.data();
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    batch.append_rows(e, rows);
    if (rows.data() != data) {
      ++moves;
      data = rows.data();
    }
  }
  ASSERT_EQ(rows.size(), kEpochs * batch.size());
  EXPECT_LE(moves, 2u * std::bit_width(kEpochs));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].epoch, i / batch.size());
    EXPECT_EQ(rows[i].attrs, sessions[i % batch.size()].attrs);
    EXPECT_EQ(rows[i].quality, sessions[i % batch.size()].quality);
  }
}

TEST(ColumnsBatch, FromSessionsRejectsEpochMismatch) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 3, test::Attrs{}, test::good_quality(), 1);
  EXPECT_THROW((void)SessionColumns::from_sessions(sessions, 0),
               std::invalid_argument);
}

TEST(ColumnsBatch, ClearRetainsNothingButCapacity) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{.site = 2}, test::failed_join(),
                     9);
  SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  ASSERT_EQ(columns.size(), 9u);
  columns.clear();
  EXPECT_TRUE(columns.empty());
  for (const auto& col : columns.attrs) EXPECT_TRUE(col.empty());
  EXPECT_TRUE(columns.buffering_ratio.empty());
}

TEST(ColumnsBatch, ProblemBitsMatchRowWisePath) {
  const SessionTable trace = medium_trace(1, 20'000);
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint64_t> codes(columns.size());
  fold_codes_columns(columns, thresholds, codes);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if ((codes[i] & 15u) != thresholds.problem_bits(sessions[i].quality)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << batch_kernel_name();
}

TEST(ColumnsBatch, ProblemBitsEdgeValuesMatchScalar) {
  // Threshold-exact, NaN, infinity, and join-failure rows: the column
  // compares must agree with the per-session float compares on every one.
  // Rows are repeated past one 64-row block, so the block loops and the
  // tail loop both meet every edge.
  const ProblemThresholds thresholds;
  const float at_buf = static_cast<float>(thresholds.max_buffering_ratio);
  const float at_bitrate = static_cast<float>(thresholds.min_bitrate_kbps);
  const float at_join = static_cast<float>(thresholds.max_join_time_ms);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const QualityMetrics edge_cases[] = {
      {at_buf, at_bitrate, at_join, false},          // exactly at: not problems
      {std::nextafter(at_buf, 1.0F), at_bitrate, at_join, false},
      {at_buf, std::nextafter(at_bitrate, 0.0F), at_join, false},
      {at_buf, at_bitrate, std::nextafter(at_join, 1e9F), false},
      {nan, nan, nan, false},                        // NaN compares false
      {inf, -inf, inf, false},
      {0.5F, 100.0F, 90'000.0F, true},               // join failure dominates
      {nan, inf, -inf, true},
      {-0.0F, 0.0F, -1.0F, false},
  };
  std::vector<Session> sessions;
  for (int rep = 0; rep < 13; ++rep) {
    for (const QualityMetrics& q : edge_cases) {
      sessions.push_back(test::make_session(0, test::Attrs{}, q));
    }
  }
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint64_t> codes(columns.size());
  fold_codes_columns(columns, thresholds, codes);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(codes[i] & 15u, thresholds.problem_bits(sessions[i].quality))
        << "row " << i;
  }
}

TEST(ColumnsBatch, PackedLeafKeysMatchClusterKeyPack) {
  const SessionTable trace = medium_trace(1, 20'000);
  const std::span<const Session> sessions = trace.epoch(0);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint64_t> codes(columns.size());
  fold_codes_columns(columns, {}, codes);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if ((codes[i] | kFullMask) !=
        ClusterKey::pack(kFullMask, sessions[i].attrs).raw()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ColumnsBatch, PackRejectsValuesThatOverflowTheirField) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{}, test::good_quality(), 3);
  SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  // VodLive has a 2-bit field; 4 does not fit.
  columns.attrs[static_cast<int>(AttrDim::kVodLive)][1] = 4;
  std::vector<std::uint64_t> codes(columns.size());
  EXPECT_THROW(fold_codes_columns(columns, {}, codes), std::out_of_range);
}

TEST(ColumnsBatch, KernelEntryPointsRejectMisSizedSpans) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{}, test::good_quality(), 5);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  std::vector<std::uint64_t> short_codes(4);
  std::vector<std::uint64_t> long_codes(6);
  EXPECT_THROW(fold_codes_columns(columns, {}, short_codes),
               std::invalid_argument);
  EXPECT_THROW(fold_codes_columns(columns, {}, long_codes),
               std::invalid_argument);
}

TEST(ColumnsFold, MatchesRowWiseFoldOnGeneratedTrace) {
  const SessionTable trace = medium_trace();
  const ProblemThresholds thresholds;
  for (std::uint32_t e = 0; e < trace.num_epochs(); ++e) {
    const std::span<const Session> sessions = trace.epoch(e);
    const LeafFold expected = fold_sessions(sessions, thresholds, e);
    const SessionColumns columns = SessionColumns::from_sessions(sessions, e);
    EXPECT_TRUE(test::folds_equal(
        expected, fold_sessions_columns(columns, thresholds, e)));
  }
}

TEST(ColumnsFold, MatchesRowWiseFoldAcrossBlockBoundaries) {
  // The column fold runs in 64-session blocks; sweep sizes around block
  // boundaries (powers of two +/- 1) so partial final blocks and exact
  // multiples are both covered.
  const ProblemThresholds thresholds;
  WorldConfig world_config;
  world_config.num_sites = 14;
  const World world = World::build(world_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = 5'000;
  trace_config.diurnal_amplitude = 0.0;  // epoch 0 gets the full 5k
  const SessionTable trace =
      generate_trace(world, EventSchedule::none(1), trace_config);
  const std::span<const Session> all = trace.epoch(0);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{2047}, std::size_t{2048},
        std::size_t{2049}, std::size_t{2111}, std::size_t{4096},
        std::size_t{4101}}) {
    ASSERT_LE(n, all.size());
    const std::span<const Session> sessions = all.subspan(0, n);
    const LeafFold expected = fold_sessions(sessions, thresholds, 0);
    const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
    EXPECT_TRUE(test::folds_equal(
        expected, fold_sessions_columns(columns, thresholds, 0)));
  }
}

TEST(ColumnsFold, EmptyBatchFoldsToEmptyLeaves) {
  const SessionColumns columns;
  const LeafFold fold = fold_sessions_columns(columns, {}, 5);
  EXPECT_EQ(fold.epoch, 5u);
  EXPECT_EQ(fold.root.sessions, 0u);
  EXPECT_EQ(fold.leaves.size(), 0u);
}

TEST(ColumnsFold, InstructionSetNameIsKnown) {
  const std::string_view name = batch_kernel_name();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "scalar") << name;
}

/// In-memory EpochColumnsSource over a SessionTable: the test double the
/// streaming pipeline differential runs against.
class TableColumnsSource : public EpochColumnsSource {
 public:
  explicit TableColumnsSource(const SessionTable& table) : table_(table) {}

  [[nodiscard]] std::uint32_t num_epochs() const override {
    return table_.num_epochs();
  }

  bool read_epoch(std::uint32_t e, SessionColumns& out) override {
    out.clear();
    for (const Session& s : table_.epoch(e)) out.push_back(s);
    return false;
  }

 private:
  const SessionTable& table_;
};

void expect_analyses_identical(const CriticalAnalysis& expected,
                               const CriticalAnalysis& actual) {
  EXPECT_EQ(expected.epoch, actual.epoch);
  EXPECT_EQ(expected.metric, actual.metric);
  EXPECT_EQ(expected.sessions, actual.sessions);
  EXPECT_EQ(expected.problem_sessions, actual.problem_sessions);
  EXPECT_EQ(expected.problem_sessions_in_pc, actual.problem_sessions_in_pc);
  EXPECT_EQ(expected.num_problem_clusters, actual.num_problem_clusters);
  EXPECT_EQ(expected.problem_cluster_keys, actual.problem_cluster_keys);
  // Bit-identical, not approximately equal: the streaming fold must feed
  // the exact same numbers into the attribution solver.
  EXPECT_EQ(expected.attributed_mass, actual.attributed_mass);
  ASSERT_EQ(expected.criticals.size(), actual.criticals.size());
  for (std::size_t i = 0; i < expected.criticals.size(); ++i) {
    EXPECT_EQ(expected.criticals[i].key.raw(), actual.criticals[i].key.raw());
    EXPECT_EQ(expected.criticals[i].attributed,
              actual.criticals[i].attributed);
    EXPECT_EQ(expected.criticals[i].stats, actual.criticals[i].stats);
  }
}

TEST(StreamingPipeline, MatchesInMemoryPipelineAtEveryWorkersShards) {
  const SessionTable trace = medium_trace(3, 4'000);
  PipelineConfig config;
  config.cluster_params.min_sessions = 40;

  config.workers = 1;
  const PipelineResult baseline = run_pipeline(trace, config);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    config.workers = workers;
    TableColumnsSource source{trace};
    const PipelineResult streamed = run_pipeline_streaming(source, config);
    ASSERT_EQ(streamed.num_epochs, baseline.num_epochs);
    EXPECT_TRUE(streamed.degraded_epochs.empty());
    for (const Metric m : kAllMetrics) {
      for (std::uint32_t e = 0; e < baseline.num_epochs; ++e) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expect_analyses_identical(baseline.at(m, e).analysis,
                                  streamed.at(m, e).analysis);
        EXPECT_EQ(test::check_analysis(streamed.at(m, e).analysis,
                                       config.cluster_params.min_sessions),
                  "");
      }
    }
    // Cross-check the parallel in-memory pipeline at the same setting —
    // three-way agreement pins both paths to the serial baseline.
    const PipelineResult parallel = run_pipeline(trace, config);
    for (const Metric m : kAllMetrics) {
      for (std::uint32_t e = 0; e < baseline.num_epochs; ++e) {
        expect_analyses_identical(baseline.at(m, e).analysis,
                                  parallel.at(m, e).analysis);
      }
    }
  }
}

TEST(StreamingPipeline, PropagatesDegradedEpochsFromSource) {
  /// Source that flags one epoch as degraded.
  class DegradedSource final : public TableColumnsSource {
   public:
    DegradedSource(const SessionTable& table, std::uint32_t degraded)
        : TableColumnsSource(table), degraded_(degraded) {}
    bool read_epoch(std::uint32_t e, SessionColumns& out) override {
      (void)TableColumnsSource::read_epoch(e, out);
      return e == degraded_;
    }

   private:
    std::uint32_t degraded_;
  };
  const SessionTable trace = medium_trace(3, 300);
  DegradedSource source{trace, 1};
  const PipelineResult result = run_pipeline_streaming(source, {});
  EXPECT_EQ(result.degraded_epochs, (std::vector<std::uint32_t>{1}));
  EXPECT_FALSE(result.is_degraded(0));
  EXPECT_TRUE(result.is_degraded(1));
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      EXPECT_EQ(test::check_analysis(result.at(m, e).analysis,
                                     PipelineConfig{}.cluster_params
                                         .min_sessions),
                "");
    }
  }
}

}  // namespace
}  // namespace vq

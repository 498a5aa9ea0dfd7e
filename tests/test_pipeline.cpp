// Integration tests: the full pipeline over generated traces, checking
// cross-module consistency invariants.

#include "src/core/pipeline.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>

#include "src/core/prevalence.h"
#include "src/gen/tracegen.h"
#include "tests/check_analysis.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

struct GeneratedFixture : ::testing::Test {
  GeneratedFixture() {
    WorldConfig world_config;
    world_config.num_sites = 50;
    world_config.num_cdns = 8;
    world_config.num_asns = 120;
    world = World::build(world_config);

    EventScheduleConfig event_config;
    event_config.num_epochs = 8;
    event_config.events_per_epoch = 2.0;
    events = EventSchedule::generate(world, event_config);

    TraceConfig trace_config;
    trace_config.num_epochs = 8;
    trace_config.sessions_per_epoch = 1'500;
    trace = generate_trace(world, events, trace_config);

    config.cluster_params.min_sessions = 40;
    result = run_pipeline(trace, config);
  }

  World world = World::build(WorldConfig{.num_sites = 1, .num_cdns = 1,
                                         .num_asns = 1});
  EventSchedule events = EventSchedule::none(0);
  SessionTable trace;
  PipelineConfig config;
  PipelineResult result;
};

TEST_F(GeneratedFixture, EpochAccountingIsConsistent) {
  ASSERT_EQ(result.num_epochs, 8u);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const CriticalAnalysis& a = result.at(m, e).analysis;
      EXPECT_EQ(a.epoch, e);
      EXPECT_EQ(a.metric, m);
      EXPECT_EQ(a.sessions, trace.epoch(e).size());
      // Problem sessions counted two ways must agree.
      std::uint64_t manual = 0;
      for (const Session& s : trace.epoch(e)) {
        if (config.thresholds.is_problem(m, s.quality)) ++manual;
      }
      EXPECT_EQ(a.problem_sessions, manual);
    }
  }
}

TEST_F(GeneratedFixture, CoverageChainInequalityHolds) {
  // attributed mass <= problem sessions in problem clusters <= problem
  // sessions, for every epoch and metric.
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const CriticalAnalysis& a = result.at(m, e).analysis;
      EXPECT_LE(a.attributed_mass,
                static_cast<double>(a.problem_sessions_in_pc) + 1e-6);
      EXPECT_LE(a.problem_sessions_in_pc, a.problem_sessions);
      EXPECT_LE(a.criticals.size(),
                static_cast<std::size_t>(a.num_problem_clusters));
    }
  }
}

TEST_F(GeneratedFixture, EveryCriticalClusterIsAProblemCluster) {
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& analysis = result.at(m, e).analysis;
      EXPECT_EQ(test::check_analysis(analysis,
                                     config.cluster_params.min_sessions),
                "");
      const auto& pc_keys = analysis.problem_cluster_keys;
      EXPECT_TRUE(std::is_sorted(pc_keys.begin(), pc_keys.end()));
      EXPECT_EQ(pc_keys.size(), analysis.num_problem_clusters);
      for (const CriticalRecord& c : analysis.criticals) {
        EXPECT_TRUE(std::binary_search(pc_keys.begin(), pc_keys.end(),
                                       c.key.raw()))
            << "critical cluster not in problem-cluster set";
        // Stats satisfy the flagging conditions.
        EXPECT_GE(c.stats.sessions, config.cluster_params.min_sessions);
        EXPECT_GE(c.stats.problem_ratio(m),
                  config.cluster_params.ratio_multiplier *
                      analysis.global_ratio -
                      1e-12);
      }
    }
  }
}

TEST_F(GeneratedFixture, AggregatesAreMeansOfEpochValues) {
  const auto agg = result.aggregates(Metric::kBufRatio);
  double mean_pc = 0.0;
  for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
    mean_pc += result.at(Metric::kBufRatio, e).analysis.num_problem_clusters;
  }
  mean_pc /= result.num_epochs;
  EXPECT_NEAR(agg.mean_problem_clusters, mean_pc, 1e-9);
  EXPECT_GE(agg.mean_problem_coverage, agg.mean_critical_coverage - 1e-9);
  EXPECT_LE(agg.mean_problem_coverage, 1.0);
}

TEST_F(GeneratedFixture, TotalProblemSessionsRangeQueries) {
  const auto whole =
      result.total_problem_sessions(Metric::kJoinFailure, 0, 8);
  const auto first_half =
      result.total_problem_sessions(Metric::kJoinFailure, 0, 4);
  const auto second_half =
      result.total_problem_sessions(Metric::kJoinFailure, 4, 8);
  EXPECT_EQ(whole, first_half + second_half);
  EXPECT_EQ(result.total_problem_sessions(Metric::kJoinFailure, 8, 99), 0u);
}

TEST_F(GeneratedFixture, ParallelPipelineMatchesSerial) {
  PipelineConfig parallel_config = config;
  parallel_config.workers = 4;
  const PipelineResult parallel = run_pipeline(trace, parallel_config);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& a = result.at(m, e).analysis;
      const auto& b = parallel.at(m, e).analysis;
      EXPECT_EQ(a.problem_sessions, b.problem_sessions);
      EXPECT_EQ(a.num_problem_clusters, b.num_problem_clusters);
      ASSERT_EQ(a.criticals.size(), b.criticals.size());
      for (std::size_t i = 0; i < a.criticals.size(); ++i) {
        EXPECT_EQ(a.criticals[i].key, b.criticals[i].key);
        EXPECT_DOUBLE_EQ(a.criticals[i].attributed,
                         b.criticals[i].attributed);
      }
    }
  }
}

TEST_F(GeneratedFixture, ShardedExpansionMatchesSerial) {
  // Force intra-epoch sharding (workers > epochs would also trigger it via
  // the heuristic; pin it explicitly so the test exercises the knob).
  PipelineConfig sharded_config = config;
  sharded_config.workers = 4;
  sharded_config.shards = 4;
  const PipelineResult sharded = run_pipeline(trace, sharded_config);
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const CriticalAnalysis& a = result.at(m, e).analysis;
      const CriticalAnalysis& b = sharded.at(m, e).analysis;
      EXPECT_EQ(test::check_analysis(b, config.cluster_params.min_sessions),
                "");
      EXPECT_EQ(a.problem_sessions, b.problem_sessions);
      EXPECT_EQ(a.problem_cluster_keys, b.problem_cluster_keys);
      ASSERT_EQ(a.criticals.size(), b.criticals.size());
      for (std::size_t i = 0; i < a.criticals.size(); ++i) {
        EXPECT_EQ(a.criticals[i].key, b.criticals[i].key);
      }
    }
  }
}

TEST_F(GeneratedFixture, EpochMismatchSurfacesAndTheNextCallMatches) {
  // SessionTable indexes its rows by epoch, so a row whose epoch disagrees
  // with its span can only come from a row changed after indexing: change
  // one of epoch 5's in a copy of the trace.  The epoch task that folds it
  // throws; the throw must surface from run_pipeline, serial or on the
  // pool, and a later call on the intact trace must read the serial
  // result exactly.
  SessionTable bad = trace;
  const std::span<const Session> five = bad.epoch(5);
  ASSERT_FALSE(five.empty());
  const_cast<Session&>(five[five.size() / 2]).epoch = 4;
  for (const std::size_t workers : {1u, 3u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    PipelineConfig c = config;
    c.workers = workers;
    EXPECT_THROW((void)run_pipeline(bad, c), std::invalid_argument);
    const PipelineResult again = run_pipeline(trace, c);
    ASSERT_EQ(again.num_epochs, result.num_epochs);
    for (const Metric m : kAllMetrics) {
      for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
        EXPECT_EQ(again.at(m, e).analysis, result.at(m, e).analysis)
            << metric_name(m) << " epoch " << e;
      }
    }
  }
}

TEST(Pipeline, EmptyTable) {
  const PipelineResult result = run_pipeline(SessionTable{}, {});
  EXPECT_EQ(result.num_epochs, 0u);
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(result.aggregates(m).mean_problem_clusters, 0.0);
  }
}

TEST(Pipeline, ArityCappedEngineFindsCoarseCauses) {
  // With max_arity = 1 only single-attribute clusters exist; a bad CDN is
  // still detected.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 1},
                     test::bad_buffering(), 60);
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 2},
                     test::good_quality(), 40);
  test::add_sessions(sessions, 0, Attrs{.cdn = 2, .asn = 3},
                     test::good_quality(), 900);
  PipelineConfig config;
  config.cluster_params.min_sessions = 50;
  config.engine.max_arity = 1;
  const PipelineResult result = run_pipeline(SessionTable{sessions}, config);
  const auto& criticals = result.at(Metric::kBufRatio, 0).analysis.criticals;
  ASSERT_FALSE(criticals.empty());
  for (const auto& c : criticals) EXPECT_EQ(c.key.arity(), 1);
}

}  // namespace
}  // namespace vq

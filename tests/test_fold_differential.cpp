// Differential tests for the leaf-folded aggregation path: on the same
// trace, the folded two-pass engine (serial and sharded) must reproduce a
// session-by-session lattice bit for bit — root and every cluster cell — at
// multiple arity caps.  The unfolded reference is the oracle's aggregation
// (tests/oracle.h): one std::map per attribute subset, filled straight from
// the sessions.

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/gen/tracegen.h"
#include "src/util/thread_pool.h"
#include "tests/oracle.h"
#include "tests/oracle_match.h"
#include "tests/test_support.h"

namespace vq {
namespace {

SessionTable big_trace() {
  // A small attribute universe so leaves repeat heavily (the regime the fold
  // targets): ~sites x cdns x asns x device combos << 50k sessions.
  WorldConfig world_config;
  world_config.num_sites = 12;
  world_config.num_cdns = 3;
  world_config.num_asns = 25;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = 1;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = 50'000;
  trace_config.diurnal_amplitude = 0.0;  // epoch 0 gets the full 50k
  return generate_trace(world, events, trace_config);
}

class FoldDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FoldDifferential, FoldedMatchesUnfoldedOn50kSessions) {
  static const SessionTable trace = big_trace();
  ASSERT_GE(trace.size(), 50'000u);
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;

  ClusterEngineConfig config;
  config.max_arity = GetParam();

  const oracle::Lattice unfolded =
      oracle::aggregate(sessions, thresholds, config.max_arity);

  // The distinct-leaf count must be well below the session count for the
  // fold to be a meaningful compression (and for this test to exercise it).
  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  EXPECT_LT(fold.leaves.size(), sessions.size() / 2);

  test::expect_cells_match(expand_fold(fold, config), unfolded);
  ThreadPool pool{4};
  for (const std::size_t shards : {2u, 7u}) {
    test::expect_cells_match(expand_fold(fold, config, &pool, shards),
                             unfolded);
  }
  // The public one-call entry point folds and expands the same way.
  test::expect_cells_match(aggregate_epoch(sessions, thresholds, config, 0),
                           unfolded);
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, FoldDifferential, ::testing::Values(2, 7),
                         [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(FoldDifferential, CriticalAnalysisAgreesAcrossOverloads) {
  // The fold-based and session-span find_critical_clusters overloads must
  // produce the same analysis (both run the one sweep over the table).
  static const SessionTable trace = big_trace();
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};

  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis from_fold =
        find_critical_clusters(fold, table, params, m);
    const CriticalAnalysis from_span =
        find_critical_clusters(sessions, table, thresholds, params, m);
    EXPECT_EQ(from_fold.problem_sessions, from_span.problem_sessions);
    EXPECT_EQ(from_fold.problem_sessions_in_pc,
              from_span.problem_sessions_in_pc);
    ASSERT_EQ(from_fold.criticals.size(), from_span.criticals.size());
    for (std::size_t i = 0; i < from_fold.criticals.size(); ++i) {
      EXPECT_EQ(from_fold.criticals[i].key, from_span.criticals[i].key);
      EXPECT_DOUBLE_EQ(from_fold.criticals[i].attributed,
                       from_span.criticals[i].attributed);
    }
  }
}

TEST(FoldDifferential, FoldAccumulatesPerLeafCounters) {
  std::vector<Session> sessions;
  const test::Attrs a{.site = 1, .cdn = 2};
  const test::Attrs b{.site = 3, .cdn = 2};
  test::add_sessions(sessions, 0, a, test::bad_buffering(), 5);
  test::add_sessions(sessions, 0, a, test::good_quality(), 7);
  test::add_sessions(sessions, 0, b, test::good_quality(), 2);
  const LeafFold fold = fold_sessions(sessions, {}, 0);

  EXPECT_EQ(fold.leaves.size(), 2u);
  EXPECT_EQ(fold.root.sessions, 14u);
  const ClusterStats* leaf_a =
      fold.leaves.find(ClusterKey::pack(kFullMask, a.vec()).raw());
  ASSERT_NE(leaf_a, nullptr);
  EXPECT_EQ(leaf_a->sessions, 12u);
  EXPECT_EQ(leaf_a->problems[static_cast<int>(Metric::kBufRatio)], 5u);
}

TEST(FoldDifferential, FoldRejectsEpochMismatch) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 3, test::Attrs{}, test::good_quality(), 1);
  EXPECT_THROW((void)fold_sessions(sessions, {}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace vq

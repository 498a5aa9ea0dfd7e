// Differential tests for the incremental delta engine: feeding
// IncrementalLattice one fold per epoch must reproduce the from-scratch
// expand_fold + find_critical_clusters path bit for bit — criticals (same
// order), attribution doubles, problem_cluster_keys, problem_sessions_in_pc
// — at every epoch boundary, under churn, retirement, re-addition, gaps,
// and empty epochs.

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/incremental.h"
#include "src/gen/events.h"
#include "src/gen/tracegen.h"
#include "src/gen/world.h"
#include "tests/test_support.h"

namespace vq {
namespace {

/// Bit-exact equality of every analysis field, including doubles (the
/// engines are required to share one floating-point accumulation order, so
/// EXPECT_EQ — not NEAR — is the contract).
void expect_analyses_identical(const CriticalAnalysis& expected,
                               const CriticalAnalysis& actual) {
  EXPECT_EQ(expected.epoch, actual.epoch);
  EXPECT_EQ(expected.metric, actual.metric);
  EXPECT_EQ(expected.sessions, actual.sessions);
  EXPECT_EQ(expected.problem_sessions, actual.problem_sessions);
  EXPECT_EQ(expected.problem_sessions_in_pc, actual.problem_sessions_in_pc);
  EXPECT_EQ(expected.global_ratio, actual.global_ratio);
  EXPECT_EQ(expected.num_problem_clusters, actual.num_problem_clusters);
  EXPECT_EQ(expected.problem_cluster_keys, actual.problem_cluster_keys);
  EXPECT_EQ(expected.attributed_mass, actual.attributed_mass);
  ASSERT_EQ(expected.criticals.size(), actual.criticals.size());
  for (std::size_t i = 0; i < expected.criticals.size(); ++i) {
    EXPECT_EQ(expected.criticals[i].key, actual.criticals[i].key);
    EXPECT_EQ(expected.criticals[i].attributed, actual.criticals[i].attributed);
    EXPECT_EQ(expected.criticals[i].stats, actual.criticals[i].stats);
  }
}

/// Runs the incremental engine against the from-scratch path over a stream
/// of epochs and asserts bit-identity at every boundary.  Also checks that
/// the retained cell content matches the from-scratch table exactly: every
/// live retained cell is a from-scratch cell with equal stats, there are as
/// many of them as from-scratch cells (the retained keys are distinct, so
/// that covers every from-scratch cell), and every other retained cell has
/// decayed to zero.
void run_differential(const std::vector<std::vector<Session>>& epochs,
                      const ProblemClusterParams& params) {
  const ProblemThresholds thresholds;
  const ClusterEngineConfig config;

  IncrementalLattice lattice{params};
  for (std::uint32_t e = 0; e < epochs.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const LeafFold fold = fold_sessions(epochs[e], thresholds, e);
    const EpochClusterTable table = expand_fold(fold, config);
    const std::array<CriticalAnalysis, kNumMetrics> actual =
        lattice.advance(fold);
    for (const Metric m : kAllMetrics) {
      const CriticalAnalysis expected =
          find_critical_clusters(fold, table, params, m);
      expect_analyses_identical(expected,
                                actual[static_cast<std::uint8_t>(m)]);
    }

    // Content differential.
    const std::span<const std::uint64_t> keys = lattice.cell_keys();
    const std::span<const ClusterStats> stats = lattice.cell_stats();
    ASSERT_EQ(keys.size(), stats.size());
    std::size_t live_cells = 0;
    for (std::size_t id = 0; id < keys.size(); ++id) {
      const ClusterStats* scratch = table.clusters.find(keys[id]);
      if (stats[id].sessions != 0) {
        ++live_cells;
        ASSERT_NE(scratch, nullptr) << "live cell absent from scratch: "
                                    << keys[id];
        EXPECT_EQ(stats[id], *scratch);
      } else {
        EXPECT_EQ(scratch, nullptr)
            << "cell decayed to zero but alive from scratch: " << keys[id];
        EXPECT_EQ(stats[id], ClusterStats{});
      }
    }
    EXPECT_EQ(live_cells, table.clusters.size());
  }
}

std::vector<std::vector<Session>> generated_epochs(std::uint32_t num_epochs) {
  WorldConfig world_config;
  world_config.num_sites = 10;
  world_config.num_cdns = 3;
  world_config.num_asns = 20;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = num_epochs;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = num_epochs;
  trace_config.sessions_per_epoch = 8000;  // diurnal swing churns the leaves
  std::vector<std::vector<Session>> epochs;
  epochs.reserve(num_epochs);
  for (std::uint32_t e = 0; e < num_epochs; ++e) {
    epochs.push_back(generate_epoch(world, events, trace_config, e));
  }
  return epochs;
}

TEST(IncrementalDifferential, MatchesFromScratchAtEveryEpoch) {
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 60};
  run_differential(generated_epochs(10), params);
}

/// Hand-built churn scenario: update / steady / retire / add / re-add /
/// identical epoch / empty epoch / rebuild — every delta path in one
/// stream.
std::vector<std::vector<Session>> churn_epochs() {
  using test::Attrs;
  const Attrs a{.site = 1, .cdn = 1, .asn = 1};
  const Attrs b{.site = 2, .cdn = 1, .asn = 2};
  const Attrs c{.site = 3, .cdn = 2, .asn = 3};
  const Attrs d{.site = 4, .cdn = 2, .asn = 4};

  std::vector<std::vector<Session>> epochs(7);
  // e0: A bad, B and C good.
  test::add_sessions(epochs[0], 0, a, test::bad_buffering(), 120);
  test::add_sessions(epochs[0], 0, b, test::good_quality(), 300);
  test::add_sessions(epochs[0], 0, c, test::good_quality(), 200);
  // e1: A worsens, B steady, C retires, D arrives bad.
  test::add_sessions(epochs[1], 1, a, test::bad_buffering(), 200);
  test::add_sessions(epochs[1], 1, b, test::good_quality(), 300);
  test::add_sessions(epochs[1], 1, d, test::bad_join_time(), 150);
  // e2: C re-added, D retires, A recovers partially.
  test::add_sessions(epochs[2], 2, a, test::bad_buffering(), 80);
  test::add_sessions(epochs[2], 2, a, test::good_quality(), 120);
  test::add_sessions(epochs[2], 2, b, test::good_quality(), 300);
  test::add_sessions(epochs[2], 2, c, test::bad_bitrate(), 180);
  // e3: identical to e2 (the all-cache-hit epoch).
  for (const Session& s : epochs[2]) {
    Session copy = s;
    copy.epoch = 3;
    epochs[3].push_back(copy);
  }
  // e4: empty epoch (everything retires).
  // e5: full rebuild from empty.
  test::add_sessions(epochs[5], 5, a, test::failed_join(), 90);
  test::add_sessions(epochs[5], 5, c, test::good_quality(), 250);
  // e6: steady state again.
  for (const Session& s : epochs[5]) {
    Session copy = s;
    copy.epoch = 6;
    epochs[6].push_back(copy);
  }
  return epochs;
}

TEST(IncrementalScenarios, ChurnRetireReAddEmptyRebuild) {
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 100};
  run_differential(churn_epochs(), params);
}

TEST(IncrementalScenarios, MinSessionsZeroPathological) {
  // min_sessions = 0 makes every cell significant including decayed ones;
  // the zero-threshold arm of is_problem_cluster must keep dead cells
  // invisible to every output.
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 0};
  run_differential(churn_epochs(), params);
}

TEST(IncrementalScenarios, DeltaStatsAccountChurn) {
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 100};
  const std::vector<std::vector<Session>> epochs = churn_epochs();
  IncrementalLattice lattice{params};

  lattice.advance(fold_sessions(epochs[0], thresholds, 0));
  EXPECT_EQ(lattice.last_delta().leaves_added, 3u);
  EXPECT_EQ(lattice.last_delta().leaves_retired, 0u);
  EXPECT_EQ(lattice.last_delta().active_leaves, 3u);
  // First epoch: everything is new, so every flag pass is full and no
  // candidate evaluation can hit the (empty) cache.
  for (const bool full : lattice.last_delta().full_flag_pass) {
    EXPECT_TRUE(full);
  }
  EXPECT_EQ(lattice.last_delta().cache_hits, 0u);

  lattice.advance(fold_sessions(epochs[1], thresholds, 1));
  EXPECT_EQ(lattice.last_delta().leaves_added, 1u);    // D
  EXPECT_EQ(lattice.last_delta().leaves_updated, 1u);  // A
  EXPECT_EQ(lattice.last_delta().leaves_retired, 1u);  // C
  EXPECT_EQ(lattice.last_delta().active_leaves, 3u);

  lattice.advance(fold_sessions(epochs[2], thresholds, 2));
  const std::uint64_t misses_after_e2 = lattice.last_delta().cache_misses;
  EXPECT_GT(misses_after_e2, 0u);

  // e3 repeats e2 exactly: no leaf changes, no cell deltas, no full flag
  // pass, and every per-(leaf, metric) candidate evaluation is a cache hit.
  lattice.advance(fold_sessions(epochs[3], thresholds, 3));
  EXPECT_EQ(lattice.last_delta().leaves_added, 0u);
  EXPECT_EQ(lattice.last_delta().leaves_updated, 0u);
  EXPECT_EQ(lattice.last_delta().leaves_retired, 0u);
  EXPECT_EQ(lattice.last_delta().cells_touched, 0u);
  EXPECT_EQ(lattice.last_delta().cache_misses, 0u);
  EXPECT_GT(lattice.last_delta().cache_hits, 0u);
  for (const bool full : lattice.last_delta().full_flag_pass) {
    EXPECT_FALSE(full);
  }

  // e4 is empty: every leaf retires, every live cell decays to zero.
  lattice.advance(fold_sessions({}, thresholds, 4));
  EXPECT_EQ(lattice.last_delta().leaves_retired, 3u);  // a, b, c (d already gone)
  EXPECT_EQ(lattice.last_delta().active_leaves, 0u);
  EXPECT_EQ(lattice.num_active_leaves(), 0u);
  EXPECT_EQ(lattice.root(), ClusterStats{});
}

TEST(IncrementalScenarios, EpochGapIsJustAnotherDelta) {
  // The engine keys on fold content, not epoch arithmetic: a gap in epoch
  // ids (monitor streams drop stale/partial epochs) must not disturb the
  // differential.
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 100};
  std::vector<std::vector<Session>> epochs = churn_epochs();
  const std::array<std::uint32_t, 4> stream_epochs = {2, 5, 9, 42};
  IncrementalLattice lattice{params};
  for (std::size_t i = 0; i < stream_epochs.size(); ++i) {
    const std::uint32_t e = stream_epochs[i];
    std::vector<Session> sessions = epochs[i];
    for (Session& s : sessions) s.epoch = e;
    const LeafFold fold = fold_sessions(sessions, thresholds, e);
    const EpochClusterTable table = expand_fold(fold, ClusterEngineConfig{});
    const auto actual = lattice.advance(fold);
    for (const Metric m : kAllMetrics) {
      expect_analyses_identical(
          find_critical_clusters(fold, table, params, m),
          actual[static_cast<std::uint8_t>(m)]);
    }
  }
}

}  // namespace
}  // namespace vq

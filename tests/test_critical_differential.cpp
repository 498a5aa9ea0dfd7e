// Differential tests for the fused critical-cluster sweep: on the same
// epoch table, the sweep (per-cell flag words + per-leaf compact-row
// gathers, serial and sharded, one metric or all four in one call) must
// reproduce the hashed baseline bit for bit — criticals (same order),
// attribution doubles, problem_cluster_keys, and problem_sessions_in_pc —
// on full and pruned tables, at multiple arity caps and shard counts.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/mask_bits.h"
#include "src/gen/tracegen.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace vq {
namespace {

/// Bit-exact equality of every analysis field, including doubles (the
/// strategies are required to share one floating-point accumulation order,
/// so EXPECT_EQ — not NEAR — is the contract).
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

SessionTable big_trace() {
  // Small attribute universe so leaves repeat heavily and clusters clear the
  // significance floor; mirrors test_fold_differential.cpp.
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

class CriticalDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CriticalDifferential, IndexedMatchesHashedBitForBit) {
  static const SessionTable trace = big_trace();
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};

  ClusterEngineConfig config;
  config.max_arity = GetParam();

  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  const EpochClusterTable table = expand_fold(fold, config);
  ASSERT_FALSE(table.leaf_index.empty());

  ThreadPool pool{4};
  std::size_t total_criticals = 0;
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis hashed =
        find_critical_clusters_hashed(fold, table, params, m);
    total_criticals += hashed.criticals.size();

    const CriticalAnalysis fused =
        find_critical_clusters(fold, table, params, m);
    expect_analyses_identical(hashed, fused);

    for (const std::size_t shards : {1u, 4u}) {
      const CriticalAnalysis sharded =
          find_critical_clusters(fold, table, params, m, &pool, shards);
      expect_analyses_identical(hashed, sharded);
    }
  }
  // Guard against a vacuous pass: this trace must actually produce
  // critical clusters for at least one metric.
  EXPECT_GT(total_criticals, 0u);
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, CriticalDifferential,
                         ::testing::Values(2, 7), [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(CriticalDifferential, IndexedPathAgreesAcrossExpansionEngines) {
  // The indexed critical path must produce the same analysis whether the
  // epoch table (and its LeafCellIndex) came from the mask-major or the
  // hashed expansion engine — the dense-id numberings differ, but every
  // analysis output is id-order independent.
  static const SessionTable trace = big_trace();
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};

  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  ClusterEngineConfig hashed_config;
  hashed_config.expand = ExpandStrategy::kHashed;
  const EpochClusterTable from_hashed = expand_fold(fold, hashed_config);
  const EpochClusterTable from_mask_major = expand_fold(fold, {});
  ASSERT_TRUE(from_mask_major.clusters.sorted());
  ASSERT_FALSE(from_hashed.clusters.sorted());

  ThreadPool pool{4};
  std::size_t total_criticals = 0;
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis baseline =
        find_critical_clusters_hashed(fold, from_hashed, params, m);
    total_criticals += baseline.criticals.size();
    // Hashed critical extraction over the sorted-mode store (pure
    // binary-search lookups) and indexed extraction over both tables.
    expect_analyses_identical(
        baseline,
        find_critical_clusters_hashed(fold, from_mask_major, params, m));
    for (const std::size_t shards : {1u, 4u}) {
      expect_analyses_identical(
          baseline, find_critical_clusters(fold, from_mask_major, params, m,
                                           &pool, shards));
      expect_analyses_identical(
          baseline, find_critical_clusters(fold, from_hashed, params, m,
                                           &pool, shards));
    }
  }
  EXPECT_GT(total_criticals, 0u);
}

TEST(CriticalDifferential, DispatchSelectsStrategyByIndexPresence) {
  static const SessionTable trace = big_trace();
  const std::span<const Session> sessions = trace.epoch(0);
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};

  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  ClusterEngineConfig no_index;
  no_index.index_cells = false;
  const EpochClusterTable plain = expand_fold(fold, no_index);
  ASSERT_TRUE(plain.leaf_index.empty());
  const EpochClusterTable indexed = expand_fold(fold, {});

  const std::array<CriticalAnalysis, kNumMetrics> plain_all =
      find_critical_clusters(fold, plain, params);
  for (const Metric m : kAllMetrics) {
    // Without an index the dispatcher must fall back to the hashed
    // strategy (and produce the same analysis as the explicit call), for
    // one metric and for all four at once.
    const CriticalAnalysis hashed =
        find_critical_clusters_hashed(fold, plain, params, m);
    expect_analyses_identical(hashed,
                              find_critical_clusters(fold, plain, params, m));
    expect_analyses_identical(hashed,
                              plain_all[static_cast<std::uint8_t>(m)]);
    // With one it must agree too — strategies are interchangeable.
    expect_analyses_identical(
        find_critical_clusters_hashed(fold, indexed, params, m),
        find_critical_clusters(fold, indexed, params, m));
  }
}

/// Bit-pattern equality of every double, on top of the field checks.
void expect_bit_identical(const CriticalAnalysis& expected,
                          const CriticalAnalysis& actual) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  expect_analyses_identical(expected, actual);
  EXPECT_EQ(bits(expected.global_ratio), bits(actual.global_ratio));
  EXPECT_EQ(bits(expected.attributed_mass), bits(actual.attributed_mass));
  ASSERT_EQ(expected.criticals.size(), actual.criticals.size());
  for (std::size_t i = 0; i < expected.criticals.size(); ++i) {
    EXPECT_EQ(bits(expected.criticals[i].attributed),
              bits(actual.criticals[i].attributed));
  }
}

TEST(MaskBits, StrictSubsetOrMatchesBruteForce) {
  // The fused sweep keeps the minimal candidates as
  // `b & ~strict_subset_or(b)`; check the transform against its definition
  // and that filter over random sets of every density.
  Xoshiro256ss rng{17};
  for (int trial = 0; trial < 400; ++trial) {
    detail::MaskBits b;
    std::vector<std::uint8_t> members;
    const std::uint64_t percent = 1 + static_cast<std::uint64_t>(trial) % 50;
    for (unsigned m = 1; m <= kFullMask; ++m) {
      if (rng() % 100 < percent) {
        b.set(m);
        members.push_back(static_cast<std::uint8_t>(m));
      }
    }
    const detail::MaskBits strict = detail::strict_subset_or(b);
    for (unsigned m = 0; m <= kFullMask; ++m) {
      bool want = false;
      for (unsigned s = (m - 1) & m; s != m; s = (s - 1) & m) {
        want = want || b.test(s);
        if (s == 0) break;
      }
      ASSERT_EQ(strict.test(m), want) << "mask " << m;
    }
    std::vector<std::uint8_t> minimal;
    detail::filter_minimal(members, minimal);
    std::vector<std::uint8_t> got;
    for (unsigned m = 1; m <= kFullMask; ++m) {
      if (b.test(m) && !strict.test(m)) {
        got.push_back(static_cast<std::uint8_t>(m));
      }
    }
    EXPECT_EQ(got, minimal);
  }
}

class FusedSweepDifferential
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(FusedSweepDifferential, FourMetricCallMatchesHashedPerMetric) {
  // One four-metric call against find_critical_clusters_hashed for each
  // metric, on the full lattice and on the table pruned at the analysis
  // floor; the second epoch has no join-failure problem sessions at all.
  static const SessionTable trace = big_trace();
  const auto [arity, shards] = GetParam();
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};
  ClusterEngineConfig config;
  config.max_arity = arity;
  ThreadPool pool{4};

  LeafFold fold = fold_sessions(trace.epoch(0), ProblemThresholds{}, 0);
  LeafFold no_failures = fold;
  constexpr auto kFailure = static_cast<std::uint8_t>(Metric::kJoinFailure);
  no_failures.root.problems[kFailure] = 0;
  no_failures.leaves.for_each(
      [](std::uint64_t, ClusterStats& s) { s.problems[kFailure] = 0; });

  std::size_t criticals = 0;
  for (const LeafFold* f : {&fold, &no_failures}) {
    for (const std::uint32_t floor : {0u, params.min_sessions}) {
      SCOPED_TRACE("floor " + std::to_string(floor));
      const EpochClusterTable table =
          expand_fold(*f, config, &pool, shards, floor);
      ASSERT_EQ(table.floor, floor);
      const std::array<CriticalAnalysis, kNumMetrics> fused =
          find_critical_clusters(*f, table, params, &pool, shards);
      for (const Metric m : kAllMetrics) {
        const CriticalAnalysis hashed =
            find_critical_clusters_hashed(*f, table, params, m);
        criticals += hashed.criticals.size();
        expect_bit_identical(hashed, fused[static_cast<std::uint8_t>(m)]);
      }
      if (f == &no_failures) {
        const CriticalAnalysis& none = fused[kFailure];
        EXPECT_EQ(none.problem_sessions, 0u);
        EXPECT_TRUE(none.criticals.empty());
      }
    }
  }
  EXPECT_GT(criticals, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ArityShards, FusedSweepDifferential,
    ::testing::Combine(::testing::Values(2, 7),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& info) {
      return "arity" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CriticalDifferential, EmptyTableYieldsEmptyAnalysis) {
  const LeafFold fold;  // no sessions
  const EpochClusterTable table = expand_fold(fold, {});
  const CriticalAnalysis analysis = find_critical_clusters(
      fold, table, ProblemClusterParams{}, Metric::kBufRatio);
  EXPECT_EQ(analysis.sessions, 0u);
  EXPECT_EQ(analysis.num_problem_clusters, 0u);
  EXPECT_TRUE(analysis.criticals.empty());
  EXPECT_TRUE(analysis.problem_cluster_keys.empty());
  EXPECT_EQ(analysis.attributed_mass, 0.0);
}

}  // namespace
}  // namespace vq

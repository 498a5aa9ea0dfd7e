// Invariance tests for the fused critical-cluster sweep: the four-metric
// call and the single-metric call must give the same analysis bit for bit
// — criticals (same order), attribution doubles, problem_cluster_keys and
// problem_sessions_in_pc — whether the table is the full lattice or the
// one pruned at the analysis floor.  Whether
// that analysis is right is checked against the brute-force oracle in
// tests/test_oracle.cpp.  Also covers the sweep's refusal of a table that
// has cells but no leaf index, and the mask-set transform it uses for
// minimality.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <stdexcept>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/mask_bits.h"
#include "src/gen/tracegen.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace vq {
namespace {

/// Bit-exact equality of every analysis field, including doubles (every
/// entry point and shard count shares one floating-point accumulation
/// order, so EXPECT_EQ — not NEAR — is the contract).
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

TEST(CriticalDifferential, IndexedPathAgreesAcrossExpansionEngines) {
  // One baseline analysis — the four-metric call on the full lattice —
  // must come back bit for bit from the single-metric call and from the
  // table pruned at the analysis floor.
  static const SessionTable trace = big_trace();
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};
  const LeafFold fold = fold_sessions(trace.epoch(0), ProblemThresholds{}, 0);
  const EpochClusterTable full = expand_fold(fold, {});
  const EpochClusterTable pruned =
      expand_fold(fold, {}, nullptr, 1, params.min_sessions);
  ASSERT_EQ(pruned.floor, params.min_sessions);
  ASSERT_LT(pruned.clusters.size(), full.clusters.size());

  const std::array<CriticalAnalysis, kNumMetrics> baseline =
      find_critical_clusters(fold, full, params);
  std::size_t criticals = 0;
  for (const EpochClusterTable* table : {&full, &pruned}) {
    const std::array<CriticalAnalysis, kNumMetrics> all =
        find_critical_clusters(fold, *table, params);
    for (const Metric m : kAllMetrics) {
      const auto mi = static_cast<std::uint8_t>(m);
      expect_bit_identical(baseline[mi], all[mi]);
      expect_bit_identical(baseline[mi],
                           find_critical_clusters(fold, *table, params, m));
    }
  }
  for (const CriticalAnalysis& a : baseline) criticals += a.criticals.size();
  // Guard against a vacuous pass: this trace must actually produce
  // critical clusters.
  EXPECT_GT(criticals, 0u);
}

TEST(CriticalDifferential, IndexLessTableThrows) {
  // expand_fold always builds the leaf index; a table with cells but
  // without one cannot be swept, and the sweep says so instead of
  // returning an empty analysis.
  static const SessionTable trace = big_trace();
  const LeafFold fold = fold_sessions(trace.epoch(0), {}, 0);
  EpochClusterTable table = expand_fold(fold, {});
  table.leaf_index = LeafCellIndex{};
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 150};
  EXPECT_THROW((void)find_critical_clusters(fold, table, params),
               std::invalid_argument);
  EXPECT_THROW(
      (void)find_critical_clusters(fold, table, params, Metric::kBitrate),
      std::invalid_argument);
}

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

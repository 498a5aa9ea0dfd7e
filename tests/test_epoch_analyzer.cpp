// EpochAnalyzer keeps its table and every expansion and sweep buffer from
// one epoch to the next.  These tests feed one analyzer a sequence of
// epochs chosen to leave state behind — a large epoch, an empty one, one
// with no cell at the floor, a small one, and the large one again — and
// require, epoch by epoch, exactly what a fresh analyzer returns: the four
// analyses (doubles by bit pattern) and the table with its leaf rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/epoch_analyzer.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/oracle_match.h"
#include "tests/test_support.h"

namespace vq {
namespace {

/// ~`num_leaves` random leaves over a small attribute universe, with a
/// planted buffering event on [site=3, cdn=1] and a join-time event on
/// [asn=7].
LeafFold random_fold(std::uint64_t seed, std::size_t num_leaves,
                     std::uint32_t epoch) {
  Xoshiro256ss rng{seed};
  test::FoldBuilder fold{epoch};
  for (std::size_t i = 0; i < num_leaves; ++i) {
    AttrVec a;
    a[AttrDim::kSite] = static_cast<std::uint16_t>(rng() % 12);
    a[AttrDim::kCdn] = static_cast<std::uint16_t>(rng() % 4);
    a[AttrDim::kAsn] = static_cast<std::uint16_t>(rng() % 40);
    a[AttrDim::kConnType] = static_cast<std::uint16_t>(rng() % 4);
    a[AttrDim::kPlayer] = static_cast<std::uint16_t>(rng() % 3);
    ClusterStats s;
    s.sessions = 1 + static_cast<std::uint32_t>(rng() % 8);
    for (int m = 0; m < kNumMetrics; ++m) {
      std::uint64_t percent = 5;
      if (m == 0 && a[AttrDim::kSite] == 3 && a[AttrDim::kCdn] == 1) {
        percent = 70;
      }
      if (m == 2 && a[AttrDim::kAsn] == 7) percent = 60;
      for (std::uint32_t k = 0; k < s.sessions; ++k) {
        s.problems[m] += rng() % 100 < percent ? 1 : 0;
      }
    }
    fold.add(a, s);
  }
  return fold.build();
}

void expect_same_analysis(const CriticalAnalysis& want,
                          const CriticalAnalysis& got) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(want.epoch, got.epoch);
  EXPECT_EQ(want.metric, got.metric);
  EXPECT_EQ(want.sessions, got.sessions);
  EXPECT_EQ(want.problem_sessions, got.problem_sessions);
  EXPECT_EQ(want.problem_sessions_in_pc, got.problem_sessions_in_pc);
  EXPECT_EQ(bits(want.global_ratio), bits(got.global_ratio));
  EXPECT_EQ(want.num_problem_clusters, got.num_problem_clusters);
  EXPECT_EQ(want.problem_cluster_keys, got.problem_cluster_keys);
  EXPECT_EQ(bits(want.attributed_mass), bits(got.attributed_mass));
  ASSERT_EQ(want.criticals.size(), got.criticals.size());
  for (std::size_t i = 0; i < want.criticals.size(); ++i) {
    EXPECT_EQ(want.criticals[i].key, got.criticals[i].key);
    EXPECT_EQ(bits(want.criticals[i].attributed),
              bits(got.criticals[i].attributed));
    EXPECT_EQ(want.criticals[i].stats, got.criticals[i].stats);
  }
}

void expect_same_table(const EpochClusterTable& want,
                       const EpochClusterTable& got) {
  EXPECT_EQ(want.epoch, got.epoch);
  EXPECT_EQ(want.root, got.root);
  EXPECT_EQ(want.floor, got.floor);
  EXPECT_TRUE(std::ranges::equal(want.clusters.keys(), got.clusters.keys()));
  EXPECT_TRUE(
      std::ranges::equal(want.clusters.cells(), got.clusters.cells()));
  EXPECT_EQ(want.leaf_index.leaf_keys, got.leaf_index.leaf_keys);
  EXPECT_EQ(want.leaf_index.leaf_stats, got.leaf_index.leaf_stats);
  EXPECT_EQ(want.leaf_index.leaf_group, got.leaf_index.leaf_group);
  EXPECT_EQ(want.leaf_index.num_groups(), got.leaf_index.num_groups());
  EXPECT_EQ(test::leaf_rows(want), test::leaf_rows(got));
  test::expect_index_shape(got);
}

class EpochAnalyzerReuse : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpochAnalyzerReuse, KeptBuffersNeverChangeTheResult) {
  const std::size_t shards = GetParam();
  const ClusterEngineConfig engine;
  ThreadPool pool{4};

  // The shard count reaches only expand_fold's pool and shard arguments,
  // which it ignores: the analyzer is serial.
  const LeafFold large = random_fold(41, 3000, 0);
  LeafFold empty;
  empty.epoch = 1;
  const LeafFold below_floor = random_fold(43, 20, 2);
  const LeafFold small = random_fold(47, 600, 3);
  LeafFold large_again = large;
  large_again.epoch = 4;

  // min_sessions 150 prunes the lattice, 1 builds it whole.
  for (const std::uint32_t min_sessions : {150u, 1u}) {
    SCOPED_TRACE("min_sessions " + std::to_string(min_sessions));
    const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                      .min_sessions = min_sessions};
    ASSERT_LT(below_floor.root.sessions, 150u);
    EpochAnalyzer kept{engine, params};
    std::size_t criticals = 0;
    for (const LeafFold* fold : std::initializer_list<const LeafFold*>{
             &large, &empty, &below_floor, &small, &large_again}) {
      SCOPED_TRACE("epoch " + std::to_string(fold->epoch));
      EpochAnalyzer fresh{engine, params};
      const std::array<CriticalAnalysis, kNumMetrics> want =
          fresh.analyze(*fold);
      const std::array<CriticalAnalysis, kNumMetrics> got =
          kept.analyze(*fold);
      for (int m = 0; m < kNumMetrics; ++m) {
        expect_same_analysis(want[m], got[m]);
        criticals += got[m].criticals.size();
      }
      expect_same_table(fresh.table(), kept.table());
      // And both equal the free functions over a freshly expanded table.
      const EpochClusterTable table =
          expand_fold(*fold, engine, &pool, shards, min_sessions);
      expect_same_table(table, kept.table());
      const std::array<CriticalAnalysis, kNumMetrics> free_call =
          find_critical_clusters(*fold, table, params);
      for (int m = 0; m < kNumMetrics; ++m) {
        expect_same_analysis(free_call[m], got[m]);
      }
    }
    EXPECT_GT(criticals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EpochAnalyzerReuse,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vq

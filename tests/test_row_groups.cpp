// Row groups of the pruned lattice (cluster_engine.h), against the
// brute-force oracle (tests/oracle.h).
//
// A pruned expansion drops every attribute value whose one-attribute cell
// is below the floor and merges the leaves whose keys then coincide into
// one row group, which the iceberg cube splits and lists as a member of
// its cells.  These tests compute the expected groups straight from the
// sessions — for each distinct leaf, the (subset, tuple) of its values
// that reach the floor — and check the engine's groups, cells, member
// lists and all four analyses against the oracle: at a kept value that is its field's maximum next to
// dropped values of the same dimension, at a dimension whose every value
// is dropped, at a floor that keeps no value, at floors 0 and 1, and over
// random worlds with planted events at several floors.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "tests/oracle.h"
#include "tests/oracle_match.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

constexpr std::uint16_t kAsnMax = dim_capacity(AttrDim::kAsn);

/// The row groups the sessions must produce at `floor`: each distinct leaf
/// reduced to its attribute values that reach the floor on their own.
std::set<oracle::Cluster> expected_groups(std::span<const Session> sessions,
                                          std::uint64_t floor) {
  const ProblemThresholds thresholds;
  std::array<std::map<oracle::Tuple, oracle::Counts>, kNumDims> single;
  for (int d = 0; d < kNumDims; ++d) {
    single[d] = oracle::count_clusters(sessions, thresholds, 1u << d);
  }
  std::set<oracle::Cluster> out;
  for (const auto& [values, c] :
       oracle::count_clusters(sessions, thresholds, oracle::kAllAttributes)) {
    oracle::Subset kept = 0;
    for (int d = 0; d < kNumDims; ++d) {
      const oracle::Subset one = 1u << d;
      if (single[d].at(oracle::values_over(values, one)).sessions >= floor) {
        kept |= one;
      }
    }
    out.insert({kept, oracle::values_over(values, kept)});
  }
  return out;
}

/// What check() saw, for the tests' own assertions.
struct Checked {
  EpochClusterTable table;
  std::size_t groups = 0;  // expected row groups
  std::size_t criticals = 0;
};

/// Expands one epoch at `floor` and checks the table against the oracle:
/// cells, the index's shape, every cell's member leaves (every leaf's row
/// on a full lattice), the group count against expected_groups and
/// expand.row_groups, and the four analyses.  Leaves of one group are
/// listed once, as their group, so matching every cell's leaves to the
/// oracle also shows that the oracle puts them in the same cells.
Checked check(std::span<const Session> sessions, std::uint32_t floor,
              int max_arity = kNumDims) {
  SCOPED_TRACE("floor " + std::to_string(floor) + ", arity " +
               std::to_string(max_arity));
  const ProblemThresholds thresholds;
  ClusterEngineConfig engine;
  engine.max_arity = max_arity;
  oracle::Params params;
  params.min_sessions = floor;
  params.max_arity = max_arity;
  const oracle::EpochAnalysis want = oracle::analyze_epoch(sessions, params);

  obs::Counter& counter = obs::Registry::global().counter("expand.row_groups");
  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  const std::uint64_t before = counter.value();
  Checked out;
  out.table = expand_fold(fold, engine, nullptr, 1, floor);
  const std::uint64_t counted = counter.value() - before;
  const EpochClusterTable& table = out.table;
  const LeafCellIndex& index = table.leaf_index;

  test::expect_cells_match(table, want.lattice);
  test::expect_index_matches(table, sessions, want.lattice, max_arity);
  out.groups =
      floor > 1 ? expected_groups(sessions, floor).size() : fold.leaves.size();
  EXPECT_EQ(index.num_groups(), out.groups);
  EXPECT_EQ(counted, out.groups);

  const ProblemClusterParams analysis{.ratio_multiplier = 1.5,
                                      .min_sessions = floor};
  const std::array<CriticalAnalysis, kNumMetrics> all =
      find_critical_clusters(fold, table, analysis);
  for (const Metric m : kAllMetrics) {
    test::expect_analysis_matches(all[static_cast<std::uint8_t>(m)], want, 0,
                                  m, floor);
    out.criticals += all[static_cast<std::uint8_t>(m)].criticals.size();
  }
  return out;
}

/// True when every cell of `table` fixing dimension `d` has value `v`
/// there, and at least one does.
bool only_value(const EpochClusterTable& table, AttrDim d, std::uint16_t v) {
  bool any = false;
  for (const std::uint64_t raw : table.clusters.keys()) {
    const ClusterKey key = ClusterKey::from_raw(raw);
    if (!key.has(d)) continue;
    if (key.value(d) != v) return false;
    any = true;
  }
  return any;
}

TEST(RowGroups, KeptFieldMaximumNextToDroppedValuesOfItsDimension) {
  // ASN 0 and ASN 65535 (the field's maximum) reach the floor; 40 other
  // ASNs, 65534 and 1 among them, hold a few sessions each and drop.  The
  // floor sits exactly on ASN 65535's sessions, so it is kept only by a
  // >= test.  Buffering is bad on [asn=65535, cdn=1].
  std::vector<Session> sessions;
  Xoshiro256ss rng{17};
  const auto add = [&](std::uint16_t asn, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Attrs a{.site = static_cast<std::uint16_t>(rng() % 4),
                    .cdn = static_cast<std::uint16_t>(rng() % 3),
                    .asn = asn,
                    .conn = static_cast<std::uint16_t>(rng() % 2)};
      const bool event = asn == kAsnMax && a.cdn == 1;
      sessions.push_back(test::make_session(
          0, a,
          rng() % 100 < (event ? 70u : 5u) ? test::bad_buffering()
                                           : test::good_quality()));
    }
  };
  add(0, 500);
  add(kAsnMax, 300);
  for (std::uint16_t k = 0; k < 40; ++k) {
    add(k < 20 ? static_cast<std::uint16_t>(kAsnMax - 1 - k)
               : static_cast<std::uint16_t>(k - 19),
        6);
  }
  const Checked c = check(sessions, 300);
  // Both kept ASNs appear in cells, no dropped one does, and the leaves
  // with a dropped ASN merged.
  std::set<std::uint16_t> asns;
  for (const std::uint64_t raw : c.table.clusters.keys()) {
    const ClusterKey key = ClusterKey::from_raw(raw);
    if (key.has(AttrDim::kAsn)) asns.insert(key.value(AttrDim::kAsn));
  }
  EXPECT_EQ(asns, (std::set<std::uint16_t>{0, kAsnMax}));
  EXPECT_LT(c.groups, c.table.leaf_index.num_leaves());
  EXPECT_GT(c.criticals, 0u);
  // A floor one session above its total drops ASN 65535 too, and its
  // cells with it.
  const Checked above = check(sessions, 301);
  EXPECT_TRUE(only_value(above.table, AttrDim::kAsn, 0));
}

TEST(RowGroups, DimensionWithEveryValueDropped) {
  // 1500 sessions over 500 ASNs: no ASN reaches the floor, so no group
  // keeps the dimension and no cell fixes it, while sites and CDNs do.
  std::vector<Session> sessions;
  Xoshiro256ss rng{23};
  for (std::uint16_t i = 0; i < 1500; ++i) {
    const Attrs a{.site = static_cast<std::uint16_t>(rng() % 5),
                  .cdn = static_cast<std::uint16_t>(rng() % 3),
                  .asn = static_cast<std::uint16_t>(i % 500),
                  .player = static_cast<std::uint16_t>(rng() % 2)};
    const bool event = a.site == 1 && a.cdn == 2;
    sessions.push_back(test::make_session(
        0, a,
        rng() % 100 < (event ? 60u : 5u) ? test::bad_bitrate()
                                         : test::good_quality()));
  }
  for (const int arity : {2, kNumDims}) {
    const Checked c = check(sessions, 40, arity);
    for (const std::uint64_t raw : c.table.clusters.keys()) {
      EXPECT_FALSE(ClusterKey::from_raw(raw).has(AttrDim::kAsn));
    }
    for (const oracle::Cluster& g : expected_groups(sessions, 40)) {
      EXPECT_EQ(g.subset & dim_bit(AttrDim::kAsn), 0u);
    }
    // Leaves differing only in their ASN share a group: at most
    // 5 sites x 3 CDNs x 2 players remain.
    EXPECT_LE(c.groups, 30u);
    EXPECT_GT(c.table.leaf_index.num_leaves(), 30u);
    EXPECT_GT(c.criticals, 0u);
  }
}

TEST(RowGroups, FloorKeepingNoValueLeavesOneGroupWithAnEmptyRow) {
  // Every dimension takes two or more values evenly, so no value holds
  // more than about half the sessions; at a floor just above the largest
  // one-attribute cell nothing is kept, although the root is above it.
  std::vector<Session> sessions;
  Xoshiro256ss rng{31};
  for (int i = 0; i < 800; ++i) {
    const Attrs a{.site = static_cast<std::uint16_t>(rng() % 4),
                  .cdn = static_cast<std::uint16_t>(rng() % 2),
                  .asn = static_cast<std::uint16_t>(rng() % 6),
                  .conn = static_cast<std::uint16_t>(rng() % 2),
                  .player = static_cast<std::uint16_t>(rng() % 2),
                  .browser = static_cast<std::uint16_t>(rng() % 2),
                  .vod = static_cast<std::uint16_t>(rng() % 2)};
    sessions.push_back(test::make_session(0, a, test::good_quality()));
  }
  std::uint64_t largest = 0;
  for (int d = 0; d < kNumDims; ++d) {
    for (const auto& [values, c] :
         oracle::count_clusters(sessions, ProblemThresholds{}, 1u << d)) {
      largest = std::max(largest, c.sessions);
    }
  }
  ASSERT_LT(largest + 1, sessions.size());
  const Checked c = check(sessions, static_cast<std::uint32_t>(largest + 1));
  const LeafCellIndex& index = c.table.leaf_index;
  EXPECT_EQ(index.num_groups(), 1u);
  EXPECT_TRUE(c.table.clusters.empty());
  EXPECT_TRUE(index.cell_rows.empty());
  EXPECT_GT(index.num_leaves(), 1u);
  const std::vector<std::vector<std::uint32_t>> rows = test::leaf_rows(c.table);
  for (std::size_t i = 0; i < index.num_leaves(); ++i) {
    EXPECT_EQ(index.leaf_group[i], 0u);
    EXPECT_TRUE(rows[i].empty());
  }
  // At the largest cell itself, that one value is kept.
  const Checked at = check(sessions, static_cast<std::uint32_t>(largest));
  EXPECT_GT(at.groups, 1u);
  EXPECT_FALSE(at.table.clusters.empty());
}

TEST(RowGroups, EventOnVodLiveSurfacesThroughTheHighMaskWord) {
  // VoD/Live is the dimension of mask bit 6, so every cell that fixes it
  // has a mask of 64 or more, held in the high word of the sweep's 128-bit
  // mask sets.  Buffering is bad on a quarter of the sessions, the live
  // ones, so [vod=1] is the critical cluster of their problem sessions.
  std::vector<Session> sessions;
  Xoshiro256ss rng{41};
  for (int i = 0; i < 3000; ++i) {
    const Attrs a{.site = static_cast<std::uint16_t>(rng() % 6),
                  .cdn = static_cast<std::uint16_t>(rng() % 3),
                  .asn = static_cast<std::uint16_t>(rng() % 8),
                  .player = static_cast<std::uint16_t>(rng() % 2),
                  .vod = static_cast<std::uint16_t>(rng() % 4 == 0 ? 1 : 0)};
    sessions.push_back(test::make_session(
        0, a,
        rng() % 100 < (a.vod == 1 ? 70u : 4u) ? test::bad_buffering()
                                               : test::good_quality()));
  }
  for (const std::uint32_t floor : {2u, 40u, 150u}) {
    for (const int arity : {2, kNumDims}) {
      const Checked c = check(sessions, floor, arity);
      const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                        .min_sessions = floor};
      const CriticalAnalysis buf = find_critical_clusters(
          fold_sessions(sessions, ProblemThresholds{}, 0), c.table, params,
          Metric::kBufRatio);
      const ClusterKey live =
          ClusterKey::pack(dim_bit(AttrDim::kVodLive), Attrs{.vod = 1}.vec());
      EXPECT_TRUE(std::ranges::any_of(
          buf.criticals,
          [&](const CriticalRecord& r) { return r.key == live; }))
          << "floor " << floor << ", arity " << arity;
    }
  }
}

/// One epoch of sessions over a small universe with skewed values, so
/// low-arity cells clear the floors below, and planted events for three
/// metrics.
std::vector<Session> planted_epoch(std::uint64_t seed) {
  Xoshiro256ss rng{seed};
  const auto skewed = [&](std::uint64_t k) {
    return static_cast<std::uint16_t>(std::min(rng() % k, rng() % k));
  };
  std::vector<Session> out;
  for (int i = 0; i < 2000; ++i) {
    const Attrs a{.site = skewed(12),
                  .cdn = skewed(3),
                  .asn = skewed(60),
                  .conn = skewed(3),
                  .player = skewed(3),
                  .browser = skewed(4)};
    const auto chance = [&](bool event) {
      return rng() % 100 < (event ? 60u : 4u);
    };
    QualityMetrics q = test::good_quality();
    if (chance(a.site == 2 && a.cdn == 1)) {
      q.buffering_ratio = test::bad_buffering().buffering_ratio;
    }
    if (chance(a.asn == 3)) q.bitrate_kbps = test::bad_bitrate().bitrate_kbps;
    if (chance(a.cdn == 2 && a.player == 1)) {
      q.join_time_ms = test::bad_join_time().join_time_ms;
    }
    out.push_back(test::make_session(0, a, q));
  }
  return out;
}

TEST(RowGroups, FloorsZeroAndOneGiveOneGroupPerLeaf) {
  const std::vector<Session> sessions = planted_epoch(5);
  for (const std::uint32_t floor : {0u, 1u}) {
    const Checked c = check(sessions, floor);
    const LeafCellIndex& index = c.table.leaf_index;
    EXPECT_EQ(c.table.floor, 0u);
    EXPECT_EQ(index.num_groups(), index.num_leaves());
    for (std::uint32_t i = 0; i < index.num_leaves(); ++i) {
      EXPECT_EQ(index.leaf_group[i], i);
    }
  }
}

using FloorParam = std::tuple<std::uint32_t, int>;

class RowGroupFloors : public ::testing::TestWithParam<FloorParam> {};

TEST_P(RowGroupFloors, GroupsCellsRowsAndAnalysesMatchTheOracle) {
  const auto [floor, arity] = GetParam();
  std::size_t merged = 0;
  for (const std::uint64_t seed : {7u, 2013u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Session> sessions = planted_epoch(seed);
    const Checked c = check(sessions, floor, arity);
    const LeafCellIndex& index = c.table.leaf_index;
    merged += index.num_leaves() - c.groups;
    if (c.groups == index.num_leaves()) {
      // Nothing merged: the identity, as when no value drops.
      for (std::uint32_t i = 0; i < index.num_leaves(); ++i) {
        EXPECT_EQ(index.leaf_group[i], i);
      }
    }
  }
  // From floor 8 on, some ASN drops on these worlds and leaves merge.
  if (floor >= 8) {
    EXPECT_GT(merged, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Planted, RowGroupFloors,
    ::testing::Combine(::testing::Values(2u, 3u, 8u, 40u, 150u, 600u, 2000u),
                       ::testing::Values(2, 7)),
    [](const ::testing::TestParamInfo<FloorParam>& info) {
      return "floor" + std::to_string(std::get<0>(info.param)) + "_arity" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vq

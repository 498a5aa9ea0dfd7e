// Differential tests for the full-lattice expansion (the iceberg cube at
// floors 0 and 1): on the same sessions, the engine must reproduce the
// oracle's session-by-session aggregation (tests/oracle.h) cell for cell,
// with a dense-id layout that is canonical (mask-major, key-ascending) and
// the same at both floors — over arity caps {1, 2, 7} and adversarial leaf
// sets: masks in both 64-bit words, keys that differ only in the most or
// the least significant field, and an epoch in which every radix digit
// varies.  Also unit-covers the canonical radix sort against
// std::stable_sort and the CellStore contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/cluster_engine.h"
#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "src/util/rng.h"
#include "tests/oracle.h"
#include "tests/oracle_match.h"
#include "tests/test_support.h"

namespace vq {
namespace {

/// `n` sessions of epoch 0 on one leaf, cycling through good quality and
/// one problem per metric from `phase` on, so every metric's counts vary.
void add_leaf(std::vector<Session>& out, const AttrVec& attrs, std::size_t n,
              std::size_t phase = 0) {
  const QualityMetrics qualities[] = {
      test::good_quality(), test::bad_buffering(), test::bad_bitrate(),
      test::bad_join_time(), test::failed_join()};
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Session{.attrs = attrs,
                          .epoch = 0,
                          .quality = qualities[(i + phase) % 5]});
  }
}

/// The mask-major dense-id contract: ids ascend by (mask value, raw key).
void expect_canonical_layout(const CellStore& store) {
  const std::span<const std::uint64_t> keys = store.keys();
  for (std::size_t id = 1; id < keys.size(); ++id) {
    const std::uint64_t prev_mask = keys[id - 1] & kFullMask;
    const std::uint64_t cur_mask = keys[id] & kFullMask;
    const bool ordered =
        prev_mask < cur_mask ||
        (prev_mask == cur_mask && keys[id - 1] < keys[id]);
    ASSERT_TRUE(ordered) << "ids " << id - 1 << ", " << id;
  }
}

/// Identical arrays, id for id — the layout contract between two runs of
/// the engine that must build the same table.
void expect_tables_elementwise_equal(const EpochClusterTable& expected,
                                     const EpochClusterTable& actual) {
  EXPECT_EQ(expected.root, actual.root);
  ASSERT_EQ(expected.clusters.size(), actual.clusters.size());
  for (std::uint32_t id = 0; id < expected.clusters.size(); ++id) {
    ASSERT_EQ(expected.clusters.key(id), actual.clusters.key(id)) << id;
    ASSERT_EQ(expected.clusters.cell(id), actual.clusters.cell(id)) << id;
  }
  EXPECT_EQ(expected.leaf_index.leaf_keys, actual.leaf_index.leaf_keys);
  EXPECT_EQ(expected.leaf_index.leaf_stats, actual.leaf_index.leaf_stats);
  EXPECT_EQ(expected.leaf_index.leaf_group, actual.leaf_index.leaf_group);
  EXPECT_EQ(test::leaf_rows(expected), test::leaf_rows(actual));
}

/// Every leaf's row must name, mask by mask, the cell whose key is that
/// leaf's projection — the engine-independent meaning of the index.
void expect_index_rows_valid(const EpochClusterTable& table, int arity) {
  const LeafCellIndex& index = table.leaf_index;
  const std::vector<std::uint8_t> masks = lattice_masks(arity);
  const std::vector<std::vector<std::uint32_t>> rows = test::leaf_rows(table);
  ASSERT_EQ(rows.size(), index.num_leaves());
  for (std::size_t leaf = 0; leaf < index.num_leaves(); ++leaf) {
    const ClusterKey key = ClusterKey::from_raw(index.leaf_keys[leaf]);
    const std::vector<std::uint32_t>& row = rows[leaf];
    ASSERT_EQ(row.size(), masks.size()) << "leaf " << leaf;
    for (std::size_t j = 0; j < masks.size(); ++j) {
      ASSERT_LT(row[j], table.clusters.size());
      ASSERT_EQ(table.clusters.key(row[j]), key.project(masks[j]).raw())
          << "leaf " << leaf << " mask " << int{masks[j]};
    }
  }
}

/// The whole differential for one epoch at one arity cap: the floor-0
/// expansion against the oracle, in canonical order, and the floor-1
/// expansion against it id for id.
void run_differential(std::span<const Session> sessions, int arity) {
  SCOPED_TRACE("arity " + std::to_string(arity));
  const LeafFold fold = fold_sessions(sessions, ProblemThresholds{}, 0);
  ClusterEngineConfig config;
  config.max_arity = arity;

  const EpochClusterTable full = expand_fold(fold, config);
  EXPECT_EQ(full.floor, 0u);
  expect_canonical_layout(full.clusters);
  test::expect_cells_match(full, oracle::aggregate(sessions, {}, arity));
  expect_index_rows_valid(full, arity);
  test::expect_index_shape(full);

  SCOPED_TRACE("floor 1");
  expect_tables_elementwise_equal(full,
                                  expand_fold(fold, config, nullptr, 1, 1));
}

SessionTable big_trace() {
  // Small attribute universe so leaves repeat heavily; mirrors
  // test_fold_differential.cpp.
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

class ExpandDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ExpandDifferential, GeneratedTrace) {
  static const SessionTable trace = big_trace();
  ASSERT_GT(fold_sessions(trace.epoch(0), {}, 0).leaves.size(), 512u);
  run_differential(trace.epoch(0), GetParam());
}

TEST_P(ExpandDifferential, EmptyFold) {
  run_differential({}, GetParam());
  const EpochClusterTable table = expand_fold(LeafFold{}, {});
  EXPECT_EQ(table.clusters.size(), 0u);
  EXPECT_TRUE(table.leaf_index.leaf_keys.empty());
  EXPECT_TRUE(table.leaf_index.member_bounds.empty());
}

TEST_P(ExpandDifferential, SingleLeaf) {
  std::vector<Session> sessions;
  add_leaf(sessions, AttrVec{{37, 5, 4211, 3, 2, 1, 1}}, 9);
  run_differential(sessions, GetParam());
}

TEST_P(ExpandDifferential, AllLeavesProjectToOneCellOffSite) {
  // 600 leaves differing only in site, the least significant field: every
  // mask without the site bit has exactly one cell holding the whole
  // population, and the site masks' keys differ in the lowest digits.
  std::vector<Session> sessions;
  for (std::uint16_t site = 0; site < 600; ++site) {
    add_leaf(sessions, AttrVec{{site, 2, 999, 1, 3, 2, 0}}, 2 + site % 5,
             site);
  }
  run_differential(sessions, GetParam());

  const LeafFold fold = fold_sessions(sessions, {}, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  const std::uint8_t off_site_mask = dim_bit(AttrDim::kCdn);
  const ClusterStats* cell = table.clusters.find(
      ClusterKey::pack(off_site_mask, sessions.front().attrs).raw());
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(*cell, fold.root);
}

TEST_P(ExpandDifferential, LeavesDifferOnlyInHighestAttribute) {
  // The VoD/Live dimension occupies the most significant key bits; keys
  // differing only there stress the top radix digit and the cells of every
  // mask that drops it.
  std::vector<Session> sessions;
  for (std::uint16_t vod = 0; vod <= dim_capacity(AttrDim::kVodLive);
       ++vod) {
    add_leaf(sessions, AttrVec{{11, 4, 30000, 2, 1, 3, vod}}, 5, vod);
  }
  run_differential(sessions, GetParam());
}

TEST_P(ExpandDifferential, MasksInBothWords) {
  // Leaves that differ in site and in VoD/Live: their cells have masks
  // below 64 and, with the VoD/Live bit, from 64 up, in the two words of
  // the sweep's mask sets; ids must still ascend by mask across the two.
  std::vector<Session> sessions;
  for (std::uint16_t vod = 0; vod < 2; ++vod) {
    for (std::uint16_t site = 0; site < 3; ++site) {
      add_leaf(sessions, AttrVec{{site, 1, 77, 2, 1, 0, vod}}, 3, site);
    }
  }
  run_differential(sessions, GetParam());
  const EpochClusterTable table =
      expand_fold(fold_sessions(sessions, {}, 0), {});
  const std::span<const std::uint64_t> keys = table.clusters.keys();
  EXPECT_LT(keys.front() & kFullMask, 64u);
  EXPECT_GE(keys.back() & kFullMask, 64u);
}

TEST_P(ExpandDifferential, EveryRadixDigitVaries) {
  // Leaves with random values over every field's whole range: each 8-bit
  // digit of the key bits above the mask varies, so the canonical sort
  // runs every pass.
  Xoshiro256ss rng{2013};
  std::vector<Session> sessions;
  for (std::size_t i = 0; i < 3000; ++i) {
    AttrVec attrs;
    for (int d = 0; d < kNumDims; ++d) {
      attrs.v[static_cast<std::size_t>(d)] = static_cast<std::uint16_t>(
          rng() % (dim_capacity(static_cast<AttrDim>(d)) + 1u));
    }
    add_leaf(sessions, attrs, 1 + i % 3, i);
  }
  const LeafFold fold = fold_sessions(sessions, {}, 0);
  for (int shift = kNumDims; shift < 55; shift += 8) {
    std::set<std::uint64_t> digits;
    for (const FoldLeaf& leaf : fold.leaves) {
      digits.insert((leaf.key >> shift) & 0xFFu);
    }
    EXPECT_GT(digits.size(), 1u) << "digit at bit " << shift;
  }
  run_differential(sessions, GetParam());
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, ExpandDifferential,
                         ::testing::Values(1, 2, 7), [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(ExpandDifferential, PipelineOutputsAgreeAcrossEngines) {
  // End to end: the full pipeline (fold -> expand -> critical analysis)
  // at floor 1 must publish identical results whether its epochs run on
  // one worker or on two.
  static const SessionTable trace = big_trace();
  PipelineConfig parallel_config;
  parallel_config.cluster_params = {.ratio_multiplier = 1.5,
                                    .min_sessions = 1};
  parallel_config.workers = 2;
  PipelineConfig serial_config = parallel_config;
  serial_config.workers = 1;

  const PipelineResult parallel = run_pipeline(trace, parallel_config);
  const PipelineResult serial = run_pipeline(trace, serial_config);
  ASSERT_EQ(parallel.num_epochs, serial.num_epochs);
  std::size_t criticals = 0;
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < parallel.num_epochs; ++e) {
      const CriticalAnalysis& a = parallel.at(m, e).analysis;
      const CriticalAnalysis& b = serial.at(m, e).analysis;
      EXPECT_EQ(a.problem_sessions, b.problem_sessions);
      EXPECT_EQ(a.problem_sessions_in_pc, b.problem_sessions_in_pc);
      EXPECT_EQ(a.num_problem_clusters, b.num_problem_clusters);
      EXPECT_EQ(a.problem_cluster_keys, b.problem_cluster_keys);
      EXPECT_EQ(a.attributed_mass, b.attributed_mass);
      ASSERT_EQ(a.criticals.size(), b.criticals.size());
      for (std::size_t i = 0; i < a.criticals.size(); ++i) {
        EXPECT_EQ(a.criticals[i].key, b.criticals[i].key);
        EXPECT_EQ(a.criticals[i].attributed, b.criticals[i].attributed);
        EXPECT_EQ(a.criticals[i].stats, b.criticals[i].stats);
      }
      criticals += a.criticals.size();
    }
  }
  EXPECT_GT(criticals, 0u);
}

TEST(ExpandKernels, RadixSortMatchesStableSort) {
  // The canonical sort orders the cells of one mask by their key bits
  // above the mask bits, which it never reads.
  Xoshiro256ss rng{7};
  for (const std::size_t n : {0u, 1u, 2u, 255u, 4096u}) {
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint32_t> cells(n);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Each of the six digits above the mask takes one of three values,
      // so keys tie on their upper digits and every digit decides some
      // order; the mask is the same for all.
      std::uint64_t value = 0;
      for (int digit = 0; digit < 6; ++digit) {
        value |= (rng() % 3) << (8 * digit);
      }
      keys[i] = (value << kNumDims) | kFullMask;
      cells[i] = static_cast<std::uint32_t>(i);
      expected[i] = {keys[i], cells[i]};
    }
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::uint64_t> key_scratch(n);
    std::vector<std::uint32_t> cell_scratch(n);
    const auto [sorted_keys, sorted_cells] = detail::radix_sort_pairs(
        keys.data(), cells.data(), key_scratch.data(), cell_scratch.data(),
        n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sorted_keys[i], expected[i].first) << i;
      EXPECT_EQ(sorted_cells[i], expected[i].second) << i;
    }
  }
}

TEST(CellStoreSorted, LookupsAndAccessors) {
  static const SessionTable trace = big_trace();
  const LeafFold fold =
      fold_sessions(trace.epoch(0), ProblemThresholds{}, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  const CellStore& store = table.clusters;
  ASSERT_GT(store.size(), 0u);

  // Every stored key resolves to its own id through the binary search.
  for (std::uint32_t id = 0; id < store.size(); ++id) {
    ASSERT_EQ(store.id_of(store.key(id)), id);
    ASSERT_TRUE(store.contains(store.key(id)));
    ASSERT_EQ(store.find(store.key(id)), &store.cell(id));
  }
  // Misses: a key absent from a populated mask group, and the root.
  std::uint64_t absent = store.key(0) ^ (std::uint64_t{1} << 20);
  while (store.contains(absent)) absent += std::uint64_t{1} << 20;
  EXPECT_EQ(store.id_of(absent), CellStore::kNoCell);
  EXPECT_EQ(store.find(absent), nullptr);
  EXPECT_FALSE(store.contains(0));
}

TEST(CellStoreSorted, DefaultConstructedFindsNoKey) {
  // A default EpochClusterTable holds a default store; every lookup on it
  // must miss rather than read past its empty arrays.
  const CellStore store;
  EXPECT_TRUE(store.empty());
  for (const std::uint64_t raw :
       {std::uint64_t{0}, std::uint64_t{0x81}, std::uint64_t{kFullMask},
        ~std::uint64_t{0}}) {
    EXPECT_EQ(store.id_of(raw), CellStore::kNoCell) << raw;
    EXPECT_EQ(store.find(raw), nullptr) << raw;
    EXPECT_FALSE(store.contains(raw)) << raw;
  }
  const EpochClusterTable table;
  EXPECT_EQ(table.clusters.find(0x81), nullptr);
  EXPECT_EQ(table.stats(ClusterKey::from_raw(0x81)), ClusterStats{});
}

TEST(CellStoreSorted, FromMaskMajorValidatesShapes) {
  std::array<std::uint32_t, kFullMask + 2> offsets{};
  EXPECT_THROW((void)CellStore::from_mask_major({0x81}, {}, offsets),
               std::invalid_argument);
  EXPECT_THROW(
      (void)CellStore::from_mask_major({0x81}, {ClusterStats{}}, offsets),
      std::invalid_argument);  // offsets say empty, arrays say 1
  offsets.back() = 1;
  offsets[1] = 1;  // mask 0's range would be [0, 1) but offsets[1] > ... ok;
  // make them non-monotone instead:
  offsets[2] = 0;
  EXPECT_THROW(
      (void)CellStore::from_mask_major({0x81}, {ClusterStats{}}, offsets),
      std::invalid_argument);
}

}  // namespace
}  // namespace vq

// Differential tests for the mask-major hash-free lattice expansion: on the
// same sessions, the engine (serial, sharded, SIMD and scalar kernels) must
// reproduce the oracle's session-by-session aggregation (tests/oracle.h)
// cell for cell, with a dense-id layout that is canonical (mask-major,
// key-ascending) and invariant across shard counts and kernel variants —
// over arity caps {1, 2, 7}, shard counts {1, 4}, and adversarial leaf
// sets.  Also unit-covers the expand_kernels.h batch kernels against their
// scalar ground truth (ClusterKey::project, std::stable_sort) and the
// sorted-mode CellStore contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/cluster_engine.h"
#include "src/core/expand_kernels.h"
#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
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
  ASSERT_TRUE(store.sorted());
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

/// Identical arrays, id for id — the layout-invariance contract between two
/// runs of the *same* engine (different shard counts / kernels).
void expect_tables_elementwise_equal(const EpochClusterTable& expected,
                                     const EpochClusterTable& actual) {
  EXPECT_EQ(expected.root, actual.root);
  ASSERT_EQ(expected.clusters.size(), actual.clusters.size());
  for (std::uint32_t id = 0; id < expected.clusters.size(); ++id) {
    ASSERT_EQ(expected.clusters.key(id), actual.clusters.key(id)) << id;
    ASSERT_EQ(expected.clusters.cell(id), actual.clusters.cell(id)) << id;
  }
  EXPECT_EQ(expected.leaf_index.masks, actual.leaf_index.masks);
  EXPECT_EQ(expected.leaf_index.leaf_keys, actual.leaf_index.leaf_keys);
  EXPECT_EQ(expected.leaf_index.leaf_stats, actual.leaf_index.leaf_stats);
  EXPECT_EQ(expected.leaf_index.leaf_group, actual.leaf_index.leaf_group);
  EXPECT_EQ(expected.leaf_index.layout, actual.leaf_index.layout);
  EXPECT_EQ(test::leaf_rows(expected), test::leaf_rows(actual));
}

/// Every leaf's row must name, mask by mask, the cell whose key is that
/// leaf's projection — the engine-independent meaning of the index.
void expect_index_rows_valid(const EpochClusterTable& table) {
  const LeafCellIndex& index = table.leaf_index;
  const std::vector<std::vector<std::uint32_t>> rows = test::leaf_rows(table);
  ASSERT_EQ(rows.size(), index.num_leaves());
  for (std::size_t leaf = 0; leaf < index.num_leaves(); ++leaf) {
    const ClusterKey key = ClusterKey::from_raw(index.leaf_keys[leaf]);
    const std::vector<std::uint32_t>& row = rows[leaf];
    ASSERT_EQ(row.size(), index.masks.size()) << "leaf " << leaf;
    for (std::size_t j = 0; j < index.masks.size(); ++j) {
      ASSERT_LT(row[j], table.clusters.size());
      ASSERT_EQ(table.clusters.key(row[j]),
                key.project(index.masks[j]).raw())
          << "leaf " << leaf << " mask " << int{index.masks[j]};
    }
  }
}

/// The whole differential for one epoch at one arity cap: the serial
/// expansion against the oracle, then the scalar kernel and the sharded
/// runs against the serial one, id for id.
void run_differential(std::span<const Session> sessions, int arity) {
  SCOPED_TRACE("arity " + std::to_string(arity));
  const LeafFold fold = fold_sessions(sessions, ProblemThresholds{}, 0);
  ClusterEngineConfig config;
  config.max_arity = arity;

  const EpochClusterTable mask_major = expand_fold(fold, config);
  expect_canonical_layout(mask_major.clusters);
  test::expect_cells_match(mask_major,
                           oracle::aggregate(sessions, {}, arity));
  expect_index_rows_valid(mask_major);

  ClusterEngineConfig scalar_config = config;
  scalar_config.expand_kernel = BatchKernel::kScalar;
  expect_tables_elementwise_equal(mask_major,
                                  expand_fold(fold, scalar_config));

  ThreadPool pool{4};
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    expect_tables_elementwise_equal(
        mask_major, expand_fold(fold, config, &pool, shards));
  }
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
  // Enough distinct leaves to take the sharded paths for real.
  ASSERT_GT(fold_sessions(trace.epoch(0), {}, 0).leaves.size(), 512u);
  run_differential(trace.epoch(0), GetParam());
}

TEST_P(ExpandDifferential, EmptyFold) {
  run_differential({}, GetParam());
  const EpochClusterTable table = expand_fold(LeafFold{}, {});
  EXPECT_EQ(table.clusters.size(), 0u);
  EXPECT_TRUE(table.leaf_index.leaf_keys.empty());
  EXPECT_FALSE(table.leaf_index.masks.empty());
}

TEST_P(ExpandDifferential, SingleLeaf) {
  std::vector<Session> sessions;
  add_leaf(sessions, AttrVec{{37, 5, 4211, 3, 2, 1, 1}}, 9);
  run_differential(sessions, GetParam());
}

TEST_P(ExpandDifferential, AllLeavesProjectToOneCellOffSite) {
  // 600 leaves differing only in site: every mask without the site bit has
  // exactly one cell holding the whole population — maximal run sharing and
  // enough leaves to cross the shard threshold.
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
  // differing only there stress the top radix digit and the run boundaries
  // of every mask that drops it.
  std::vector<Session> sessions;
  for (std::uint16_t vod = 0; vod <= dim_capacity(AttrDim::kVodLive);
       ++vod) {
    add_leaf(sessions, AttrVec{{11, 4, 30000, 2, 1, 3, vod}}, 5, vod);
  }
  run_differential(sessions, GetParam());
}

INSTANTIATE_TEST_SUITE_P(ArityCaps, ExpandDifferential,
                         ::testing::Values(1, 2, 7), [](const auto& info) {
                           return "arity" + std::to_string(info.param);
                         });

TEST(ExpandDifferential, PipelineOutputsAgreeAcrossEngines) {
  // End to end: the full pipeline (fold -> expand -> critical analysis)
  // must publish identical results whichever kernel projected the full
  // lattice's keys and however the expansion was sharded.
  static const SessionTable trace = big_trace();
  PipelineConfig simd_config;
  simd_config.cluster_params = {.ratio_multiplier = 1.5, .min_sessions = 1};
  simd_config.workers = 2;
  simd_config.shards = 4;
  PipelineConfig scalar_config = simd_config;
  scalar_config.engine.expand_kernel = BatchKernel::kScalar;
  scalar_config.workers = 1;
  scalar_config.shards = 1;

  const PipelineResult simd = run_pipeline(trace, simd_config);
  const PipelineResult scalar = run_pipeline(trace, scalar_config);
  ASSERT_EQ(simd.num_epochs, scalar.num_epochs);
  std::size_t criticals = 0;
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < simd.num_epochs; ++e) {
      const CriticalAnalysis& a = simd.at(m, e).analysis;
      const CriticalAnalysis& b = scalar.at(m, e).analysis;
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

TEST(ExpandKernels, FieldMaskMatchesDimFieldTable) {
  for (unsigned mask = 0; mask <= kFullMask; ++mask) {
    std::uint64_t expected = 0;
    for (int d = 0; d < kNumDims; ++d) {
      if ((mask >> d) & 1u) {
        const DimField field = dim_field(static_cast<AttrDim>(d));
        expected |= ((std::uint64_t{1} << field.bits) - 1) << field.offset;
      }
    }
    EXPECT_EQ(lattice_field_mask(static_cast<std::uint8_t>(mask)), expected)
        << mask;
  }
}

TEST(ExpandKernels, ProjectMatchesClusterKeyProject) {
  // 1027 leaves (odd, to exercise the SIMD tails) over the full id ranges.
  Xoshiro256ss rng{42};
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 1027; ++i) {
    AttrVec attrs;
    for (int d = 0; d < kNumDims; ++d) {
      attrs.v[static_cast<std::size_t>(d)] = static_cast<std::uint16_t>(
          rng() % (dim_capacity(static_cast<AttrDim>(d)) + 1u));
    }
    keys.push_back(ClusterKey::pack(kFullMask, attrs).raw());
  }
  std::vector<std::uint64_t> got_auto(keys.size());
  std::vector<std::uint64_t> got_scalar(keys.size());
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    const auto m = static_cast<std::uint8_t>(mask);
    project_keys(keys.data(), keys.size(), m, got_auto.data(),
                 BatchKernel::kAuto);
    project_keys(keys.data(), keys.size(), m, got_scalar.data(),
                 BatchKernel::kScalar);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t expected =
          ClusterKey::from_raw(keys[i]).project(m).raw();
      ASSERT_EQ(got_auto[i], expected) << "mask " << mask << " i " << i;
      ASSERT_EQ(got_scalar[i], expected) << "mask " << mask << " i " << i;
    }
  }
}

TEST(ExpandKernels, ChainHeadFillsBelowLowestDimension) {
  EXPECT_EQ(chain_head(0b0000001), 0b0000001);
  EXPECT_EQ(chain_head(0b1000000), kFullMask);
  EXPECT_EQ(chain_head(0b0110000), 0b0111111);
  EXPECT_EQ(chain_head(0b1000100), 0b1000111);
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    const std::uint8_t head = chain_head(static_cast<std::uint8_t>(mask));
    // The head extends the mask with exactly the dims below its lowest bit.
    EXPECT_EQ(head & mask, mask);
    EXPECT_EQ(head, mask | ((1u << std::countr_zero(mask)) - 1u));
    // Heads are fixed points: grouping by head never cascades.
    EXPECT_EQ(chain_head(head), head);
  }
}

TEST(ExpandKernels, RadixPlanCoversExactlyOccupiedDigits) {
  // Site occupies key bits 7-18: byte windows 0, 1, 2.
  const RadixPlan site = radix_plan(dim_bit(AttrDim::kSite));
  ASSERT_EQ(site.passes, 3);
  EXPECT_EQ(site.shifts[0], 0);
  EXPECT_EQ(site.shifts[1], 8);
  EXPECT_EQ(site.shifts[2], 16);
  // VoD/Live occupies bits 53-54: byte window 6 only.
  const RadixPlan vod = radix_plan(dim_bit(AttrDim::kVodLive));
  ASSERT_EQ(vod.passes, 1);
  EXPECT_EQ(vod.shifts[0], 48);
  // The full key spans bytes 0-6; byte 7 is always constant (bit 63 clear).
  const RadixPlan full = radix_plan(kFullMask);
  EXPECT_EQ(full.passes, 7);
}

TEST(ExpandKernels, RadixSortMatchesStableSort) {
  Xoshiro256ss rng{7};
  for (const std::size_t n : {0u, 1u, 2u, 255u, 4096u}) {
    std::vector<std::uint64_t> keys(n);
    std::vector<std::uint32_t> rows(n);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Duplicate-heavy keys under the full-mask plan's digit span.
      keys[i] = (rng() % 4096) << kNumDims;
      rows[i] = static_cast<std::uint32_t>(i);
      expected[i] = {keys[i], rows[i]};
    }
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const RadixPlan plan = radix_plan(kFullMask);
    std::vector<std::uint64_t> key_scratch(1);  // deliberately undersized
    std::vector<std::uint32_t> row_scratch;
    const std::uint64_t bytes =
        radix_sort_pairs(keys, rows, plan, key_scratch, row_scratch);
    ASSERT_EQ(keys.size(), n);
    ASSERT_EQ(rows.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(keys[i], expected[i].first) << i;
      EXPECT_EQ(rows[i], expected[i].second) << i;
    }
    // Only passes whose digit actually varies across the keys scatter;
    // constant digits (bytes 3-6 here, plus any small-n coincidences) are
    // skipped.
    std::uint64_t executed = 0;
    for (int p = 0; p < plan.passes && n >= 2; ++p) {
      std::set<std::uint64_t> digits;
      for (const auto& [k, r] : expected) digits.insert((k >> plan.shifts[static_cast<std::size_t>(p)]) & 0xFFu);
      executed += digits.size() > 1 ? 1 : 0;
    }
    const std::uint64_t expected_bytes =
        n < 2 ? 0 : static_cast<std::uint64_t>(n) * executed * 12;
    EXPECT_EQ(bytes, expected_bytes);
  }
}

TEST(CellStoreSorted, LookupsAndAccessors) {
  static const SessionTable trace = big_trace();
  const LeafFold fold =
      fold_sessions(trace.epoch(0), ProblemThresholds{}, 0);
  const EpochClusterTable table = expand_fold(fold, {});
  const CellStore& store = table.clusters;
  ASSERT_TRUE(store.sorted());
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

TEST(CellStoreSorted, MutatorsThrow) {
  const EpochClusterTable table = expand_fold(LeafFold{}, {});
  CellStore store = table.clusters;  // copy keeps sorted mode
  ASSERT_TRUE(store.sorted());
  EXPECT_THROW((void)store.id_or_insert(0x81), std::logic_error);
  EXPECT_THROW(store.add_to(0, ClusterStats{}), std::logic_error);
  // A mutable store takes both.
  CellStore mutable_store;
  const std::uint32_t id = mutable_store.id_or_insert(0x81);
  mutable_store.add_to(id, ClusterStats{.sessions = 3, .problems = {}});
  EXPECT_EQ(mutable_store.find(0x81)->sessions, 3u);
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

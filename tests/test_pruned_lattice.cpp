// Differential tests for the significance-pruned lattice: expand_fold with
// an analysis floor above 1 must build exactly the full lattice's cells
// with sessions >= floor (same keys, stats and canonical id order), a
// membership relation holding exactly each leaf's projections at or above
// the floor (the leaf rows rebuilt from the cells' member lists), and
// every CriticalAnalysis equal to the
// full lattice's field by field, doubles by bit pattern — over randomized
// folds with planted events, floors {2, 3, median cell size, root sessions,
// root sessions + 1}, arity caps {2, 7} and shard counts {1, 4} (passed to
// the pool and shard arguments of expand_fold and the single-metric
// find_critical_clusters, which ignore them).  Floors 0 and 1 must build
// every non-empty cell.  Also
// covers the floor guard on every analysis entry point and that the
// pipelines and the detector pass their floor and agree with the
// brute-force oracle (tests/oracle.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/critical_cluster.h"
#include "src/core/monitor.h"
#include "src/core/pipeline.h"
#include "src/core/problem_cluster.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/oracle.h"
#include "tests/oracle_match.h"
#include "tests/test_support.h"

namespace vq {
namespace {

/// A random epoch of ~`num_leaves` distinct leaves over a small attribute
/// universe (so low-arity cells clear the floor), with three planted
/// events that raise one metric's problem rate inside one cluster each.
/// VoD/Live is constant, so the cell [vod=0] holds every root session.
LeafFold planted_fold(std::uint64_t seed, std::size_t num_leaves,
                      std::uint32_t epoch) {
  Xoshiro256ss rng{seed};
  struct Event {
    AttrDim a, b;
    std::uint16_t va, vb;
    int metric;
  };
  const Event events[] = {
      {AttrDim::kSite, AttrDim::kCdn, 3, 1, 0},
      {AttrDim::kAsn, AttrDim::kConnType, 7, 2, 2},
      {AttrDim::kCdn, AttrDim::kPlayer, 2, 0, 3},
  };
  test::FoldBuilder fold{epoch};
  for (std::size_t i = 0; i < num_leaves; ++i) {
    AttrVec a;
    a[AttrDim::kSite] = static_cast<std::uint16_t>(rng() % 12);
    a[AttrDim::kCdn] = static_cast<std::uint16_t>(rng() % 4);
    a[AttrDim::kAsn] = static_cast<std::uint16_t>(rng() % 40);
    a[AttrDim::kConnType] = static_cast<std::uint16_t>(rng() % 4);
    a[AttrDim::kPlayer] = static_cast<std::uint16_t>(rng() % 3);
    a[AttrDim::kBrowser] = static_cast<std::uint16_t>(rng() % 4);
    ClusterStats s;
    s.sessions = 1 + static_cast<std::uint32_t>(rng() % 8);
    for (int m = 0; m < kNumMetrics; ++m) {
      std::uint64_t percent = 5;
      for (const Event& e : events) {
        if (e.metric == m && a[e.a] == e.va && a[e.b] == e.vb) percent = 70;
      }
      for (std::uint32_t k = 0; k < s.sessions; ++k) {
        s.problems[m] += rng() % 100 < percent ? 1 : 0;
      }
    }
    fold.add(a, s);
  }
  return fold.build();
}

/// Bit-exact equality of every analysis field; doubles by bit pattern.
void expect_analyses_identical(const CriticalAnalysis& expected,
                               const CriticalAnalysis& actual) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  EXPECT_EQ(expected.epoch, actual.epoch);
  EXPECT_EQ(expected.metric, actual.metric);
  EXPECT_EQ(expected.sessions, actual.sessions);
  EXPECT_EQ(expected.problem_sessions, actual.problem_sessions);
  EXPECT_EQ(expected.problem_sessions_in_pc, actual.problem_sessions_in_pc);
  EXPECT_EQ(bits(expected.global_ratio), bits(actual.global_ratio));
  EXPECT_EQ(expected.num_problem_clusters, actual.num_problem_clusters);
  EXPECT_EQ(expected.problem_cluster_keys, actual.problem_cluster_keys);
  EXPECT_EQ(bits(expected.attributed_mass), bits(actual.attributed_mass));
  ASSERT_EQ(expected.criticals.size(), actual.criticals.size());
  for (std::size_t i = 0; i < expected.criticals.size(); ++i) {
    EXPECT_EQ(expected.criticals[i].key, actual.criticals[i].key);
    EXPECT_EQ(bits(expected.criticals[i].attributed),
              bits(actual.criticals[i].attributed));
    EXPECT_EQ(expected.criticals[i].stats, actual.criticals[i].stats);
  }
}

/// The pruned table against the full one at `floor`: store contents and
/// order, the index's layouts and membership relation, and all four
/// analyses at min_sessions = floor.
/// Returns the total number of critical clusters, to catch vacuous passes.
std::size_t expect_pruned_matches_full(const LeafFold& fold,
                                       const EpochClusterTable& full,
                                       const EpochClusterTable& pruned,
                                       std::uint32_t floor, ThreadPool* pool,
                                       std::size_t shards) {
  EXPECT_EQ(full.floor, 0u);
  EXPECT_EQ(pruned.floor, floor);
  EXPECT_EQ(pruned.epoch, full.epoch);
  EXPECT_EQ(pruned.root, full.root);

  // Store: the full store filtered to sessions >= floor, in id order.
  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  full.clusters.for_each([&](std::uint64_t raw, const ClusterStats& s) {
    if (s.sessions >= floor) {
      keys.push_back(raw);
      stats.push_back(s);
    }
  });
  EXPECT_EQ(std::vector<std::uint64_t>(pruned.clusters.keys().begin(),
                                       pruned.clusters.keys().end()),
            keys);
  EXPECT_EQ(std::vector<ClusterStats>(pruned.clusters.cells().begin(),
                                      pruned.clusters.cells().end()),
            stats);
  for (std::uint32_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(pruned.clusters.id_of(keys[id]), id);
  }

  // Membership: both tables keep a strictly ascending member list per cell
  // (the index's shape), the full one over one group per leaf.  Each
  // pruned leaf row rebuilt from the member lists is the full row's cells
  // with sessions >= floor, as pruned ids, in the full row's ascending mask
  // order.
  const LeafCellIndex& fi = full.leaf_index;
  const LeafCellIndex& pi = pruned.leaf_index;
  EXPECT_EQ(pi.leaf_keys, fi.leaf_keys);
  EXPECT_EQ(pi.leaf_stats, fi.leaf_stats);
  EXPECT_EQ(fi.num_groups(), fi.num_leaves());
  test::expect_index_shape(full);
  test::expect_index_shape(pruned);
  const std::vector<std::vector<std::uint32_t>> full_rows =
      test::leaf_rows(full);
  const std::vector<std::vector<std::uint32_t>> pruned_rows =
      test::leaf_rows(pruned);
  EXPECT_EQ(pruned_rows.size(), fi.num_leaves());
  std::size_t mismatched_rows = 0;
  for (std::size_t leaf = 0; leaf < fi.num_leaves(); ++leaf) {
    std::vector<std::uint32_t> want;
    for (const std::uint32_t id : full_rows[leaf]) {
      if (full.clusters.cell(id).sessions >= floor) {
        want.push_back(pruned.clusters.id_of(full.clusters.key(id)));
      }
    }
    if (leaf >= pruned_rows.size() || want != pruned_rows[leaf]) {
      ++mismatched_rows;
    }
  }
  EXPECT_EQ(mismatched_rows, 0u);

  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = floor};
  std::size_t criticals = 0;
  for (const Metric m : kAllMetrics) {
    const CriticalAnalysis want =
        find_critical_clusters(fold, full, params, m, pool, shards);
    criticals += want.criticals.size();
    expect_analyses_identical(
        want, find_critical_clusters(fold, pruned, params, m, pool, shards));
  }
  return criticals;
}

enum class FloorKind { kTwo, kThree, kMedianCell, kRoot, kAboveRoot };

std::uint32_t resolve_floor(FloorKind kind, const EpochClusterTable& full) {
  switch (kind) {
    case FloorKind::kTwo:
      return 2;
    case FloorKind::kThree:
      return 3;
    case FloorKind::kMedianCell: {
      std::vector<std::uint32_t> sizes;
      for (const ClusterStats& s : full.clusters.cells()) {
        sizes.push_back(s.sessions);
      }
      std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                       sizes.end());
      return std::max<std::uint32_t>(2, sizes[sizes.size() / 2]);
    }
    case FloorKind::kRoot:
      return full.root.sessions;
    case FloorKind::kAboveRoot:
      return full.root.sessions + 1;
  }
  return 2;
}

using PrunedParam = std::tuple<FloorKind, int, std::size_t>;

std::string pruned_param_name(
    const ::testing::TestParamInfo<PrunedParam>& info) {
  static const char* const kNames[] = {"two", "three", "median", "root",
                                       "above_root"};
  return std::string{kNames[static_cast<int>(std::get<0>(info.param))]} +
         "_arity" + std::to_string(std::get<1>(info.param)) + "_shards" +
         std::to_string(std::get<2>(info.param));
}

class PrunedLatticeFloors : public ::testing::TestWithParam<PrunedParam> {};

TEST_P(PrunedLatticeFloors, MatchesFullLatticeFilteredToFloor) {
  const auto [kind, arity, shards] = GetParam();
  ThreadPool pool{4};
  ClusterEngineConfig config;
  config.max_arity = arity;
  std::size_t criticals = 0;
  for (const std::uint64_t seed : {11u, 29u}) {
    const LeafFold fold = planted_fold(seed, 3000, 5);
    const EpochClusterTable full = expand_fold(fold, config, &pool, shards);
    const std::uint32_t floor = resolve_floor(kind, full);
    ASSERT_GT(floor, 1u);
    const EpochClusterTable pruned =
        expand_fold(fold, config, &pool, shards, floor);
    criticals +=
        expect_pruned_matches_full(fold, full, pruned, floor, &pool, shards);
    if (kind == FloorKind::kRoot) {
      // Only the constant dimension's cell holds every root session.
      ASSERT_EQ(pruned.clusters.size(), 1u);
      EXPECT_EQ(pruned.clusters.key(0),
                ClusterKey::pack(dim_bit(AttrDim::kVodLive), AttrVec{}).raw());
    }
    if (kind == FloorKind::kAboveRoot) {
      EXPECT_TRUE(pruned.clusters.empty());
    }
  }
  // The planted events must surface at the low floors.
  if (kind == FloorKind::kTwo || kind == FloorKind::kThree ||
      kind == FloorKind::kMedianCell) {
    EXPECT_GT(criticals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, PrunedLatticeFloors,
    ::testing::Combine(::testing::Values(FloorKind::kTwo, FloorKind::kThree,
                                         FloorKind::kMedianCell,
                                         FloorKind::kRoot,
                                         FloorKind::kAboveRoot),
                       ::testing::Values(2, 7),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    pruned_param_name);

TEST(PrunedLattice, EmptyEpoch) {
  LeafFold fold;
  fold.epoch = 3;
  const EpochClusterTable full = expand_fold(fold, {});
  const EpochClusterTable pruned = expand_fold(fold, {}, nullptr, 1, 50);
  EXPECT_TRUE(pruned.clusters.empty());
  EXPECT_TRUE(pruned.leaf_index.empty());
  EXPECT_TRUE(pruned.leaf_index.cell_rows.empty());
  expect_pruned_matches_full(fold, full, pruned, 50, nullptr, 1);
}

TEST(PrunedLattice, NoCellReachesTheFloor) {
  // Every cell of a 40-leaf epoch holds fewer sessions than the floor: the
  // store is empty, there are no member lists, and the analyses still carry
  // the epoch's header counts.
  const LeafFold fold = planted_fold(3, 40, 0);
  ASSERT_LT(fold.root.sessions, 1000u);
  const EpochClusterTable full = expand_fold(fold, {});
  const EpochClusterTable pruned = expand_fold(fold, {}, nullptr, 1, 1000);
  EXPECT_TRUE(pruned.clusters.empty());
  EXPECT_EQ(pruned.leaf_index.num_leaves(), fold.leaves.size());
  EXPECT_TRUE(pruned.leaf_index.cell_rows.empty());
  // No attribute value reaches the floor, so every leaf is in one group.
  EXPECT_EQ(pruned.leaf_index.num_groups(), 1u);
  EXPECT_TRUE(pruned.leaf_index.member_bounds.empty());
  EXPECT_EQ(pruned.leaf_index.leaf_group,
            std::vector<std::uint32_t>(fold.leaves.size(), 0));
  expect_pruned_matches_full(fold, full, pruned, 1000, nullptr, 1);
}

TEST(PrunedLattice, FullLatticeWhereNotPruned) {
  // Floors <= 1 build the full lattice and record no floor: every
  // non-empty cell, each leaf its own group and a member of each of its
  // projections.
  const LeafFold fold = planted_fold(5, 500, 0);
  std::set<std::uint64_t> cells;
  for (const FoldLeaf& leaf : fold.leaves) {
    for (const std::uint8_t mask : lattice_masks(kNumDims)) {
      cells.insert(ClusterKey::from_raw(leaf.key).project(mask).raw());
    }
  }
  for (const std::uint32_t floor : {0u, 1u}) {
    const EpochClusterTable t = expand_fold(fold, {}, nullptr, 1, floor);
    EXPECT_EQ(t.floor, 0u);
    EXPECT_EQ(std::set<std::uint64_t>(t.clusters.keys().begin(),
                                      t.clusters.keys().end()),
              cells);
    EXPECT_EQ(t.clusters.size(), cells.size());
    EXPECT_EQ(t.leaf_index.num_groups(), fold.leaves.size());
    EXPECT_EQ(t.leaf_index.cell_rows.size(),
              fold.leaves.size() * lattice_masks(kNumDims).size());
    test::expect_index_shape(t);
  }
}

TEST(PrunedLattice, CandidateMasksMatchTheFullTable) {
  // critical_candidate_masks (EngagementWhatIf's per-leaf test) reads the
  // same candidates from the table pruned at the analysis floor as from
  // the full one: a superset below the floor reads as empty, so it is
  // insignificant there as in the full table, and every ancestor that
  // condition (c) reads holds at least the flagged cell's sessions.
  const LeafFold fold = planted_fold(13, 1000, 0);
  const EpochClusterTable full = expand_fold(fold, {});
  for (const std::uint32_t floor :
       {1u, resolve_floor(FloorKind::kTwo, full),
        resolve_floor(FloorKind::kMedianCell, full),
        resolve_floor(FloorKind::kRoot, full)}) {
    SCOPED_TRACE("floor " + std::to_string(floor));
    const EpochClusterTable pruned =
        expand_fold(fold, {}, nullptr, 1, floor);
    const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                      .min_sessions = floor};
    std::size_t candidates = 0;
    std::size_t mismatched = 0;
    for (const FoldLeaf& leaf : fold.leaves) {
      const ClusterKey key = ClusterKey::from_raw(leaf.key);
      for (const Metric m : kAllMetrics) {
        const std::vector<std::uint8_t> want =
            critical_candidate_masks(key, full, params, m);
        candidates += want.size();
        mismatched +=
            critical_candidate_masks(key, pruned, params, m) == want ? 0 : 1;
      }
    }
    EXPECT_EQ(mismatched, 0u);
    if (floor <= 2) {
      EXPECT_GT(candidates, 0u);
    }
  }
}

/// A pruned table and params just below its floor.
struct BelowFloor {
  LeafFold fold = planted_fold(7, 600, 0);
  EpochClusterTable table = expand_fold(fold, {}, nullptr, 1, 150);
  ProblemClusterParams params{.ratio_multiplier = 1.5, .min_sessions = 100};
};

TEST(PrunedLattice, FindCriticalClustersThrowsBelowFloor) {
  const BelowFloor b;
  EXPECT_THROW((void)find_critical_clusters(b.fold, b.table, b.params,
                                            Metric::kBufRatio),
               std::invalid_argument);
  EXPECT_THROW((void)find_critical_clusters(b.fold, b.table, b.params),
               std::invalid_argument);
  EXPECT_THROW((void)critical_candidate_masks(
                   ClusterKey::from_raw(b.table.leaf_index.leaf_keys[0]),
                   b.table, b.params, Metric::kBufRatio),
               std::invalid_argument);
  // At or above the floor the analysis runs.
  for (const std::uint32_t min_sessions : {150u, 400u}) {
    const ProblemClusterParams ok{.ratio_multiplier = 1.5,
                                  .min_sessions = min_sessions};
    EXPECT_NO_THROW((void)find_critical_clusters(b.fold, b.table, ok,
                                                 Metric::kBufRatio));
  }
}

TEST(PrunedLattice, ComputeCellFlagsThrowsBelowFloor) {
  const BelowFloor b;
  std::vector<std::uint16_t> words;
  EXPECT_THROW(compute_cell_flags(b.table, b.params,
                                  metric_set(Metric::kBitrate), words),
               std::invalid_argument);
}

TEST(PrunedLattice, FindProblemClustersThrowsBelowFloor) {
  const BelowFloor b;
  EXPECT_THROW(
      (void)find_problem_clusters(b.table, b.params, Metric::kJoinTime),
      std::invalid_argument);
}

TEST(PrunedLattice, ProblemSessionsCoveredThrowsBelowFloor) {
  const BelowFloor b;
  const std::vector<Session> none;
  EXPECT_THROW((void)problem_sessions_covered(none, b.table,
                                              ProblemThresholds{}, b.params,
                                              Metric::kJoinFailure),
               std::invalid_argument);
}

/// One epoch's sessions with a planted [site=2, cdn=1] buffering event.
std::vector<Session> planted_sessions(std::uint32_t epoch) {
  std::vector<Session> out;
  Xoshiro256ss rng{epoch + 101};
  for (int i = 0; i < 4000; ++i) {
    test::Attrs a{.site = static_cast<std::uint16_t>(rng() % 6),
                  .cdn = static_cast<std::uint16_t>(rng() % 3),
                  .asn = static_cast<std::uint16_t>(rng() % 30)};
    const bool event = a.site == 2 && a.cdn == 1;
    out.push_back(test::make_session(
        epoch, a,
        rng() % 100 < (event ? 60u : 5u) ? test::bad_buffering()
                                         : test::good_quality()));
  }
  return out;
}

TEST(PrunedLattice, PipelinesPassTheAnalysisFloor) {
  // run_pipeline, run_pipeline_streaming and StreamingDetector::ingest
  // build only the cells at or above min_sessions, and report what the
  // brute-force oracle derives from the raw sessions.
  SessionTable trace;
  for (std::uint32_t e = 0; e < 3; ++e) {
    for (const Session& s : planted_sessions(e)) trace.append(s);
  }
  trace.finalize();
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 120};
  oracle::Params oracle_params;
  oracle_params.min_sessions = params.min_sessions;
  std::vector<oracle::EpochAnalysis> want;
  std::uint64_t want_cells = 0;
  for (std::uint32_t e = 0; e < 3; ++e) {
    want.push_back(oracle::analyze_epoch(trace.epoch(e), oracle_params));
    for (const auto& per_subset : want.back().lattice.clusters) {
      for (const auto& [values, c] : per_subset) {
        want_cells += c.sessions >= params.min_sessions ? 1 : 0;
      }
    }
  }
  obs::Counter& cells = obs::Registry::global().counter("expand.cells");

  PipelineConfig config;
  config.cluster_params = params;
  std::uint64_t before = cells.value();
  const PipelineResult batch = run_pipeline(trace, config);
  EXPECT_EQ(cells.value() - before, want_cells);

  TableColumnsSource source{trace};
  before = cells.value();
  const PipelineResult streamed = run_pipeline_streaming(source, config);
  EXPECT_EQ(cells.value() - before, want_cells);

  MonitorConfig mc;
  mc.cluster_params = params;
  StreamingDetector detector{mc};
  std::size_t events = 0;
  before = cells.value();
  for (std::uint32_t e = 0; e < 3; ++e) {
    events += detector.ingest(trace.epoch(e), e).size();
    // The open incidents are this epoch's critical clusters.
    for (const Metric m : kAllMetrics) {
      std::set<oracle::Cluster> open;
      for (const Incident& i : detector.active(m)) {
        open.insert(test::decode(i.key.raw()));
      }
      std::set<oracle::Cluster> critical;
      for (const auto& [c, mass] :
           want[e].metrics[static_cast<std::uint8_t>(m)].criticals) {
        critical.insert(c);
      }
      EXPECT_EQ(open, critical) << "epoch " << e;
    }
  }
  EXPECT_EQ(cells.value() - before, want_cells);
  EXPECT_GT(events, 0u);

  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < 3; ++e) {
      test::expect_analysis_matches(batch.at(m, e).analysis, want[e], e, m,
                                    params.min_sessions);
      test::expect_analysis_matches(streamed.at(m, e).analysis, want[e], e,
                                    m, params.min_sessions);
    }
  }
}

}  // namespace
}  // namespace vq

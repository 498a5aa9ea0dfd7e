// Differential tests for the leaf-folded aggregation path.  The fold
// itself — the row fold and the column fold, both ending in the radix
// kernel fold_codes — must equal a std::map fold of the raw sessions
// (test::map_fold), leaf for leaf and in canonical order, on generated
// epochs and on the digit edge cases of the fold code.  On the same trace,
// the folded two-pass engine (serial and sharded) must reproduce a
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
#include "src/core/columns.h"
#include "src/core/epoch_analyzer.h"
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
      test::find_leaf(fold, ClusterKey::pack(kFullMask, a.vec()).raw());
  ASSERT_NE(leaf_a, nullptr);
  EXPECT_EQ(leaf_a->sessions, 12u);
  EXPECT_EQ(leaf_a->problems[static_cast<int>(Metric::kBufRatio)], 5u);
}

TEST(FoldDifferential, FoldRejectsEpochMismatch) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 3, test::Attrs{}, test::good_quality(), 1);
  EXPECT_THROW((void)fold_sessions(sessions, {}, 0), std::invalid_argument);
}

// --- the fold kernel against a std::map fold ---------------------------------

/// Every fold of `sessions` — fold_sessions, fold_sessions_into on a fold
/// that held another epoch, and fold_sessions_columns — equals the std::map
/// fold.
void expect_folds_match_map(std::span<const Session> sessions,
                            std::uint32_t epoch) {
  const ProblemThresholds thresholds;
  const LeafFold want = test::map_fold(sessions, thresholds, epoch);
  EXPECT_TRUE(test::folds_equal(want,
                                fold_sessions(sessions, thresholds, epoch)));

  std::vector<Session> other;
  test::add_sessions(other, epoch + 1, test::Attrs{.site = 9, .asn = 9},
                     test::bad_buffering(), 3000);
  LeafFold reused;  // keeps the other epoch's leaves and scratch
  fold_sessions_into(other, thresholds, epoch + 1, reused);
  fold_sessions_into(sessions, thresholds, epoch, reused);
  EXPECT_TRUE(test::folds_equal(want, reused));

  const SessionColumns columns =
      SessionColumns::from_sessions(sessions, epoch);
  EXPECT_TRUE(test::folds_equal(
      want, fold_sessions_columns(columns, thresholds, epoch)));
}

/// `n` sessions spread over `leaves` in a scrambled order, with a mix of
/// good and problem sessions.
std::vector<Session> scrambled(std::uint32_t epoch,
                               const std::vector<test::Attrs>& leaves,
                               std::size_t n) {
  const QualityMetrics qualities[] = {
      test::good_quality(), test::bad_buffering(), test::bad_bitrate(),
      test::good_quality(), test::bad_join_time(), test::failed_join()};
  std::vector<Session> sessions;
  for (std::size_t i = 0; i < n; ++i) {
    sessions.push_back(test::make_session(epoch,
                                          leaves[(i * 7919) % leaves.size()],
                                          qualities[(i * 31) % 6]));
  }
  return sessions;
}

TEST(FoldKernel, MatchesMapFoldOnGeneratedTrace) {
  static const SessionTable trace = big_trace();
  expect_folds_match_map(trace.epoch(0), 0);
}

TEST(FoldKernel, EmptyEpochAndOneSession) {
  expect_folds_match_map({}, 4);
  const LeafFold empty = fold_sessions({}, {}, 4);
  EXPECT_EQ(empty.epoch, 4u);
  EXPECT_TRUE(empty.leaves.empty());
  EXPECT_EQ(empty.root, ClusterStats{});

  std::vector<Session> one;
  test::add_sessions(one, 2, test::Attrs{.site = 5, .cdn = 1, .asn = 300},
                     test::bad_bitrate(), 1);
  expect_folds_match_map(one, 2);
}

TEST(FoldKernel, EverySessionOnOneLeaf) {
  const std::vector<Session> sessions = scrambled(
      0, {test::Attrs{.site = 17, .cdn = 2, .asn = 4000, .conn = 3}}, 5000);
  expect_folds_match_map(sessions, 0);
  const LeafFold fold = fold_sessions(sessions, {}, 0);
  ASSERT_EQ(fold.leaves.size(), 1u);
  EXPECT_EQ(fold.leaves[0].stats, fold.root);
}

TEST(FoldKernel, EveryFieldAtItsMaximum) {
  // Each field at its largest value against zeros and mixtures, so every
  // digit of the fold code varies, the top one included.
  const auto cap = [](AttrDim d) { return dim_capacity(d); };
  const test::Attrs max{.site = cap(AttrDim::kSite),
                        .cdn = cap(AttrDim::kCdn),
                        .asn = cap(AttrDim::kAsn),
                        .conn = cap(AttrDim::kConnType),
                        .player = cap(AttrDim::kPlayer),
                        .browser = cap(AttrDim::kBrowser),
                        .vod = cap(AttrDim::kVodLive)};
  ASSERT_EQ(max.site, 4095);
  ASSERT_EQ(max.asn, 65535);
  test::Attrs top_only;
  top_only.browser = max.browser;
  top_only.vod = max.vod;
  test::Attrs low_only = max;
  low_only.browser = 0;
  low_only.vod = 0;
  const std::vector<Session> sessions =
      scrambled(1, {max, test::Attrs{}, top_only, low_only,
                    test::Attrs{.site = max.site, .asn = max.asn}},
                4000);
  expect_folds_match_map(sessions, 1);
  const LeafFold fold = fold_sessions(sessions, {}, 1);
  ASSERT_EQ(fold.leaves.size(), 5u);
  EXPECT_EQ(fold.leaves.back().key,
            ClusterKey::pack(kFullMask, max.vec()).raw());
}

TEST(FoldKernel, LeavesThatDifferOnlyInSiteBitZero) {
  // Site bit 0 is the lowest bit the radix sort orders on, right above the
  // problem bits that share the code's low byte.
  std::vector<test::Attrs> leaves;
  for (std::uint16_t site = 0; site < 2; ++site) {
    for (std::uint16_t asn = 0; asn < 3; ++asn) {
      leaves.push_back(test::Attrs{.site = site, .cdn = 1, .asn = asn});
    }
  }
  expect_folds_match_map(scrambled(0, leaves, 3000), 0);
  expect_folds_match_map(
      scrambled(0, {test::Attrs{.site = 6}, test::Attrs{.site = 7}}, 1000),
      0);
}

TEST(FoldKernel, SessionsWithEveryProblemBitSet) {
  // A session can be a problem for all three quality metrics at once (a
  // failed join counts for JoinFailure alone)...
  QualityMetrics all_three = test::bad_buffering();
  all_three.bitrate_kbps = test::bad_bitrate().bitrate_kbps;
  all_three.join_time_ms = test::bad_join_time().join_time_ms;
  ASSERT_EQ(ProblemThresholds{}.problem_bits(all_three), 0b0111);
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{.site = 3}, all_three, 40);
  test::add_sessions(sessions, 0, test::Attrs{.site = 2}, test::failed_join(),
                     20);
  test::add_sessions(sessions, 0, test::Attrs{.site = 3}, test::failed_join(),
                     5);
  expect_folds_match_map(sessions, 0);

  // ...and the kernel counts all four bits of a code, whatever set them.
  LeafFold fold;
  fold.reset(6);
  const std::uint64_t a =
      ClusterKey::pack(kFullMask, test::Attrs{}.vec()).raw();
  const std::uint64_t b =
      ClusterKey::pack(kFullMask, test::Attrs{.site = 1}.vec()).raw();
  fold.codes = {fold_code(b, 0b1111), fold_code(a, 0b1111), fold_code(b, 0),
                fold_code(a, 0b1000), fold_code(b, 0b1111)};
  fold_codes(fold);
  EXPECT_EQ(fold.epoch, 6u);
  ASSERT_EQ(fold.leaves.size(), 2u);
  EXPECT_EQ(fold.leaves[0], (FoldLeaf{a, {2, {1, 1, 1, 2}}}));
  EXPECT_EQ(fold.leaves[1], (FoldLeaf{b, {3, {2, 2, 2, 2}}}));
  EXPECT_EQ(fold.root, (ClusterStats{5, {3, 3, 3, 4}}));
}

TEST(FoldKernel, FoldsRejectValuesThatOverflowTheirField) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, test::Attrs{}, test::good_quality(), 3);
  sessions[1].attrs[AttrDim::kSite] = 4096;  // a 12-bit field
  EXPECT_THROW((void)fold_sessions(sessions, {}, 0), std::out_of_range);
  const SessionColumns columns = SessionColumns::from_sessions(sessions, 0);
  EXPECT_THROW((void)fold_sessions_columns(columns, {}, 0), std::out_of_range);
}

TEST(FoldKernel, ExpandRejectsFoldsThatAreNotCanonical) {
  const std::uint64_t a =
      ClusterKey::pack(kFullMask, test::Attrs{.site = 1}.vec()).raw();
  const std::uint64_t b =
      ClusterKey::pack(kFullMask, test::Attrs{.site = 2}.vec()).raw();
  const ClusterStats one{1, {}};
  const auto fold_of = [&](std::vector<FoldLeaf> leaves) {
    LeafFold fold;
    fold.leaves = std::move(leaves);
    for (const FoldLeaf& leaf : fold.leaves) fold.root += leaf.stats;
    return fold;
  };
  const LeafFold unsorted = fold_of({{b, one}, {a, one}});
  const LeafFold repeated = fold_of({{a, one}, {a, one}, {b, one}});
  const LeafFold not_full_arity = fold_of(
      {{a, one}, {ClusterKey::pack(0b0000011, test::Attrs{.site = 3}.vec())
                      .raw(),
                  one}});
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 2};
  for (const LeafFold* fold : {&unsorted, &repeated, &not_full_arity}) {
    EXPECT_THROW((void)expand_fold(*fold, {}), std::invalid_argument);
    EXPECT_THROW((void)expand_fold(*fold, {}, nullptr, 1, 2),
                 std::invalid_argument);
    EpochAnalyzer analyzer{{}, params};
    EXPECT_THROW((void)analyzer.analyze(*fold), std::invalid_argument);
  }
  // The same leaves in canonical order expand.
  EXPECT_EQ(expand_fold(fold_of({{a, one}, {b, one}}), {}).root.sessions, 2u);
}

}  // namespace
}  // namespace vq

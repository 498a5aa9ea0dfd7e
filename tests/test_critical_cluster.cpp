// Tests for the phase-transition critical-cluster algorithm (paper §3.2),
// built around hand-constructed scenarios mirroring the paper's Figures 4
// and 5.

#include "src/core/critical_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

constexpr std::uint8_t kCdnMask = dim_bit(AttrDim::kCdn);
constexpr std::uint8_t kAsnMask = dim_bit(AttrDim::kAsn);
constexpr std::uint8_t kSiteMask = dim_bit(AttrDim::kSite);
constexpr std::uint8_t kCdnAsnMask = kCdnMask | kAsnMask;

struct Scenario {
  std::vector<Session> sessions;
  ProblemThresholds thresholds;
  ProblemClusterParams params{.ratio_multiplier = 1.5, .min_sessions = 50};

  void add(const Attrs& attrs, std::size_t bad, std::size_t good) {
    test::add_sessions(sessions, 0, attrs, test::bad_buffering(), bad);
    test::add_sessions(sessions, 0, attrs, test::good_quality(), good);
  }

  [[nodiscard]] CriticalAnalysis run() const {
    const auto table = aggregate_epoch(sessions, thresholds, {}, 0);
    return find_critical_clusters(fold_sessions(sessions, thresholds, 0),
                                  table, params, Metric::kBufRatio);
  }

  [[nodiscard]] const CriticalRecord* find(const CriticalAnalysis& analysis,
                                           std::uint8_t mask,
                                           const Attrs& attrs) const {
    const ClusterKey key = ClusterKey::pack(mask, attrs.vec());
    const auto it = std::find_if(
        analysis.criticals.begin(), analysis.criticals.end(),
        [&](const CriticalRecord& c) { return c.key == key; });
    return it == analysis.criticals.end() ? nullptr : &*it;
  }
};

// Paper Figure 4: one bad CDN manifests as distinct (ASN, CDN) problem
// clusters; the algorithm must attribute everything to the CDN alone.
TEST(CriticalCluster, AttributesSharedCauseToParent) {
  Scenario s;
  s.add(Attrs{.cdn = 1, .asn = 1}, 60, 40);
  s.add(Attrs{.cdn = 1, .asn = 2}, 60, 40);
  s.add(Attrs{.cdn = 2, .asn = 1}, 10, 390);
  s.add(Attrs{.cdn = 2, .asn = 2}, 10, 390);

  const CriticalAnalysis analysis = s.run();
  ASSERT_EQ(analysis.criticals.size(), 1u);
  const CriticalRecord* cdn1 = s.find(analysis, kCdnMask, Attrs{.cdn = 1});
  ASSERT_NE(cdn1, nullptr);
  // All 120 CDN1 problem sessions attributed to the CDN, none split across
  // the per-ASN children.
  EXPECT_DOUBLE_EQ(cdn1->attributed, 120.0);
  EXPECT_EQ(cdn1->stats.sessions, 200u);
}

// Paper Figure 5: the (CDN1, ASN1) pair is bad while CDN1 and ASN1 overall
// stay below the problem threshold -> the pair is the critical cluster.
TEST(CriticalCluster, FindsPhaseTransitionAtAttributePair) {
  Scenario s;
  s.add(Attrs{.cdn = 1, .asn = 1}, 60, 40);     // 0.60
  s.add(Attrs{.cdn = 1, .asn = 2}, 90, 810);    // 0.10 background
  s.add(Attrs{.cdn = 2, .asn = 1}, 90, 810);    // 0.10
  s.add(Attrs{.cdn = 2, .asn = 2}, 210, 1890);  // 0.10

  const CriticalAnalysis analysis = s.run();
  // Global = 450/4000 = 0.1125, flag threshold ~0.169: CDN1 is 150/1000 =
  // 0.15 (not flagged), ASN1 likewise; only the pair crosses.
  ASSERT_EQ(analysis.criticals.size(), 1u);
  const CriticalRecord* pair =
      s.find(analysis, kCdnAsnMask, Attrs{.cdn = 1, .asn = 1});
  ASSERT_NE(pair, nullptr);
  EXPECT_DOUBLE_EQ(pair->attributed, 60.0);
}

// "Once removing it every ancestor is not a problem cluster": when the
// parent stays bad even without the child cell, the parent (not the child)
// is the critical cluster.
TEST(CriticalCluster, RemovalTestRejectsChildOfIndependentlyBadParent) {
  Scenario s;
  // Both ASNs also carry healthy CDN2 traffic so the ASN clusters stay
  // below threshold and only the CDN explanation survives.
  s.add(Attrs{.cdn = 1, .asn = 1}, 60, 40);
  s.add(Attrs{.cdn = 1, .asn = 2}, 60, 40);
  s.add(Attrs{.cdn = 2, .asn = 1}, 10, 390);
  s.add(Attrs{.cdn = 2, .asn = 2}, 10, 390);

  const CriticalAnalysis analysis = s.run();
  ASSERT_EQ(analysis.criticals.size(), 1u);
  EXPECT_NE(s.find(analysis, kCdnMask, Attrs{.cdn = 1}), nullptr);
  EXPECT_EQ(s.find(analysis, kCdnAsnMask, Attrs{.cdn = 1, .asn = 1}),
            nullptr);
}

// Fully correlated attributes (a site served by exactly one CDN): both
// minimal explanations are kept and the mass is divided equally — the
// paper's explicit corner case.
TEST(CriticalCluster, CorrelatedAttributesSplitAttributionEqually) {
  Scenario s;
  s.add(Attrs{.site = 1, .cdn = 1}, 100, 100);
  s.add(Attrs{.site = 2, .cdn = 2}, 40, 760);

  const CriticalAnalysis analysis = s.run();
  ASSERT_EQ(analysis.criticals.size(), 2u);
  const CriticalRecord* site = s.find(analysis, kSiteMask, Attrs{.site = 1});
  const CriticalRecord* cdn = s.find(analysis, kCdnMask, Attrs{.cdn = 1});
  ASSERT_NE(site, nullptr);
  ASSERT_NE(cdn, nullptr);
  EXPECT_DOUBLE_EQ(site->attributed, 50.0);
  EXPECT_DOUBLE_EQ(cdn->attributed, 50.0);
  EXPECT_DOUBLE_EQ(analysis.attributed_mass, 100.0);
}

// A significant clean descendant within the session's cone vetoes the
// ancestor for that session ("every descendant is a problem cluster").
TEST(CriticalCluster, CleanSignificantDescendantBlocksAttribution) {
  Scenario s;
  // CDN1 is bad only on conn type 0; its conn-1 slice is large and clean.
  s.add(Attrs{.cdn = 1, .conn = 0}, 60, 40);
  s.add(Attrs{.cdn = 1, .conn = 1}, 3, 97);
  s.add(Attrs{.cdn = 2, .conn = 0}, 57, 743);

  const CriticalAnalysis analysis = s.run();
  // Global = 120/1000 = 0.12, threshold 0.18. CDN1 = 63/200 flagged.
  // conn-0 problem sessions attribute to CDN1; the 3 conn-1 problem
  // sessions see the clean significant (CDN1, conn=1) descendant and stay
  // unattributed.
  const CriticalRecord* cdn1 = s.find(analysis, kCdnMask, Attrs{.cdn = 1});
  ASSERT_NE(cdn1, nullptr);
  EXPECT_DOUBLE_EQ(cdn1->attributed, 60.0);
  EXPECT_DOUBLE_EQ(analysis.attributed_mass, 60.0);
  EXPECT_EQ(analysis.problem_sessions, 120u);
  EXPECT_EQ(analysis.problem_sessions_in_pc, 63u);
}

TEST(CriticalCluster, NoProblemsYieldEmptyAnalysis) {
  Scenario s;
  s.add(Attrs{.cdn = 1}, 0, 100);
  const CriticalAnalysis analysis = s.run();
  EXPECT_EQ(analysis.problem_sessions, 0u);
  EXPECT_TRUE(analysis.criticals.empty());
  EXPECT_EQ(analysis.attributed_mass, 0.0);
  EXPECT_EQ(analysis.critical_cluster_coverage(), 0.0);
}

TEST(CriticalCluster, UniformBackgroundProducesNoCriticals) {
  // Problems spread evenly: nothing is elevated 1.5x above global.
  Scenario s;
  s.add(Attrs{.cdn = 1, .asn = 1}, 10, 90);
  s.add(Attrs{.cdn = 1, .asn = 2}, 10, 90);
  s.add(Attrs{.cdn = 2, .asn = 1}, 10, 90);
  s.add(Attrs{.cdn = 2, .asn = 2}, 10, 90);
  const CriticalAnalysis analysis = s.run();
  EXPECT_TRUE(analysis.criticals.empty());
  EXPECT_EQ(analysis.problem_sessions, 40u);
  EXPECT_EQ(analysis.problem_sessions_in_pc, 0u);
}

TEST(CriticalCluster, AttributedMassNeverExceedsProblemSessions) {
  Scenario s;
  s.add(Attrs{.site = 1, .cdn = 1, .asn = 1}, 80, 20);
  s.add(Attrs{.site = 2, .cdn = 1, .asn = 2}, 70, 30);
  s.add(Attrs{.site = 3, .cdn = 2, .asn = 3}, 30, 870);
  const CriticalAnalysis analysis = s.run();
  EXPECT_LE(analysis.attributed_mass,
            static_cast<double>(analysis.problem_sessions) + 1e-9);
  EXPECT_LE(analysis.attributed_mass,
            static_cast<double>(analysis.problem_sessions_in_pc) + 1e-9);
  EXPECT_GE(analysis.critical_cluster_coverage(), 0.0);
  EXPECT_LE(analysis.critical_cluster_coverage(), 1.0);
}

TEST(CriticalCluster, CriticalsSortedByAttributedMass) {
  Scenario s;
  s.add(Attrs{.cdn = 1, .asn = 1}, 90, 10);
  s.add(Attrs{.cdn = 2, .asn = 2}, 60, 40);
  s.add(Attrs{.cdn = 3, .asn = 3}, 50, 950);
  const CriticalAnalysis analysis = s.run();
  for (std::size_t i = 1; i < analysis.criticals.size(); ++i) {
    EXPECT_GE(analysis.criticals[i - 1].attributed,
              analysis.criticals[i].attributed);
  }
}

TEST(CriticalCandidateMasks, DirectInspection) {
  Scenario s;
  s.add(Attrs{.cdn = 1, .asn = 1}, 60, 40);
  s.add(Attrs{.cdn = 1, .asn = 2}, 90, 810);
  s.add(Attrs{.cdn = 2, .asn = 1}, 90, 810);
  s.add(Attrs{.cdn = 2, .asn = 2}, 210, 1890);
  const auto table = aggregate_epoch(s.sessions, s.thresholds, {}, 0);

  const ClusterKey bad_leaf =
      ClusterKey::pack(kFullMask, Attrs{.cdn = 1, .asn = 1}.vec());
  const auto candidates = critical_candidate_masks(bad_leaf, table, s.params,
                                                   Metric::kBufRatio);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], kCdnAsnMask);

  // A background leaf has no flagged cluster anywhere in its cone.
  const ClusterKey clean_leaf =
      ClusterKey::pack(kFullMask, Attrs{.cdn = 2, .asn = 2}.vec());
  EXPECT_TRUE(critical_candidate_masks(clean_leaf, table, s.params,
                                       Metric::kBufRatio)
                  .empty());
}

TEST(CriticalCluster, MetricsAnalysedIndependently) {
  // CDN1 fails joins; ASN1 has low bitrate. Each metric should produce its
  // own critical cluster, and they must not bleed into each other.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 2},
                     test::failed_join(), 60);
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 2},
                     test::good_quality(), 40);
  test::add_sessions(sessions, 0, Attrs{.cdn = 2, .asn = 1},
                     test::bad_bitrate(), 60);
  test::add_sessions(sessions, 0, Attrs{.cdn = 2, .asn = 1},
                     test::good_quality(), 40);
  test::add_sessions(sessions, 0, Attrs{.cdn = 3, .asn = 3},
                     test::good_quality(), 800);

  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 50};
  const auto table = aggregate_epoch(sessions, thresholds, {}, 0);

  const LeafFold fold = fold_sessions(sessions, thresholds, 0);
  const auto fails =
      find_critical_clusters(fold, table, params, Metric::kJoinFailure);
  ASSERT_FALSE(fails.criticals.empty());
  for (const auto& c : fails.criticals) {
    EXPECT_TRUE(c.key.has(AttrDim::kCdn) || c.key.has(AttrDim::kAsn));
    if (c.key.has(AttrDim::kCdn)) {
      EXPECT_EQ(c.key.value(AttrDim::kCdn), 1);
    }
  }

  const auto bitrate =
      find_critical_clusters(fold, table, params, Metric::kBitrate);
  ASSERT_FALSE(bitrate.criticals.empty());
  for (const auto& c : bitrate.criticals) {
    if (c.key.has(AttrDim::kCdn)) {
      EXPECT_EQ(c.key.value(AttrDim::kCdn), 2);
    }
  }
}

}  // namespace
}  // namespace vq

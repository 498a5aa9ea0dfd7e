// Randomized reference checks for the critical-cluster algorithm: an
// independent straight-line re-derivation of the candidate conditions is
// evaluated against critical_candidate_masks() over many random epochs.

#include <gtest/gtest.h>

#include <bit>

#include "src/core/critical_cluster.h"
#include "src/util/flat_hash_map.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

/// Straight-line reference: returns whether mask m is a minimal critical
/// candidate for `leaf`, checking every condition with naive loops.
bool reference_is_candidate(std::uint8_t m, const ClusterKey& leaf,
                            const EpochClusterTable& table,
                            const ProblemClusterParams& params,
                            Metric metric) {
  const double global = table.global_ratio(metric);
  const auto flagged = [&](std::uint8_t mask) {
    return is_problem_cluster(table.stats(leaf.project(mask)), global,
                              params, metric);
  };

  if (!flagged(m)) return false;

  // (b) every significant superset within the leaf is flagged.
  for (unsigned s = 1; s <= kFullMask; ++s) {
    if ((s & m) != m || s == m) continue;
    const ClusterStats stats =
        table.stats(leaf.project(static_cast<std::uint8_t>(s)));
    if (is_significant(stats, params) &&
        !flagged(static_cast<std::uint8_t>(s))) {
      return false;
    }
  }

  // (c) removing m's sessions un-flags every proper non-empty subset.
  const ClusterStats m_stats = table.stats(leaf.project(m));
  for (unsigned a = 1; a < static_cast<unsigned>(m); ++a) {
    if ((a & m) != a) continue;
    const ClusterStats remaining =
        table.stats(leaf.project(static_cast<std::uint8_t>(a)))
            .minus(m_stats);
    if (is_problem_cluster(remaining, global, params, metric)) return false;
  }

  // Minimality: no proper subset of m also satisfies (a)-(c).
  for (unsigned a = 1; a < static_cast<unsigned>(m); ++a) {
    if ((a & m) != a) continue;
    if (reference_is_candidate(static_cast<std::uint8_t>(a), leaf, table,
                               params, metric)) {
      return false;
    }
  }
  return true;
}

std::vector<Session> random_epoch(Xoshiro256ss& rng) {
  std::vector<Session> sessions;
  const int blocks = 4 + static_cast<int>(rng.below(6));
  for (int b = 0; b < blocks; ++b) {
    Attrs attrs;
    attrs.site = static_cast<std::uint16_t>(rng.below(4));
    attrs.cdn = static_cast<std::uint16_t>(rng.below(3));
    attrs.asn = static_cast<std::uint16_t>(rng.below(4));
    attrs.conn = static_cast<std::uint16_t>(rng.below(2));
    const auto total = 30 + rng.below(120);
    const double bad_fraction = rng.uniform(0.0, 0.7);
    const auto bad = static_cast<std::size_t>(
        bad_fraction * static_cast<double>(total));
    test::add_sessions(sessions, 0, attrs, test::bad_buffering(), bad);
    test::add_sessions(sessions, 0, attrs, test::good_quality(),
                       total - bad);
  }
  return sessions;
}

TEST(CriticalReference, RandomEpochsMatchReferenceDerivation) {
  Xoshiro256ss rng{20130912};
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 40};
  int leaves_checked = 0;
  int candidates_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<Session> sessions = random_epoch(rng);
    const EpochClusterTable table =
        aggregate_epoch(sessions, thresholds, {}, 0);

    // Every distinct leaf present in the epoch.
    FlatSet64 seen;
    for (const Session& s : sessions) {
      const ClusterKey leaf = ClusterKey::pack(kFullMask, s.attrs);
      if (seen.contains(leaf.raw())) continue;
      seen.insert(leaf.raw());
      ++leaves_checked;

      const auto fast = critical_candidate_masks(leaf, table, params,
                                                 Metric::kBufRatio);
      candidates_seen += static_cast<int>(fast.size());
      for (unsigned m = 1; m <= kFullMask; ++m) {
        const bool in_fast =
            std::find(fast.begin(), fast.end(),
                      static_cast<std::uint8_t>(m)) != fast.end();
        const bool in_reference = reference_is_candidate(
            static_cast<std::uint8_t>(m), leaf, table, params,
            Metric::kBufRatio);
        ASSERT_EQ(in_fast, in_reference)
            << "mask " << m << " trial " << trial << " leaf " << leaf.raw();
      }
    }
  }
  // Make sure the comparison was not vacuous.
  EXPECT_GT(leaves_checked, 100);
  EXPECT_GT(candidates_seen, 20);
}

TEST(CriticalReference, AttributionConservesMass) {
  // Over random epochs: attributed mass equals the number of problem
  // sessions whose leaves have a non-empty candidate set (each contributes
  // exactly 1 split across candidates).
  Xoshiro256ss rng{555};
  const ProblemThresholds thresholds;
  const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                    .min_sessions = 40};
  for (int trial = 0; trial < 15; ++trial) {
    const std::vector<Session> sessions = random_epoch(rng);
    const EpochClusterTable table =
        aggregate_epoch(sessions, thresholds, {}, 0);
    const CriticalAnalysis analysis =
        find_critical_clusters(fold_sessions(sessions, thresholds, 0), table,
                               params, Metric::kBufRatio);

    double expected = 0.0;
    for (const Session& s : sessions) {
      if (!thresholds.is_problem(Metric::kBufRatio, s.quality)) continue;
      const ClusterKey leaf = ClusterKey::pack(kFullMask, s.attrs);
      if (!critical_candidate_masks(leaf, table, params, Metric::kBufRatio)
               .empty()) {
        expected += 1.0;
      }
    }
    EXPECT_NEAR(analysis.attributed_mass, expected, 1e-6)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace vq

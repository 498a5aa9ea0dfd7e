// The engine against the brute-force §3.1-3.2 oracle (tests/oracle.h).
//
// On small random worlds with planted events, every entry point that
// produces cells or analyses must agree with the oracle: expand_fold's
// cells and leaf index (its cell member lists), find_critical_clusters
// (the four-metric and the single-metric call), EpochAnalyzer,
// run_pipeline, run_pipeline_streaming and StreamingDetector's open
// incidents.  The grid covers analysis floors {1, 2, median cell size,
// root sessions} x max_arity {2, 7} x shards {1, 4}; the shard count is
// run_pipeline's worker count, and reaches the pool and shard arguments
// that expand_fold and the single-metric find_critical_clusters ignore.  Cell counts, the index, integer fields,
// problem-cluster sets and critical-cluster sets must match exactly;
// masses match within the bound of test::mass_bound
// (tests/oracle_match.h), where engine keys are decoded to (subset,
// tuple); the oracle never sees them.
//
// The first tests check the oracle itself on hand-computed epochs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/critical_cluster.h"
#include "src/core/epoch_analyzer.h"
#include "src/core/monitor.h"
#include "src/core/pipeline.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/oracle.h"
#include "tests/oracle_match.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

// --- the oracle on hand-computed epochs --------------------------------------

/// The oracle's parameters at the paper's 1.5x ratio multiplier.
oracle::Params at_floor(std::uint64_t min_sessions, int max_arity = kNumDims) {
  oracle::Params p;
  p.min_sessions = min_sessions;
  p.max_arity = max_arity;
  return p;
}

oracle::Cluster cluster_of(oracle::Subset subset, const Attrs& attrs) {
  return {subset, oracle::values_over(attrs.vec().v, subset)};
}

constexpr oracle::Subset kCdn = 1u << static_cast<int>(AttrDim::kCdn);
constexpr oracle::Subset kAsn = 1u << static_cast<int>(AttrDim::kAsn);
constexpr int kBuf = static_cast<int>(Metric::kBufRatio);

TEST(Oracle, OneBadCdnTakesAllOfItsProblemMass) {
  // CDN 1 buffers on every session; CDN 2 never does.  Both ASNs use both
  // CDNs, so neither ASN is a problem cluster, and [cdn=1, asn=a] fails
  // (c): without its sessions [cdn=1] is still a problem cluster.
  std::vector<Session> sessions;
  for (const std::uint16_t asn : {1, 2}) {
    test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = asn},
                       test::bad_buffering(), 30);
    test::add_sessions(sessions, 0, Attrs{.cdn = 2, .asn = asn},
                       test::good_quality(), 70);
  }
  const oracle::EpochAnalysis o =
      oracle::analyze_epoch(sessions, at_floor(20));
  const oracle::MetricAnalysis& buf = o.metrics[kBuf];
  EXPECT_EQ(buf.problem_sessions, 60u);
  EXPECT_EQ(buf.problem_sessions_in_pc, 60u);
  EXPECT_DOUBLE_EQ(buf.global_ratio, 0.3);
  // The cell [cdn=1] and every refinement of it are problem clusters; only
  // it is minimal.
  EXPECT_TRUE(buf.problem_clusters.contains(cluster_of(kCdn, {.cdn = 1})));
  ASSERT_EQ(buf.criticals.size(), 1u);
  const auto& [key, critical] = *buf.criticals.begin();
  EXPECT_EQ(key, cluster_of(kCdn, {.cdn = 1}));
  EXPECT_EQ(critical.counts.sessions, 60u);
  EXPECT_EQ(critical.mass(), 60.0);
  EXPECT_EQ(buf.attributed_sessions, 60u);
  // No other metric has a problem session, so nothing is flagged.
  for (int m = 1; m < kNumMetrics; ++m) {
    EXPECT_TRUE(o.metrics[m].problem_clusters.empty());
    EXPECT_TRUE(o.metrics[m].criticals.empty());
  }
}

TEST(Oracle, CorrelatedCausesSplitTheMassEqually) {
  // CDN 1 and ASN 1 always occur together, so removing either one's
  // sessions clears the other: both are minimal and share each session.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.cdn = 1, .asn = 1},
                     test::bad_buffering(), 40);
  test::add_sessions(sessions, 0, Attrs{.cdn = 2, .asn = 2},
                     test::good_quality(), 160);
  const oracle::EpochAnalysis o =
      oracle::analyze_epoch(sessions, at_floor(20));
  const oracle::MetricAnalysis& buf = o.metrics[kBuf];
  ASSERT_EQ(buf.criticals.size(), 2u);
  for (const oracle::Subset subset : {kCdn, kAsn}) {
    const oracle::CriticalCluster& c =
        buf.criticals.at(cluster_of(subset, {.cdn = 1, .asn = 1}));
    EXPECT_EQ(c.sessions_by_share,
              (std::map<std::size_t, std::uint64_t>{{2, 40}}));
    EXPECT_EQ(c.mass(), 20.0);
  }
  EXPECT_EQ(buf.attributed_sessions, 40u);
}

TEST(Oracle, BelowTheFloorNothingIsAProblemCluster) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.cdn = 1}, test::bad_buffering(), 5);
  test::add_sessions(sessions, 0, Attrs{.cdn = 2}, test::good_quality(), 15);
  const oracle::EpochAnalysis o =
      oracle::analyze_epoch(sessions, at_floor(21));
  EXPECT_EQ(o.metrics[kBuf].problem_sessions, 5u);
  EXPECT_EQ(o.metrics[kBuf].problem_sessions_in_pc, 0u);
  EXPECT_TRUE(o.metrics[kBuf].problem_clusters.empty());
  EXPECT_TRUE(o.metrics[kBuf].criticals.empty());
}

// --- worlds ------------------------------------------------------------------

constexpr std::uint32_t kEpochs = 3;
constexpr std::size_t kSessionsPerEpoch = 2000;

/// A value in [0, k) skewed towards 0, so leaves repeat and cells grow.
std::uint16_t skewed(Xoshiro256ss& rng, std::uint64_t k) {
  return static_cast<std::uint16_t>(std::min(rng() % k, rng() % k));
}

/// One epoch of sessions over a small attribute universe with four planted
/// events, one per metric.  VoD/Live is constant, so one cell holds every
/// session.  With `no_join_failures` no session fails to join, so that
/// metric has no problem session at all.
std::vector<Session> planted_epoch(Xoshiro256ss& rng, std::uint32_t epoch,
                                   bool no_join_failures) {
  std::vector<Session> out;
  out.reserve(kSessionsPerEpoch);
  for (std::size_t i = 0; i < kSessionsPerEpoch; ++i) {
    const Attrs a{.site = skewed(rng, 10),
                  .cdn = skewed(rng, 3),
                  .asn = skewed(rng, 24),
                  .conn = skewed(rng, 3),
                  .player = skewed(rng, 3),
                  .browser = skewed(rng, 3)};
    const auto chance = [&](bool event) {
      return rng() % 100 < (event ? 60u : 4u);
    };
    QualityMetrics q = test::good_quality();
    if (!no_join_failures && chance(a.conn == 2 && a.browser == 0)) {
      q = test::failed_join();
    } else {
      if (chance(a.site == 2 && a.cdn == 1)) {
        q.buffering_ratio = test::bad_buffering().buffering_ratio;
      }
      if (chance(a.asn == 3)) q.bitrate_kbps = test::bad_bitrate().bitrate_kbps;
      if (chance(a.cdn == 2 && a.player == 1)) {
        q.join_time_ms = test::bad_join_time().join_time_ms;
      }
    }
    out.push_back(test::make_session(epoch, a, q));
  }
  return out;
}

struct World {
  SessionTable trace;
  std::uint32_t degraded_epoch = kEpochs;  // none
};

/// Two worlds of kEpochs epochs.  The second has no join failure in its
/// middle epoch, and the detector sees that epoch as degraded.
const std::vector<World>& worlds() {
  static const std::vector<World> all = [] {
    std::vector<World> out;
    for (const std::uint64_t seed : {2013u, 912u}) {
      Xoshiro256ss rng{seed};
      std::vector<Session> sessions;
      for (std::uint32_t e = 0; e < kEpochs; ++e) {
        const bool quiet_epoch = seed == 912u && e == 1;
        for (const Session& s : planted_epoch(rng, e, quiet_epoch)) {
          sessions.push_back(s);
        }
      }
      World w{SessionTable{std::move(sessions)}};
      if (seed == 912u) w.degraded_epoch = 1;
      out.push_back(std::move(w));
    }
    return out;
  }();
  return all;
}

// --- the comparison ----------------------------------------------------------

using test::counts;
using test::decode;
using test::expect_analysis_matches;
using test::expect_index_matches;
using test::Found;
using test::mass_bound;

/// StreamingDetector's open incidents for `metric` against the oracle's
/// critical clusters of the epoch just ingested.
void expect_incidents_match(const StreamingDetector& detector,
                            const oracle::EpochAnalysis& o, Metric metric) {
  const oracle::MetricAnalysis& want =
      o.metrics[static_cast<std::uint8_t>(metric)];
  const std::vector<Incident> open = detector.active(metric);
  ASSERT_EQ(open.size(), want.criticals.size()) << metric_name(metric);
  for (const Incident& incident : open) {
    const auto it = want.criticals.find(decode(incident.key.raw()));
    ASSERT_NE(it, want.criticals.end()) << "incident " << incident.key.raw();
    EXPECT_EQ(counts(incident.stats), it->second.counts);
    EXPECT_NEAR(incident.attributed, it->second.mass(),
                mass_bound(it->second.sessions(), it->second.mass()));
  }
}

// --- the grid ----------------------------------------------------------------

enum class FloorKind { kOne, kTwo, kMedianCell, kRoot };

/// The analysis floor of `kind` for epochs analysed at `max_arity`: the
/// median cell size is taken over the first epoch's clusters, and raised to
/// 3 when it is smaller (it is 2 at arity 7 on these worlds), so that it is
/// a floor the other kinds do not cover.
std::uint32_t resolve_floor(FloorKind kind, std::span<const Session> epoch0,
                            int max_arity) {
  switch (kind) {
    case FloorKind::kOne:
      return 1;
    case FloorKind::kTwo:
      return 2;
    case FloorKind::kMedianCell: {
      const oracle::Lattice lattice =
          oracle::aggregate(epoch0, ProblemThresholds{}, max_arity);
      std::vector<std::uint64_t> sizes;
      for (const auto& per_subset : lattice.clusters) {
        for (const auto& [values, c] : per_subset) sizes.push_back(c.sessions);
      }
      std::nth_element(sizes.begin(), sizes.begin() + sizes.size() / 2,
                       sizes.end());
      return static_cast<std::uint32_t>(
          std::max<std::uint64_t>(3, sizes[sizes.size() / 2]));
    }
    case FloorKind::kRoot:
      return static_cast<std::uint32_t>(kSessionsPerEpoch);
  }
  return 1;
}

/// An in-memory EpochColumnsSource over a SessionTable.
class TableSource final : public EpochColumnsSource {
 public:
  explicit TableSource(const SessionTable& table) : table_(table) {}
  [[nodiscard]] std::uint32_t num_epochs() const override {
    return table_.num_epochs();
  }
  bool read_epoch(std::uint32_t e, SessionColumns& out) override {
    out = SessionColumns::from_sessions(table_.epoch(e), e);
    return false;
  }

 private:
  const SessionTable& table_;
};

using GridParam = std::tuple<FloorKind, int, std::size_t>;

std::string grid_name(const ::testing::TestParamInfo<GridParam>& info) {
  static const char* const kNames[] = {"one", "two", "median", "root"};
  return std::string{kNames[static_cast<int>(std::get<0>(info.param))]} +
         "_arity" + std::to_string(std::get<1>(info.param)) + "_shards" +
         std::to_string(std::get<2>(info.param));
}

class OracleDifferential : public ::testing::TestWithParam<GridParam> {};

TEST_P(OracleDifferential, EveryEntryPointMatchesTheOracle) {
  const auto [kind, arity, shards] = GetParam();
  ThreadPool pool{4};
  ThreadPool* const p = shards > 1 ? &pool : nullptr;
  const ProblemThresholds thresholds;
  ClusterEngineConfig engine;
  engine.max_arity = arity;

  for (std::size_t w = 0; w < worlds().size(); ++w) {
    SCOPED_TRACE("world " + std::to_string(w));
    const World& world = worlds()[w];
    const SessionTable& trace = world.trace;
    ASSERT_EQ(trace.num_epochs(), kEpochs);
    const std::uint32_t floor = resolve_floor(kind, trace.epoch(0), arity);
    SCOPED_TRACE("floor " + std::to_string(floor));
    const ProblemClusterParams params{.ratio_multiplier = 1.5,
                                      .min_sessions = floor};

    std::vector<oracle::EpochAnalysis> want;
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      want.push_back(oracle::analyze_epoch(trace.epoch(e),
                                           at_floor(floor, arity)));
    }

    // Per epoch: the table, both sweep entry points and a kept analyzer.
    Found found;
    EpochAnalyzer analyzer{engine, params};
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      const std::span<const Session> sessions = trace.epoch(e);
      const LeafFold fold = fold_sessions(sessions, thresholds, e);
      const EpochClusterTable table =
          expand_fold(fold, engine, p, shards, floor);
      EXPECT_EQ(table.floor, floor > 1 ? floor : 0u);
      test::expect_cells_match(table, want[e].lattice);
      expect_index_matches(table, sessions, want[e].lattice, arity);

      const std::array<CriticalAnalysis, kNumMetrics> all =
          find_critical_clusters(fold, table, params);
      const std::array<CriticalAnalysis, kNumMetrics> kept =
          analyzer.analyze(fold);
      for (const Metric m : kAllMetrics) {
        const auto mi = static_cast<std::uint8_t>(m);
        expect_analysis_matches(all[mi], want[e], e, m, floor, &found);
        expect_analysis_matches(
            find_critical_clusters(fold, table, params, m, p, shards),
            want[e], e, m, floor);
        expect_analysis_matches(kept[mi], want[e], e, m, floor);
      }
    }
    if (kind != FloorKind::kRoot) {
      EXPECT_GT(found.problem_clusters, 0u);
      EXPECT_GT(found.criticals, 0u);
    }

    // The pipelines, with as many workers as the grid's shards.
    PipelineConfig config;
    config.cluster_params = params;
    config.engine = engine;
    config.workers = shards;
    const PipelineResult batch = run_pipeline(trace, config);
    TableSource source{trace};
    const PipelineResult streamed = run_pipeline_streaming(source, config);
    for (const Metric m : kAllMetrics) {
      for (std::uint32_t e = 0; e < kEpochs; ++e) {
        expect_analysis_matches(batch.at(m, e).analysis, want[e], e, m,
                                floor);
        expect_analysis_matches(streamed.at(m, e).analysis, want[e], e, m,
                                floor);
      }
    }

    // The detector: after each clean epoch its open incidents are exactly
    // that epoch's critical clusters; a degraded epoch may keep more open.
    MonitorConfig mc;
    mc.cluster_params = params;
    mc.engine = engine;
    StreamingDetector detector{mc};
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      const bool degraded = e == world.degraded_epoch;
      (void)detector.ingest(trace.epoch(e), e, {.degraded = degraded});
      for (const Metric m : kAllMetrics) {
        if (!degraded) {
          expect_incidents_match(detector, want[e], m);
          continue;
        }
        std::set<oracle::Cluster> open;
        for (const Incident& i : detector.active(m)) {
          open.insert(decode(i.key.raw()));
        }
        for (const auto& [c, critical] :
             want[e].metrics[static_cast<std::uint8_t>(m)].criticals) {
          EXPECT_TRUE(open.contains(c));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Floors, OracleDifferential,
    ::testing::Combine(::testing::Values(FloorKind::kOne, FloorKind::kTwo,
                                         FloorKind::kMedianCell,
                                         FloorKind::kRoot),
                       ::testing::Values(2, 7),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    grid_name);

TEST(OracleDifferential, WorldsAreNotVacuous) {
  // Every world has problem clusters and critical clusters for every
  // metric that has problem sessions, and the quiet epoch has none for
  // join failures.
  for (const World& world : worlds()) {
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
      const oracle::EpochAnalysis o =
          oracle::analyze_epoch(world.trace.epoch(e), at_floor(40));
      for (int m = 0; m < kNumMetrics; ++m) {
        if (o.metrics[m].problem_sessions == 0) {
          EXPECT_EQ(m, static_cast<int>(Metric::kJoinFailure));
          continue;
        }
        EXPECT_FALSE(o.metrics[m].problem_clusters.empty()) << e << " " << m;
        EXPECT_FALSE(o.metrics[m].criticals.empty()) << e << " " << m;
      }
    }
  }
  const oracle::EpochAnalysis quiet =
      oracle::analyze_epoch(worlds()[1].trace.epoch(1), at_floor(40));
  EXPECT_EQ(quiet.metrics[static_cast<int>(Metric::kJoinFailure)]
                .problem_sessions,
            0u);
}

}  // namespace
}  // namespace vq

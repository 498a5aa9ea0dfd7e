// Sketch-bounded admission tier (src/baseline/hhh.h): count-min and
// space-saving guarantees, exactness of the admitted sub-lattice, and the
// planted-event recall/precision differential against the exact pipeline
// (the numbers EXPERIMENTS.md records).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "src/baseline/hhh.h"
#include "src/core/columns.h"
#include "src/core/pipeline.h"
#include "src/gen/tracegen.h"
#include "src/util/flat_hash_map.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

/// Deterministic 64-bit key stream (splitmix64) — no RNG state shared with
/// the sketch's own mixing.
struct KeyStream {
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
};

// --- count-min ---------------------------------------------------------------

TEST(SketchCountMin, NeverUnderestimates) {
  // A deliberately tiny sketch so collisions are guaranteed: the estimate
  // may exceed the truth but must never fall below it.
  CountMinSketch cms{64, 3};
  KeyStream keys;
  FlatMap64<std::uint64_t> truth;
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t key = keys.next() % 512;  // force collisions
    const std::uint64_t weight = 1 + key % 5;
    truth[key] += weight;
    cms.add(key, weight);
  }
  truth.for_each([&](std::uint64_t key, std::uint64_t count) {
    EXPECT_GE(cms.estimate(key), count) << "key " << key;
  });
}

TEST(SketchCountMin, ExactWithoutCollisions) {
  CountMinSketch cms{1 << 12, 4};
  for (std::uint64_t key = 1; key <= 8; ++key) cms.add(key, key * 10);
  // With 8 keys in a 4096-wide sketch, collisions across all 4 rows are
  // all but impossible; the min-row estimate is exact here.
  for (std::uint64_t key = 1; key <= 8; ++key) {
    EXPECT_EQ(cms.estimate(key), key * 10);
  }
  cms.clear();
  EXPECT_EQ(cms.estimate(3), 0u);
}

TEST(SketchCountMin, RejectsZeroDimensions) {
  EXPECT_THROW(CountMinSketch(0, 4), std::invalid_argument);
  EXPECT_THROW(CountMinSketch(64, 0), std::invalid_argument);
}

// --- space-saving ------------------------------------------------------------

TEST(SketchSpaceSaving, ExactUnderCapacity) {
  SpaceSaving ss{16};
  for (std::uint64_t key = 0; key < 10; ++key) {
    for (std::uint64_t i = 0; i <= key; ++i) ss.offer(key);
  }
  EXPECT_EQ(ss.size(), 10u);
  EXPECT_EQ(ss.evictions(), 0u);
  const auto entries = ss.entries();
  ASSERT_EQ(entries.size(), 10u);
  for (const SpaceSavingEntry& entry : entries) {
    EXPECT_EQ(entry.count, entry.key + 1);  // exact, no inherited error
    EXPECT_EQ(entry.error, 0u);
  }
  // Sorted by count descending.
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                             [](const auto& a, const auto& b) {
                               return a.count > b.count;
                             }));
}

TEST(SketchSpaceSaving, HeavyHittersSurviveEvictionPressure) {
  // 4 heavy keys (1000 each) in a noise stream of 4000 singletons, with
  // only 64 slots.  The space-saving guarantee: any key whose true count
  // exceeds total/capacity (= 8000/64 = 125) must be present, its count an
  // upper bound and count - error a lower bound on the truth.
  SpaceSaving ss{64};
  KeyStream noise;
  constexpr std::uint64_t kHeavy[] = {11, 22, 33, 44};
  for (int round = 0; round < 1'000; ++round) {
    for (const std::uint64_t key : kHeavy) ss.offer(key);
    for (int i = 0; i < 4; ++i) ss.offer(1'000'000 + noise.next() % 100'000);
  }
  EXPECT_GT(ss.evictions(), 0u);
  const auto entries = ss.entries();
  for (const std::uint64_t key : kHeavy) {
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [key](const SpaceSavingEntry& e) { return e.key == key; });
    ASSERT_NE(it, entries.end()) << "heavy key " << key << " evicted";
    EXPECT_GE(it->count, 1'000u);             // upper bound >= truth
    EXPECT_LE(it->count - it->error, 1'000u);  // lower bound <= truth
  }
}

TEST(SketchSpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving{0}, std::invalid_argument);
}

// --- admission ---------------------------------------------------------------

SessionColumns columns_of(const std::vector<Session>& sessions,
                          std::uint32_t epoch) {
  return SessionColumns::from_sessions(sessions, epoch);
}

TEST(SketchAdmissionFold, UnlimitedBudgetIsTheExactFold) {
  std::vector<Session> sessions;
  test::add_sessions(sessions, 0, Attrs{.site = 1, .cdn = 1},
                     test::bad_buffering(), 40);
  test::add_sessions(sessions, 0, Attrs{.site = 2, .cdn = 1},
                     test::good_quality(), 60);
  const SessionColumns columns = columns_of(sessions, 0);
  const ProblemThresholds thresholds;

  SketchAdmission admission{SketchAdmissionParams{.max_cells = 0}};
  const LeafFold bounded = admission.fold(columns, thresholds, 0);
  const LeafFold exact = fold_sessions_columns(columns, thresholds, 0);
  EXPECT_TRUE(test::folds_equal(exact, bounded));
  // The unlimited path never touches the sketches.
  EXPECT_EQ(admission.report().epochs, 0u);
}

TEST(SketchAdmissionFold, RootIsExactAndAdmittedLeavesCarryExactStats) {
  // 300 distinct one-session leaves plus 3 heavy leaves, with a budget of
  // 8 leaves (max_cells = 8 * 127): the heavy leaves must be admitted with
  // exactly the stats the unbounded fold would hold, and the root must
  // count every session regardless of the cut.
  std::vector<Session> sessions;
  test::add_sessions(sessions, 7, Attrs{.site = 1, .cdn = 1, .asn = 1},
                     test::bad_buffering(), 200);
  test::add_sessions(sessions, 7, Attrs{.site = 2, .cdn = 1, .asn = 2},
                     test::good_quality(), 150);
  test::add_sessions(sessions, 7, Attrs{.site = 3, .cdn = 2, .asn = 3},
                     test::bad_bitrate(), 100);
  for (std::uint16_t i = 0; i < 300; ++i) {
    test::add_sessions(sessions, 7,
                       Attrs{.site = static_cast<std::uint16_t>(4 + i % 50),
                             .cdn = static_cast<std::uint16_t>(i % 3),
                             .asn = static_cast<std::uint16_t>(100 + i)},
                       test::good_quality(), 1);
  }
  const SessionColumns columns = columns_of(sessions, 7);
  const ProblemThresholds thresholds;
  const LeafFold exact = fold_sessions_columns(columns, thresholds, 7);

  SketchAdmission admission{
      SketchAdmissionParams{.max_cells = 8 * std::size_t{kFullMask}}};
  EXPECT_EQ(admission.leaf_capacity(), 8u);
  const LeafFold bounded = admission.fold(columns, thresholds, 7);

  EXPECT_EQ(bounded.epoch, 7u);
  EXPECT_EQ(bounded.root, exact.root);  // exact over ALL sessions
  EXPECT_LE(bounded.leaves.size(), 8u);
  // The bounded fold is the exact fold restricted to the admitted leaves:
  // canonical order, and every admitted leaf's stats exact (pass 2 refolds
  // from the raw stream).
  std::vector<FoldLeaf> restricted;
  for (const FoldLeaf& leaf : exact.leaves) {
    if (test::find_leaf(bounded, leaf.key) != nullptr) {
      restricted.push_back(leaf);
    }
  }
  EXPECT_EQ(bounded.leaves, restricted);
  // The three heavy leaves beat every singleton; they must all be present.
  for (const Attrs& heavy :
       {Attrs{.site = 1, .cdn = 1, .asn = 1}, Attrs{.site = 2, .cdn = 1,
                                                    .asn = 2},
        Attrs{.site = 3, .cdn = 2, .asn = 3}}) {
    const std::uint64_t key = ClusterKey::pack(kFullMask, heavy.vec()).raw();
    EXPECT_NE(test::find_leaf(bounded, key), nullptr);
  }
  const SketchAdmissionReport& report = admission.report();
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_EQ(report.sessions_seen, sessions.size());
  EXPECT_GE(report.sessions_admitted, 450u);  // at least the heavy mass
  EXPECT_GT(report.evictions, 0u);
}

// --- planted-event recall/precision differential -----------------------------

/// In-memory EpochColumnsSource over a SessionTable (streaming test double).
class TableColumnsSource final : public EpochColumnsSource {
 public:
  explicit TableColumnsSource(const SessionTable& table) : table_(table) {}
  [[nodiscard]] std::uint32_t num_epochs() const override {
    return table_.num_epochs();
  }
  bool read_epoch(std::uint32_t e, SessionColumns& out) override {
    out.clear();
    for (const Session& s : table_.epoch(e)) out.push_back(s);
    return false;
  }

 private:
  const SessionTable& table_;
};

SessionTable planted_trace(std::uint32_t num_epochs) {
  WorldConfig world_config;
  world_config.num_sites = 10;
  world_config.num_cdns = 3;
  world_config.num_asns = 20;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = num_epochs;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = num_epochs;
  trace_config.sessions_per_epoch = 8000;
  return generate_trace(world, events, trace_config);
}

TEST(SketchAdmissionDifferential, PlantedEventRecallAndPrecisionVsExact) {
  const SessionTable trace = planted_trace(12);
  PipelineConfig config;
  config.cluster_params.min_sessions = 60;

  TableColumnsSource exact_source{trace};
  const PipelineResult exact = run_pipeline_streaming(exact_source, config);

  // Budget: 4000 leaves/epoch against ~3.5-4.5k distinct leaves — a mild
  // cut (~7% of sessions dropped at peak epochs).  The full budget sweep
  // (recall 0.08 at 400 leaves up to 1.00 at 6000) is in EXPERIMENTS.md;
  // leaf-level admission degrades sharply once aggregate clusters start
  // losing the light leaves beneath them, so budgets well under the
  // distinct-leaf count trade recall for memory.
  SketchAdmission admission{
      SketchAdmissionParams{.max_cells = 4000 * std::size_t{kFullMask}}};
  PipelineConfig bounded_config = config;
  bounded_config.fold_provider = [&](const SessionColumns& columns,
                                     const ProblemThresholds& thresholds,
                                     std::uint32_t epoch) {
    return admission.fold(columns, thresholds, epoch);
  };
  TableColumnsSource bounded_source{trace};
  const PipelineResult bounded =
      run_pipeline_streaming(bounded_source, bounded_config);

  std::uint64_t exact_total = 0;
  std::uint64_t bounded_total = 0;
  std::uint64_t hits = 0;
  for (const Metric m : kAllMetrics) {
    for (std::uint32_t e = 0; e < trace.num_epochs(); ++e) {
      std::set<std::uint64_t> truth;
      for (const auto& rec : exact.at(m, e).analysis.criticals) {
        truth.insert(rec.key.raw());
      }
      std::set<std::uint64_t> found;
      for (const auto& rec : bounded.at(m, e).analysis.criticals) {
        found.insert(rec.key.raw());
      }
      exact_total += truth.size();
      bounded_total += found.size();
      for (const std::uint64_t key : found) hits += truth.count(key);
      // The cut never changes the global counters the thresholds hang off.
      EXPECT_EQ(bounded.at(m, e).analysis.sessions,
                exact.at(m, e).analysis.sessions);
      EXPECT_EQ(bounded.at(m, e).analysis.problem_sessions,
                exact.at(m, e).analysis.problem_sessions);
    }
  }
  ASSERT_GT(exact_total, 0u);
  ASSERT_GT(bounded_total, 0u);
  const double recall =
      static_cast<double>(hits) / static_cast<double>(exact_total);
  const double precision =
      static_cast<double>(hits) / static_cast<double>(bounded_total);
  // Planted events are heavy by construction, so the sketch tier keeps the
  // bulk of them; the exact figures for this trace live in EXPERIMENTS.md.
  std::printf("[sketch-differential] critical-cluster recall=%.3f "
              "precision=%.3f (exact=%ju bounded=%ju hits=%ju)\n",
              recall, precision, static_cast<std::uintmax_t>(exact_total),
              static_cast<std::uintmax_t>(bounded_total),
              static_cast<std::uintmax_t>(hits));
  EXPECT_GE(recall, 0.75);
  EXPECT_GE(precision, 0.80);
}

}  // namespace
}  // namespace vq

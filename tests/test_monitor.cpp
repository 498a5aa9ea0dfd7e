#include "src/core/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/prevalence.h"
#include "src/gen/tracegen.h"
#include "tests/test_support.h"

namespace vq {
namespace {

using test::Attrs;

MonitorConfig small_monitor() {
  MonitorConfig config;
  config.cluster_params.min_sessions = 50;
  config.escalate_after = 1;
  return config;
}

/// Epoch with a bad CDN (optionally) plus quiet background.
std::vector<Session> monitored_epoch(std::uint32_t epoch, bool cdn_bad) {
  std::vector<Session> sessions;
  if (cdn_bad) {
    for (std::uint16_t asn = 1; asn <= 4; ++asn) {
      test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                         test::bad_buffering(), 15);
      test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                         test::good_quality(), 10);
    }
  } else {
    for (std::uint16_t asn = 1; asn <= 4; ++asn) {
      test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                         test::good_quality(), 25);
    }
  }
  for (std::uint16_t asn = 10; asn < 28; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::bad_buffering(), 2);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::good_quality(), 48);
  }
  return sessions;
}

std::vector<IncidentEvent> events_of(std::vector<IncidentEvent> all,
                                     IncidentUpdate kind, Metric metric) {
  std::vector<IncidentEvent> out;
  for (auto& e : all) {
    if (e.update == kind && e.incident.metric == metric) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

TEST(StreamingDetector, RaisesNewThenEscalatedThenCleared) {
  StreamingDetector detector{small_monitor()};

  auto e0 = detector.ingest(monitored_epoch(0, true), 0);
  const auto new0 =
      events_of(e0, IncidentUpdate::kNew, Metric::kBufRatio);
  ASSERT_EQ(new0.size(), 1u);
  EXPECT_TRUE(new0[0].incident.key.has(AttrDim::kCdn));
  EXPECT_EQ(new0[0].incident.streak, 1u);
  EXPECT_TRUE(
      events_of(e0, IncidentUpdate::kEscalated, Metric::kBufRatio).empty());

  auto e1 = detector.ingest(monitored_epoch(1, true), 1);
  const auto escalated =
      events_of(e1, IncidentUpdate::kEscalated, Metric::kBufRatio);
  ASSERT_EQ(escalated.size(), 1u);
  EXPECT_EQ(escalated[0].incident.streak, 2u);
  EXPECT_TRUE(escalated[0].incident.escalated);

  auto e2 = detector.ingest(monitored_epoch(2, false), 2);
  const auto cleared =
      events_of(e2, IncidentUpdate::kCleared, Metric::kBufRatio);
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_TRUE(detector.active(Metric::kBufRatio).empty());
  EXPECT_EQ(detector.total_opened(Metric::kBufRatio), 1u);
}

TEST(StreamingDetector, NoEscalationBelowDelay) {
  MonitorConfig config = small_monitor();
  config.escalate_after = 3;
  StreamingDetector detector{config};
  for (std::uint32_t e = 0; e < 3; ++e) {
    const auto events = detector.ingest(monitored_epoch(e, true), e);
    EXPECT_TRUE(
        events_of(events, IncidentUpdate::kEscalated, Metric::kBufRatio)
            .empty())
        << "escalated too early at epoch " << e;
  }
  const auto events = detector.ingest(monitored_epoch(3, true), 3);
  EXPECT_EQ(
      events_of(events, IncidentUpdate::kEscalated, Metric::kBufRatio).size(),
      1u);
}

TEST(StreamingDetector, ReopeningCountsAsNewIncident) {
  StreamingDetector detector{small_monitor()};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  (void)detector.ingest(monitored_epoch(1, false), 1);
  const auto events = detector.ingest(monitored_epoch(2, true), 2);
  EXPECT_EQ(events_of(events, IncidentUpdate::kNew, Metric::kBufRatio).size(),
            1u);
  EXPECT_EQ(detector.total_opened(Metric::kBufRatio), 2u);
}

TEST(StreamingDetector, GapResetsStreaks) {
  StreamingDetector detector{small_monitor()};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  // Epoch 5 after a gap: incident present but streak must restart at 1, so
  // no escalation fires even though the registry entry survived.
  const auto events = detector.ingest(monitored_epoch(5, true), 5);
  EXPECT_TRUE(
      events_of(events, IncidentUpdate::kEscalated, Metric::kBufRatio)
          .empty());
  const auto active = detector.active(Metric::kBufRatio);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].streak, 1u);
  EXPECT_EQ(active[0].first_epoch, 5u);
}

TEST(StreamingDetector, RejectsNonMonotonicEpochs) {
  StreamingDetector detector{small_monitor()};
  (void)detector.ingest(monitored_epoch(3, false), 3);
  EXPECT_THROW((void)detector.ingest(monitored_epoch(3, false), 3),
               std::invalid_argument);
  EXPECT_THROW((void)detector.ingest(monitored_epoch(1, false), 1),
               std::invalid_argument);
  // The throwing path must not have advanced detector state.
  EXPECT_EQ(detector.last_epoch(), 3u);
  EXPECT_EQ(detector.stale_epochs_dropped(), 0u);
}

TEST(StreamingDetector, SkipStaleDropsDuplicatesAndCounts) {
  MonitorConfig config = small_monitor();
  config.order_policy = EpochOrderPolicy::kSkipStale;
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(3, true), 3);

  // Duplicate and late epochs are dropped: no events, no state change.
  EXPECT_TRUE(detector.ingest(monitored_epoch(3, true), 3).empty());
  EXPECT_TRUE(detector.ingest(monitored_epoch(1, false), 1).empty());
  EXPECT_EQ(detector.stale_epochs_dropped(), 2u);
  EXPECT_EQ(detector.last_epoch(), 3u);
  EXPECT_EQ(detector.active(Metric::kBufRatio).size(), 1u);

  // The stream continues normally afterwards.
  const auto events = detector.ingest(monitored_epoch(4, true), 4);
  EXPECT_EQ(
      events_of(events, IncidentUpdate::kEscalated, Metric::kBufRatio).size(),
      1u);
}

TEST(StreamingDetector, DegradedEpochSuppressesClears) {
  StreamingDetector detector{small_monitor()};
  (void)detector.ingest(monitored_epoch(0, true), 0);

  // The incident fails to recur on a degraded epoch: no kCleared, the
  // incident stays open with its streak frozen and zero attributed mass.
  const auto e1 =
      detector.ingest(monitored_epoch(1, false), 1, {.degraded = true});
  EXPECT_TRUE(
      events_of(e1, IncidentUpdate::kCleared, Metric::kBufRatio).empty());
  EXPECT_GE(detector.suppressed_clears(), 1u);
  auto active = detector.active(Metric::kBufRatio);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].streak, 1u);
  EXPECT_EQ(active[0].attributed, 0.0);

  // Recurring on the next (non-contiguous because epoch 1 "cleared" nothing)
  // epoch keeps the same incident open rather than raising a second kNew.
  const auto e2 = detector.ingest(monitored_epoch(2, true), 2);
  EXPECT_TRUE(events_of(e2, IncidentUpdate::kNew, Metric::kBufRatio).empty());
  EXPECT_EQ(detector.total_opened(Metric::kBufRatio), 1u);

  // A clean quiet epoch finally clears it.
  const auto e3 = detector.ingest(monitored_epoch(3, false), 3);
  EXPECT_EQ(
      events_of(e3, IncidentUpdate::kCleared, Metric::kBufRatio).size(), 1u);
  EXPECT_TRUE(detector.active(Metric::kBufRatio).empty());
}

TEST(StreamingDetector, ActiveListsMatchRegistry) {
  StreamingDetector detector{small_monitor()};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  const auto active = detector.active(Metric::kBufRatio);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_GT(active[0].attributed, 0.0);
  EXPECT_GE(active[0].stats.sessions, 50u);
  // Unrelated metrics stay quiet.
  EXPECT_TRUE(detector.active(Metric::kJoinFailure).empty());
}

TEST(ProblemStreaks, MatchBatchPrevalenceAnalytics) {
  // The rolling streak registry must agree with the offline §4.1 analytics:
  // epochs_seen/prevalence with build_prevalence's timeline, max_streak
  // with max_persistence, first/last epoch with the timeline endpoints.
  WorldConfig world_config;
  world_config.num_sites = 10;
  world_config.num_cdns = 3;
  world_config.num_asns = 20;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = 12;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 12;
  trace_config.sessions_per_epoch = 8000;
  const SessionTable trace = generate_trace(world, events, trace_config);

  PipelineConfig pipeline_config;
  pipeline_config.cluster_params.min_sessions = 60;
  const PipelineResult result = run_pipeline(trace, pipeline_config);

  MonitorConfig config = small_monitor();
  config.cluster_params.min_sessions = 60;
  StreamingDetector detector{config};
  for (std::uint32_t e = 0; e < trace.num_epochs(); ++e) {
    (void)detector.ingest(trace.epoch(e), e);
  }
  EXPECT_EQ(detector.epochs_observed(), trace.num_epochs());

  for (const Metric m : kAllMetrics) {
    const PrevalenceReport report = build_prevalence(
        problem_cluster_keys(result, m), trace.num_epochs());
    const std::vector<ProblemStreak> streaks = detector.problem_streaks(m);
    ASSERT_EQ(streaks.size(), report.timelines.size());
    // Both sides sorted by key: timelines come from per-epoch key lists.
    std::vector<const ClusterTimeline*> timelines;
    timelines.reserve(report.timelines.size());
    for (const ClusterTimeline& t : report.timelines) {
      timelines.push_back(&t);
    }
    std::sort(timelines.begin(), timelines.end(),
              [](const ClusterTimeline* a, const ClusterTimeline* b) {
                return a->key.raw() < b->key.raw();
              });
    for (std::size_t i = 0; i < streaks.size(); ++i) {
      const ProblemStreak& streak = streaks[i];
      const ClusterTimeline& timeline = *timelines[i];
      EXPECT_EQ(streak.key.raw(), timeline.key.raw());
      EXPECT_EQ(streak.epochs_seen, timeline.epochs.size());
      EXPECT_EQ(streak.first_epoch, timeline.epochs.front());
      EXPECT_EQ(streak.last_epoch, timeline.epochs.back());
      EXPECT_EQ(streak.max_streak, timeline.max_persistence);
      EXPECT_DOUBLE_EQ(streak.prevalence, timeline.prevalence);
    }
  }
}

TEST(IncidentUpdateName, Labels) {
  EXPECT_EQ(incident_update_name(IncidentUpdate::kNew), "new");
  EXPECT_EQ(incident_update_name(IncidentUpdate::kEscalated), "escalated");
  EXPECT_EQ(incident_update_name(IncidentUpdate::kCleared), "cleared");
}

}  // namespace
}  // namespace vq

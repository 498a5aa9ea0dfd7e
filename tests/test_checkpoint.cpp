// Checkpoint/restore for StreamingDetector: differential resume (kill at any
// epoch boundary, reload, and the event stream must be byte-identical to the
// uninterrupted run), the version-2 streak registry round trip, corruption
// rejection, exception safety of a failed load, and the atomic
// temp-then-rename file save.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/monitor.h"
#include "src/util/fsync.h"
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

std::vector<Session> monitored_epoch(std::uint32_t epoch, bool cdn_bad) {
  std::vector<Session> sessions;
  for (std::uint16_t asn = 1; asn <= 4; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                       cdn_bad ? test::bad_buffering() : test::good_quality(),
                       15);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 1, .asn = asn},
                       test::good_quality(), 10);
  }
  for (std::uint16_t asn = 10; asn < 28; ++asn) {
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::bad_buffering(), 2);
    test::add_sessions(sessions, epoch, Attrs{.cdn = 2, .asn = asn},
                       test::good_quality(), 48);
  }
  return sessions;
}

/// Renders every field of an event so "identical event sequence" is a string
/// equality, with hexfloat keeping the attributed mass bit-exact.
std::string fmt(const std::vector<IncidentEvent>& events) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const IncidentEvent& e : events) {
    out << incident_update_name(e.update) << " epoch=" << e.epoch
        << " metric=" << static_cast<int>(e.incident.metric)
        << " key=" << e.incident.key.raw()
        << " first=" << e.incident.first_epoch
        << " streak=" << e.incident.streak
        << " escalated=" << e.incident.escalated
        << " attributed=" << e.incident.attributed
        << " sessions=" << e.incident.stats.sessions;
    for (int k = 0; k < kNumMetrics; ++k) {
      out << " p" << k << "=" << e.incident.stats.problems[k];
    }
    out << "\n";
  }
  return out.str();
}

// New incidents, escalations, clears, a gap-free re-open, and a quiet tail.
constexpr bool kScript[] = {true, true, false, true,
                            true, false, false, true};
constexpr std::uint32_t kEpochs = 8;

TEST(Checkpoint, ResumeReproducesIdenticalEventSequence) {
  const MonitorConfig config = small_monitor();

  StreamingDetector uninterrupted{config};
  std::string baseline;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    baseline += fmt(uninterrupted.ingest(monitored_epoch(e, kScript[e]), e));
  }

  for (std::uint32_t cut = 1; cut < kEpochs; ++cut) {
    StreamingDetector first{config};
    std::string replay;
    for (std::uint32_t e = 0; e < cut; ++e) {
      replay += fmt(first.ingest(monitored_epoch(e, kScript[e]), e));
    }
    std::stringstream checkpoint{std::ios::in | std::ios::out |
                                 std::ios::binary};
    first.save_checkpoint(checkpoint);

    StreamingDetector resumed{config};
    resumed.load_checkpoint(checkpoint);
    EXPECT_TRUE(resumed.has_ingested());
    EXPECT_EQ(resumed.last_epoch(), cut - 1);
    for (std::uint32_t e = cut; e < kEpochs; ++e) {
      replay += fmt(resumed.ingest(monitored_epoch(e, kScript[e]), e));
    }
    EXPECT_EQ(replay, baseline) << "killed at epoch boundary " << cut;
    EXPECT_EQ(resumed.total_opened(Metric::kBufRatio),
              uninterrupted.total_opened(Metric::kBufRatio));
  }
}

TEST(Checkpoint, RoundTripsCountersAndIncidentFields) {
  MonitorConfig config = small_monitor();
  config.order_policy = EpochOrderPolicy::kSkipStale;
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  (void)detector.ingest(monitored_epoch(0, true), 0);  // stale, dropped
  // A degraded quiet epoch: the open incident survives, clear suppressed.
  (void)detector.ingest(monitored_epoch(1, false), 1, {.degraded = true});

  std::stringstream checkpoint{std::ios::in | std::ios::out |
                               std::ios::binary};
  detector.save_checkpoint(checkpoint);
  StreamingDetector restored{config};
  restored.load_checkpoint(checkpoint);

  EXPECT_EQ(restored.stale_epochs_dropped(), 1u);
  EXPECT_EQ(restored.suppressed_clears(), detector.suppressed_clears());
  EXPECT_EQ(restored.last_epoch(), 1u);
  const auto before = detector.active(Metric::kBufRatio);
  const auto after = restored.active(Metric::kBufRatio);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].key, before[i].key);
    EXPECT_EQ(after[i].first_epoch, before[i].first_epoch);
    EXPECT_EQ(after[i].streak, before[i].streak);
    EXPECT_EQ(after[i].escalated, before[i].escalated);
    EXPECT_EQ(after[i].attributed, before[i].attributed);
    EXPECT_EQ(after[i].stats.sessions, before[i].stats.sessions);
  }
}

void expect_streaks_equal(const StreamingDetector& a,
                          const StreamingDetector& b) {
  EXPECT_EQ(a.epochs_observed(), b.epochs_observed());
  for (const Metric m : kAllMetrics) {
    const auto lhs = a.problem_streaks(m);
    const auto rhs = b.problem_streaks(m);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].key.raw(), rhs[i].key.raw());
      EXPECT_EQ(lhs[i].first_epoch, rhs[i].first_epoch);
      EXPECT_EQ(lhs[i].last_epoch, rhs[i].last_epoch);
      EXPECT_EQ(lhs[i].epochs_seen, rhs[i].epochs_seen);
      EXPECT_EQ(lhs[i].streak, rhs[i].streak);
      EXPECT_EQ(lhs[i].max_streak, rhs[i].max_streak);
      EXPECT_EQ(lhs[i].prevalence, rhs[i].prevalence);
    }
  }
}

TEST(Checkpoint, V2RoundTripsStreakRegistry) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    (void)detector.ingest(monitored_epoch(e, kScript[e]), e);
  }
  std::stringstream checkpoint{std::ios::in | std::ios::out |
                               std::ios::binary};
  detector.save_checkpoint(checkpoint);
  StreamingDetector restored{config};
  restored.load_checkpoint(checkpoint);

  EXPECT_EQ(restored.epochs_observed(), kEpochs);
  expect_streaks_equal(restored, detector);
  // The registry is non-trivial on this script (flagged epochs with gaps).
  bool any = false;
  for (const Metric m : kAllMetrics) {
    any = any || !detector.problem_streaks(m).empty();
  }
  EXPECT_TRUE(any);
}

std::string checkpoint_bytes(const StreamingDetector& detector) {
  std::stringstream out{std::ios::in | std::ios::out | std::ios::binary};
  detector.save_checkpoint(out);
  return out.str();
}

void expect_load_throws(const std::string& bytes, const MonitorConfig& config,
                        const char* what_substr) {
  std::istringstream in{bytes, std::ios::binary};
  StreamingDetector detector{config};
  try {
    detector.load_checkpoint(in);
    FAIL() << "expected throw for " << what_substr;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(what_substr), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(Checkpoint, RejectsCorruptContainers) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  const std::string good = checkpoint_bytes(detector);

  std::string bad_magic = good;
  bad_magic[0] ^= 0x01;
  expect_load_throws(bad_magic, config, "bad magic");

  std::string bad_version = good;
  bad_version[4] = 99;
  expect_load_throws(bad_version, config, "unsupported version");

  // Any payload bit flip is caught by the trailing checksum.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x10;
  expect_load_throws(flipped, config, "checksum mismatch");

  std::string extended = good;
  extended.push_back('\0');
  expect_load_throws(extended, config, "checksum mismatch");

  MonitorConfig other = config;
  other.escalate_after = 7;
  expect_load_throws(good, other, "fingerprint mismatch");

  // Every truncation length is rejected (header, payload, or checksum cut).
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::istringstream in{good.substr(0, len), std::ios::binary};
    StreamingDetector fresh{config};
    EXPECT_THROW(fresh.load_checkpoint(in), std::runtime_error)
        << "truncated to " << len;
  }
}

TEST(Checkpoint, RefusesVersionTwoCheckpoints) {
  // Version 2 fingerprints did not cover max_arity, so a version-2
  // checkpoint cannot show it was written at the same arity.
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  std::string v2 = checkpoint_bytes(detector);
  ASSERT_EQ(v2[4], 3);
  v2[4] = 2;
  expect_load_throws(v2, config, "unsupported version");
}

TEST(Checkpoint, FailedLoadLeavesDetectorUnchanged) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);
  std::string corrupt = checkpoint_bytes(detector);
  corrupt[corrupt.size() / 2] ^= 0x01;

  StreamingDetector control{config};
  (void)control.ingest(monitored_epoch(0, true), 0);

  std::istringstream in{corrupt, std::ios::binary};
  EXPECT_THROW(detector.load_checkpoint(in), std::runtime_error);

  // The failed load must not have touched registry or counters: the next
  // epoch behaves exactly like the control's.
  EXPECT_EQ(detector.last_epoch(), control.last_epoch());
  EXPECT_EQ(fmt(detector.ingest(monitored_epoch(1, true), 1)),
            fmt(control.ingest(monitored_epoch(1, true), 1)));
}

TEST(Checkpoint, ConfigFingerprintTracksResultAffectingFieldsOnly) {
  const MonitorConfig base = small_monitor();
  EXPECT_EQ(StreamingDetector::config_fingerprint(base),
            StreamingDetector::config_fingerprint(base));

  MonitorConfig delay = base;
  delay.escalate_after = 3;
  MonitorConfig sessions = base;
  sessions.cluster_params.min_sessions = 51;
  MonitorConfig policy = base;
  policy.order_policy = EpochOrderPolicy::kSkipStale;
  // max_arity bounds which clusters exist, so it changes results.
  MonitorConfig arity = base;
  arity.engine.max_arity = 3;
  for (const MonitorConfig& changed : {delay, sessions, policy, arity}) {
    EXPECT_NE(StreamingDetector::config_fingerprint(base),
              StreamingDetector::config_fingerprint(changed));
  }

  // Nothing reads the worker and shard counts, so they may change across
  // a save/restore.
  MonitorConfig workers = base;
  workers.workers = base.workers + 3;
  MonitorConfig shards = base;
  shards.shards = base.shards + 3;
  for (const MonitorConfig& same : {workers, shards}) {
    EXPECT_EQ(StreamingDetector::config_fingerprint(base),
              StreamingDetector::config_fingerprint(same));
  }
}

TEST(Checkpoint, AtomicFileSaveAndLoad) {
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);

  const std::filesystem::path dir{::testing::TempDir()};
  const std::filesystem::path path = dir / "vidqual_checkpoint_test.vqck";
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);

  detector.save_checkpoint(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(tmp)) << "temp file must be renamed";

  // Overwriting an existing checkpoint goes through the same rename.
  (void)detector.ingest(monitored_epoch(1, true), 1);
  detector.save_checkpoint(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  StreamingDetector restored{config};
  restored.load_checkpoint(path);
  EXPECT_EQ(restored.last_epoch(), 1u);
  EXPECT_EQ(restored.total_opened(Metric::kBufRatio),
            detector.total_opened(Metric::kBufRatio));

  std::filesystem::remove(path);
  EXPECT_THROW(restored.load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, CrashBetweenWriteAndRenameKeepsThePreviousCheckpoint) {
  // Simulates a process killed after writing the temp file but before the
  // rename: the stray .tmp must never shadow the committed checkpoint, and
  // the next save must replace it cleanly.
  const MonitorConfig config = small_monitor();
  StreamingDetector detector{config};
  (void)detector.ingest(monitored_epoch(0, true), 0);

  const std::filesystem::path dir{::testing::TempDir()};
  const std::filesystem::path path = dir / "vidqual_checkpoint_crash.vqck";
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::filesystem::remove(path);
  std::filesystem::remove(tmp);

  detector.save_checkpoint(path);  // the committed v1

  // The "crash": a half-written temp file left beside the checkpoint.
  {
    std::ofstream garbage{tmp, std::ios::binary | std::ios::trunc};
    garbage << "VQCKpartial-write-then-kill-9";
  }
  ASSERT_TRUE(std::filesystem::exists(tmp));

  // Loading reads only the committed path — the garbage is invisible.
  StreamingDetector restored{config};
  restored.load_checkpoint(path);
  EXPECT_EQ(restored.last_epoch(), 0u);
  EXPECT_EQ(restored.total_opened(Metric::kBufRatio),
            detector.total_opened(Metric::kBufRatio));

  // The next save truncates the stray temp file and commits over it.
  (void)detector.ingest(monitored_epoch(1, true), 1);
  detector.save_checkpoint(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  StreamingDetector after{config};
  after.load_checkpoint(path);
  EXPECT_EQ(after.last_epoch(), 1u);

  std::filesystem::remove(path);
}

TEST(Checkpoint, FsyncPathFailureIsAttributedToItsCaller) {
  const std::filesystem::path missing =
      std::filesystem::path{::testing::TempDir()} / "vq_no_such_file.vqck";
  std::filesystem::remove(missing);
  try {
    detail::fsync_path(missing, /*directory=*/false, "save_checkpoint");
    FAIL() << "fsync_path on a missing file must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("save_checkpoint"), std::string::npos) << what;
    EXPECT_NE(what.find(missing.string()), std::string::npos) << what;
  }
  // The happy path on a real directory is a no-op worth pinning too.
  EXPECT_NO_THROW(detail::fsync_path(::testing::TempDir(),
                                     /*directory=*/true, "test"));
}

}  // namespace
}  // namespace vq

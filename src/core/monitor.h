// StreamingDetector: the online counterpart of the batch pipeline.
//
// The paper's reactive strategy (§5.3) presumes a system that watches each
// epoch as it closes, notices when a critical cluster emerges, and
// escalates once it has persisted past a detection delay.  This class is
// that loop as a library: feed it one epoch of sessions at a time and it
// returns incident lifecycle events (new / escalated / cleared) while
// maintaining the active-incident registry.
//
// Fault tolerance (DESIGN.md §4.3): the detector survives the realities of
// production telemetry.
//  * Checkpoint/restore — save_checkpoint/load_checkpoint serialise the
//    full detector state (incident registry, counters, last epoch) in a
//    versioned, checksummed container with a config fingerprint, so a
//    monitor killed mid-stream resumes producing the *identical* incident
//    event sequence.  The path overload writes atomically
//    (temp-then-rename), so a crash mid-save never corrupts the previous
//    checkpoint.
//  * Epoch ordering policy — out-of-order or duplicate epochs either throw
//    (kThrow, default) or are counted and dropped (kSkipStale).
//  * Degraded epochs — when the ingest report flags an epoch as
//    data-starved (robust_io.h), pass EpochDataQuality{.degraded = true}:
//    incidents that fail to recur on such an epoch are retained instead of
//    cleared (absence of evidence on a gappy feed is not evidence of
//    absence), which stops incident flapping across collector hiccups.
//
// Thread safety (DESIGN.md §4.7): the detector state (incident registry,
// counters, epoch cursor) is guarded by an internal mutex with Clang
// thread-safety annotations, so one thread may ingest epochs while another
// saves periodic checkpoints or inspects active incidents.  Epoch ordering
// is still the caller's job: concurrent ingest() calls serialise in an
// unspecified order, and whichever runs second sees the other's epoch as
// already ingested.

#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/epoch_analyzer.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vq {

/// What to do when ingest() sees an epoch <= the last ingested epoch
/// (duplicate delivery, late replay, a collector restarting behind).
enum class EpochOrderPolicy : std::uint8_t {
  kThrow = 0,      // std::invalid_argument (default)
  kSkipStale = 1,  // drop the epoch, count it in stale_epochs_dropped()
};

struct MonitorConfig {
  ProblemThresholds thresholds;
  ProblemClusterParams cluster_params{.ratio_multiplier = 1.5,
                                      .min_sessions = 1000};
  ClusterEngineConfig engine;
  /// Consecutive epochs a critical cluster must persist before it
  /// escalates (the paper's reactive strategy uses 1).
  std::uint32_t escalate_after = 1;
  EpochOrderPolicy order_policy = EpochOrderPolicy::kThrow;
  /// Nothing in src/ reads these two: the detector analyses each epoch
  /// serially on the ingesting thread.  They remain only because the
  /// end-to-end benchmark (e2ebench/inputs.cpp, e2ebench/serve_workload.cpp)
  /// sets them.  Excluded from the checkpoint fingerprint, so they may
  /// change across a save/restore.
  std::uint32_t workers = 1;
  std::uint32_t shards = 1;
};

/// One tracked incident: a critical cluster with a live streak.
struct Incident {
  ClusterKey key;
  Metric metric = Metric::kBufRatio;
  std::uint32_t first_epoch = 0;
  std::uint32_t streak = 0;       // consecutive epochs active, inclusive
  bool escalated = false;
  double attributed = 0.0;        // problem-session mass, latest epoch
  ClusterStats stats;             // cluster counters, latest epoch
};

enum class IncidentUpdate : std::uint8_t {
  kNew = 0,        // first epoch a critical cluster appears
  kEscalated = 1,  // streak crossed escalate_after
  kCleared = 2,    // no longer a critical cluster this epoch
};

[[nodiscard]] std::string_view incident_update_name(
    IncidentUpdate u) noexcept;

struct IncidentEvent {
  IncidentUpdate update = IncidentUpdate::kNew;
  std::uint32_t epoch = 0;
  Incident incident;
};

/// Ingest-time data-quality annotation for one epoch (typically derived
/// from IngestReport::degraded_epochs, see gen/robust_io.h).
struct EpochDataQuality {
  bool degraded = false;
};

/// Rolling prevalence/persistence state for one problem cluster (paper
/// §4.1/§4.2), maintained online instead of rebuilt from the full per-epoch
/// key history: on each ingested epoch the streak either extends (the key
/// recurred on the next consecutive epoch) or restarts at 1.  Keys are never
/// forgotten — prevalence is a whole-stream fraction.  Equivalence with the
/// batch build_prevalence (src/core/prevalence.h) over a contiguous epoch
/// stream is enforced by tests/test_monitor.cpp.
struct ProblemStreak {
  ClusterKey key;
  std::uint32_t first_epoch = 0;  // first epoch the key was a problem cluster
  std::uint32_t last_epoch = 0;   // most recent such epoch
  std::uint32_t epochs_seen = 0;  // total epochs the key was a problem cluster
  std::uint32_t streak = 0;       // current consecutive-epoch run
  std::uint32_t max_streak = 0;   // longest run ever (max persistence)
  /// epochs_seen / epochs observed by the detector; filled by
  /// problem_streaks(), not serialised (derived).
  double prevalence = 0.0;
};

class StreamingDetector {
 public:
  explicit StreamingDetector(const MonitorConfig& config)
      : config_(config), analyzer_(config.engine, config.cluster_params) {}

  /// Processes one closed epoch. Epochs must be fed in increasing order
  /// (gaps allowed: a gap resets streaks); a non-increasing epoch follows
  /// config().order_policy. On a degraded epoch, kCleared transitions are
  /// suppressed: open incidents that fail to recur stay open with their
  /// streak frozen. Returns the lifecycle events raised by this epoch, in
  /// (metric, key) order.
  std::vector<IncidentEvent> ingest(std::span<const Session> sessions,
                                    std::uint32_t epoch,
                                    EpochDataQuality quality = {})
      VQ_EXCLUDES(mutex_);

  /// Currently open incidents for a metric, sorted by key.
  [[nodiscard]] std::vector<Incident> active(Metric metric) const
      VQ_EXCLUDES(mutex_);

  /// Total incidents ever opened for a metric.
  [[nodiscard]] std::uint64_t total_opened(Metric metric) const
      VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    return opened_[static_cast<std::uint8_t>(metric)];
  }

  /// Stale (non-increasing) epochs dropped under kSkipStale.
  [[nodiscard]] std::uint64_t stale_epochs_dropped() const
      VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    return stale_epochs_dropped_;
  }

  /// kCleared transitions suppressed on degraded epochs.
  [[nodiscard]] std::uint64_t suppressed_clears() const VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    return suppressed_clears_;
  }

  [[nodiscard]] bool has_ingested() const VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    return has_ingested_;
  }

  /// Epochs the detector has accepted (stale-dropped epochs excluded,
  /// degraded epochs included) — the denominator of streak prevalence.
  [[nodiscard]] std::uint64_t epochs_observed() const VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    return epochs_observed_;
  }

  /// Rolling prevalence/persistence for every problem cluster ever seen on
  /// this metric, sorted by key, with prevalence filled against
  /// epochs_observed().
  [[nodiscard]] std::vector<ProblemStreak> problem_streaks(Metric metric) const
      VQ_EXCLUDES(mutex_);

  /// Last ingested epoch; meaningful only when has_ingested().
  [[nodiscard]] std::uint32_t last_epoch() const VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    return last_epoch_;
  }

  [[nodiscard]] const MonitorConfig& config() const noexcept {
    return config_;
  }

  // --- checkpoint/restore ----------------------------------------------
  // Container: magic "VQCK", u32 version, u64 config fingerprint, the
  // detector state (counters, last epoch, incident registry sorted by key,
  // and — since version 2 — the epochs-observed count and the per-metric
  // problem-streak registry sorted by key), and a trailing FNV-1a checksum
  // over the payload.  load_checkpoint throws std::runtime_error on bad
  // magic, unsupported version, checksum mismatch, truncation, or a
  // fingerprint from a different configuration.  No lattice state is
  // serialised: every epoch is analysed from its own sessions alone.

  void save_checkpoint(std::ostream& out) const VQ_EXCLUDES(mutex_);
  /// Atomic file save: writes `path`.tmp, then renames over `path`, so an
  /// interrupted save leaves the previous checkpoint intact.
  void save_checkpoint(const std::filesystem::path& path) const
      VQ_EXCLUDES(mutex_);

  void load_checkpoint(std::istream& in) VQ_EXCLUDES(mutex_);
  void load_checkpoint(const std::filesystem::path& path)
      VQ_EXCLUDES(mutex_);

  /// Fingerprint of the result-affecting config fields (thresholds, cluster
  /// params, the engine's max_arity, escalate_after, order policy).  The
  /// worker and shard counts are excluded: nothing reads them, so they may
  /// differ across a save/restore without changing the event stream.
  /// max_arity bounds which clusters exist, so it is included.
  [[nodiscard]] static std::uint64_t config_fingerprint(
      const MonitorConfig& config) noexcept;

 private:
  const MonitorConfig config_;  // immutable after construction: unguarded
  /// The epoch's leaf fold and the analyzer's table and buffers, kept
  /// across epochs (epoch_analyzer.h).  Used exclusively from inside
  /// ingest() (under mutex_), so they need no guarding of their own.
  LeafFold fold_;
  EpochAnalyzer analyzer_;

  mutable Mutex mutex_;
  std::array<std::unordered_map<std::uint64_t, Incident>, kNumMetrics>
      registry_ VQ_GUARDED_BY(mutex_);
  std::array<std::unordered_map<std::uint64_t, ProblemStreak>, kNumMetrics>
      streaks_ VQ_GUARDED_BY(mutex_);
  std::array<std::uint64_t, kNumMetrics> opened_ VQ_GUARDED_BY(mutex_){};
  std::uint64_t stale_epochs_dropped_ VQ_GUARDED_BY(mutex_) = 0;
  std::uint64_t suppressed_clears_ VQ_GUARDED_BY(mutex_) = 0;
  std::uint64_t epochs_observed_ VQ_GUARDED_BY(mutex_) = 0;
  std::uint32_t last_epoch_ VQ_GUARDED_BY(mutex_) = 0;
  bool has_ingested_ VQ_GUARDED_BY(mutex_) = false;
};

}  // namespace vq

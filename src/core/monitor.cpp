#include "src/core/monitor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/fsync.h"

namespace vq {

namespace {

// Incident life-cycle counters are kStable: they mirror the detector's own
// deterministic per-epoch state machine, independent of scheduling.
struct MonitorMetrics {
  obs::Counter& epochs;
  obs::Counter& incidents_opened;
  obs::Counter& incidents_escalated;
  obs::Counter& incidents_cleared;
  obs::Counter& clears_suppressed;
  obs::Counter& stale_epochs_dropped;
  obs::Counter& checkpoint_saves;
  obs::Counter& checkpoint_loads;

  static MonitorMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static MonitorMetrics m{reg.counter("monitor.epochs"),
                            reg.counter("monitor.incidents_opened"),
                            reg.counter("monitor.incidents_escalated"),
                            reg.counter("monitor.incidents_cleared"),
                            reg.counter("monitor.clears_suppressed"),
                            reg.counter("monitor.stale_epochs_dropped"),
                            reg.counter("monitor.checkpoint_saves"),
                            reg.counter("monitor.checkpoint_loads")};
    return m;
  }
};

}  // namespace

std::string_view incident_update_name(IncidentUpdate u) noexcept {
  switch (u) {
    case IncidentUpdate::kNew:
      return "new";
    case IncidentUpdate::kEscalated:
      return "escalated";
    case IncidentUpdate::kCleared:
      return "cleared";
  }
  return "?";
}

std::vector<IncidentEvent> StreamingDetector::ingest(
    std::span<const Session> sessions, std::uint32_t epoch,
    EpochDataQuality quality) {
  VQ_SPAN_EPOCH("monitor.ingest", epoch);
  MonitorMetrics& metrics = MonitorMetrics::get();
  // One lock over the whole epoch: the registry must not be observed (or
  // checkpointed) while an epoch's transitions are half-applied, and the
  // epoch-ordering check below must be atomic with the state update.
  const MutexLock lock{mutex_};
  if (has_ingested_ && epoch <= last_epoch_) {
    if (config_.order_policy == EpochOrderPolicy::kSkipStale) {
      stale_epochs_dropped_ += 1;
      metrics.stale_epochs_dropped.add(1);
      return {};
    }
    throw std::invalid_argument{
        "StreamingDetector::ingest: epoch " + std::to_string(epoch) +
        " is not after the last ingested epoch " +
        std::to_string(last_epoch_) +
        " (epochs must be strictly increasing; use "
        "EpochOrderPolicy::kSkipStale to drop duplicates instead)"};
  }
  const bool contiguous = !has_ingested_ || epoch == last_epoch_ + 1;
  last_epoch_ = epoch;
  has_ingested_ = true;
  epochs_observed_ += 1;

  // One fold per ingested epoch, shared by the expansion (or the delta
  // engine) and all metrics.
  fold_sessions_into(sessions, config_.thresholds, epoch, fold_);

  // Incremental mode applies the fold as a per-leaf delta against the
  // retained lattice; otherwise re-expand from scratch.  Both paths yield
  // bit-identical analyses (tests/test_incremental.cpp), so the incident
  // stream cannot depend on the mode.
  const std::array<CriticalAnalysis, kNumMetrics> analyses =
      lattice_ ? lattice_->advance(fold_, pool_ ? &*pool_ : nullptr,
                                   std::max<std::uint32_t>(1, config_.shards))
               : analyzer_.analyze(fold_);

  std::vector<IncidentEvent> events;
  for (const Metric metric : kAllMetrics) {
    const auto mi = static_cast<std::uint8_t>(metric);
    auto& incidents = registry_[mi];
    const CriticalAnalysis& analysis = analyses[mi];

    // Roll the prevalence/persistence streaks forward from the epoch's
    // problem-cluster keys (published by the critical extraction, so no
    // extra per-cell sweep happens here).
    for (const std::uint64_t raw : analysis.problem_cluster_keys) {
      auto [it, inserted] = streaks_[mi].try_emplace(raw);
      ProblemStreak& streak = it->second;
      if (inserted) {
        streak.key = ClusterKey::from_raw(raw);
        streak.first_epoch = epoch;
      }
      streak.streak =
          (!inserted && streak.last_epoch + 1 == epoch) ? streak.streak + 1
                                                        : 1;
      streak.max_streak = std::max(streak.max_streak, streak.streak);
      streak.last_epoch = epoch;
      streak.epochs_seen += 1;
    }

    // Mark every open incident as unseen; re-arm those still present.
    for (auto& [raw, incident] : incidents) incident.attributed = -1.0;

    for (const CriticalRecord& c : analysis.criticals) {
      auto [it, inserted] = incidents.try_emplace(c.key.raw());
      Incident& incident = it->second;
      if (inserted || !contiguous) {
        incident.key = c.key;
        incident.metric = metric;
        incident.first_epoch = epoch;
        incident.streak = 0;
        incident.escalated = false;
        if (inserted) ++opened_[mi];
      }
      incident.streak += 1;
      incident.attributed = c.attributed;
      incident.stats = c.stats;
      if (inserted) {
        metrics.incidents_opened.add(1);
        events.push_back({IncidentUpdate::kNew, epoch, incident});
      }
      if (!incident.escalated && incident.streak > config_.escalate_after) {
        incident.escalated = true;
        metrics.incidents_escalated.add(1);
        events.push_back({IncidentUpdate::kEscalated, epoch, incident});
      }
    }

    // Close incidents that did not recur (or everything after a gap that
    // also failed to recur — their streak is stale either way).  On a
    // degraded epoch, absence is assumed to be missing data, not recovery:
    // the incident stays open with its streak frozen and no kCleared fires.
    for (auto it = incidents.begin(); it != incidents.end();) {
      if (it->second.attributed < 0.0) {
        it->second.attributed = 0.0;
        if (quality.degraded) {
          suppressed_clears_ += 1;
          metrics.clears_suppressed.add(1);
          ++it;
          continue;
        }
        metrics.incidents_cleared.add(1);
        events.push_back({IncidentUpdate::kCleared, epoch, it->second});
        it = incidents.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::sort(events.begin(), events.end(),
            [](const IncidentEvent& a, const IncidentEvent& b) {
              if (a.incident.metric != b.incident.metric) {
                return a.incident.metric < b.incident.metric;
              }
              if (a.incident.key.raw() != b.incident.key.raw()) {
                return a.incident.key.raw() < b.incident.key.raw();
              }
              return a.update < b.update;
            });
  metrics.epochs.add(1);
  return events;
}

std::vector<Incident> StreamingDetector::active(Metric metric) const {
  const MutexLock lock{mutex_};
  std::vector<Incident> out;
  const auto& incidents = registry_[static_cast<std::uint8_t>(metric)];
  out.reserve(incidents.size());
  for (const auto& [raw, incident] : incidents) out.push_back(incident);
  std::sort(out.begin(), out.end(), [](const Incident& a, const Incident& b) {
    return a.key.raw() < b.key.raw();
  });
  return out;
}

std::vector<ProblemStreak> StreamingDetector::problem_streaks(
    Metric metric) const {
  const MutexLock lock{mutex_};
  std::vector<ProblemStreak> out;
  const auto& streaks = streaks_[static_cast<std::uint8_t>(metric)];
  out.reserve(streaks.size());
  for (const auto& [raw, streak] : streaks) out.push_back(streak);
  std::sort(out.begin(), out.end(),
            [](const ProblemStreak& a, const ProblemStreak& b) {
              return a.key.raw() < b.key.raw();
            });
  for (ProblemStreak& s : out) {
    s.prevalence = epochs_observed_ == 0
                       ? 0.0
                       : static_cast<double>(s.epochs_seen) /
                             static_cast<double>(epochs_observed_);
  }
  return out;
}

// --- checkpoint/restore ------------------------------------------------------

namespace {

constexpr char kCheckpointMagic[4] = {'V', 'Q', 'C', 'K'};
/// Version 2 appended the epochs-observed count and the per-metric
/// problem-streak registry to the payload (one-sided bump: version-1
/// checkpoints are rejected, per the docs/wire_contracts.json recipe).
/// Version 3 mixes the engine's max_arity into the config fingerprint; the
/// payload is unchanged, but a version-2 fingerprint never covered the
/// arity, so those checkpoints are rejected too.
constexpr std::uint32_t kCheckpointVersion = 3;

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

template <typename T>
void put(std::string& buf, T value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  buf.append(bytes, sizeof value);
}

/// Bounds-checked little cursor over the checkpoint payload.
struct Cursor {
  const char* p;
  const char* end;

  template <typename T>
  T get() {
    if (static_cast<std::size_t>(end - p) < sizeof(T)) {
      throw std::runtime_error{
          "load_checkpoint: truncated checkpoint payload"};
    }
    T value{};
    std::memcpy(&value, p, sizeof value);
    p += sizeof value;
    return value;
  }

  [[nodiscard]] bool done() const noexcept { return p == end; }
};

template <typename T>
T read_header_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) {
    throw std::runtime_error{"load_checkpoint: truncated checkpoint header"};
  }
  return value;
}

}  // namespace

std::uint64_t StreamingDetector::config_fingerprint(
    const MonitorConfig& config) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  fnv_mix(h, std::bit_cast<std::uint64_t>(
                 config.thresholds.max_buffering_ratio));
  fnv_mix(h, std::bit_cast<std::uint64_t>(config.thresholds.min_bitrate_kbps));
  fnv_mix(h, std::bit_cast<std::uint64_t>(config.thresholds.max_join_time_ms));
  fnv_mix(h, std::bit_cast<std::uint64_t>(
                 config.cluster_params.ratio_multiplier));
  fnv_mix(h, config.cluster_params.min_sessions);
  fnv_mix(h, static_cast<std::uint64_t>(config.engine.max_arity));
  fnv_mix(h, config.escalate_after);
  fnv_mix(h, static_cast<std::uint64_t>(config.order_policy));
  return h;
}

void StreamingDetector::save_checkpoint(std::ostream& out) const {
  VQ_SPAN("monitor.save_checkpoint");
  MonitorMetrics::get().checkpoint_saves.add(1);
  const MutexLock lock{mutex_};
  std::string payload;
  put(payload, static_cast<std::uint8_t>(has_ingested_ ? 1 : 0));
  put(payload, last_epoch_);
  for (int m = 0; m < kNumMetrics; ++m) put(payload, opened_[m]);
  put(payload, stale_epochs_dropped_);
  put(payload, suppressed_clears_);
  for (int m = 0; m < kNumMetrics; ++m) {
    const auto& incidents = registry_[m];
    // Sorted by key so identical state always serialises identically,
    // independent of hash-map iteration order.
    std::vector<const Incident*> sorted;
    sorted.reserve(incidents.size());
    for (const auto& [raw, incident] : incidents) sorted.push_back(&incident);
    std::sort(sorted.begin(), sorted.end(),
              [](const Incident* a, const Incident* b) {
                return a->key.raw() < b->key.raw();
              });
    put(payload, static_cast<std::uint32_t>(sorted.size()));
    for (const Incident* incident : sorted) {
      put(payload, incident->key.raw());
      put(payload, static_cast<std::uint8_t>(incident->metric));
      put(payload, incident->first_epoch);
      put(payload, incident->streak);
      put(payload, static_cast<std::uint8_t>(incident->escalated ? 1 : 0));
      put(payload, incident->attributed);
      put(payload, incident->stats.sessions);
      for (int k = 0; k < kNumMetrics; ++k) {
        put(payload, incident->stats.problems[k]);
      }
    }
  }
  // Version-2 tail: the rolling prevalence/persistence state.
  put(payload, epochs_observed_);
  for (int m = 0; m < kNumMetrics; ++m) {
    const auto& streaks = streaks_[m];
    std::vector<const ProblemStreak*> sorted;
    sorted.reserve(streaks.size());
    for (const auto& [raw, streak] : streaks) sorted.push_back(&streak);
    std::sort(sorted.begin(), sorted.end(),
              [](const ProblemStreak* a, const ProblemStreak* b) {
                return a->key.raw() < b->key.raw();
              });
    put(payload, static_cast<std::uint32_t>(sorted.size()));
    for (const ProblemStreak* streak : sorted) {
      put(payload, streak->key.raw());
      put(payload, streak->first_epoch);
      put(payload, streak->last_epoch);
      put(payload, streak->epochs_seen);
      put(payload, streak->streak);
      put(payload, streak->max_streak);
    }
  }

  out.write(kCheckpointMagic, sizeof kCheckpointMagic);
  const std::uint32_t version = kCheckpointVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint64_t fingerprint = config_fingerprint(config_);
  out.write(reinterpret_cast<const char*>(&fingerprint), sizeof fingerprint);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint64_t checksum = fnv1a(payload);
  out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  if (!out) throw std::runtime_error{"save_checkpoint: write failed"};
}

void StreamingDetector::save_checkpoint(
    const std::filesystem::path& path) const {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) {
      throw std::runtime_error{"save_checkpoint: cannot open " +
                               tmp.string()};
    }
    save_checkpoint(out);
    out.flush();
    if (!out) {
      throw std::runtime_error{"save_checkpoint: write failed for " +
                               tmp.string()};
    }
  }
  // Durability before atomicity: the rename commits whatever bytes the
  // filesystem has — without the fsync a power cut can promote a
  // zero-length temp file into the "committed" checkpoint.  The directory
  // fsync afterwards persists the rename itself.
  detail::fsync_path(tmp, /*directory=*/false, "save_checkpoint");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error{"save_checkpoint: rename to " + path.string() +
                             " failed"};
  }
  const std::filesystem::path dir = path.parent_path();
  detail::fsync_path(dir.empty() ? "." : dir, /*directory=*/true,
                     "save_checkpoint");
}

void StreamingDetector::load_checkpoint(std::istream& in) {
  VQ_SPAN("monitor.load_checkpoint");
  MonitorMetrics::get().checkpoint_loads.add(1);
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof magic) != 0) {
    throw std::runtime_error{"load_checkpoint: bad magic"};
  }
  const auto version = read_header_pod<std::uint32_t>(in);
  if (version != kCheckpointVersion) {
    throw std::runtime_error{"load_checkpoint: unsupported version " +
                             std::to_string(version)};
  }
  const auto fingerprint = read_header_pod<std::uint64_t>(in);
  if (fingerprint != config_fingerprint(config_)) {
    throw std::runtime_error{
        "load_checkpoint: checkpoint was written with a different monitor "
        "configuration (fingerprint mismatch)"};
  }

  // Slurp the rest; the trailing 8 bytes are the payload checksum, so a
  // truncated or bit-flipped checkpoint is rejected before any state is
  // parsed, let alone committed.
  std::string rest{std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{}};
  if (in.bad()) {
    throw std::runtime_error{"load_checkpoint: stream failure"};
  }
  if (rest.size() < sizeof(std::uint64_t)) {
    throw std::runtime_error{"load_checkpoint: truncated checkpoint"};
  }
  const std::string_view payload{rest.data(),
                                 rest.size() - sizeof(std::uint64_t)};
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, rest.data() + payload.size(),
              sizeof stored_checksum);
  if (stored_checksum != fnv1a(payload)) {
    throw std::runtime_error{"load_checkpoint: checksum mismatch"};
  }

  // Parse into temporaries and commit only on full success, so a throwing
  // load leaves the detector unchanged.
  Cursor cursor{payload.data(), payload.data() + payload.size()};
  const bool has_ingested = cursor.get<std::uint8_t>() != 0;
  const auto last_epoch = cursor.get<std::uint32_t>();
  std::array<std::uint64_t, kNumMetrics> opened{};
  for (int m = 0; m < kNumMetrics; ++m) opened[m] = cursor.get<std::uint64_t>();
  const auto stale_dropped = cursor.get<std::uint64_t>();
  const auto suppressed = cursor.get<std::uint64_t>();
  std::array<std::unordered_map<std::uint64_t, Incident>, kNumMetrics>
      registry;
  for (int m = 0; m < kNumMetrics; ++m) {
    const auto count = cursor.get<std::uint32_t>();
    registry[m].reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Incident incident;
      const auto raw = cursor.get<std::uint64_t>();
      incident.key = ClusterKey::from_raw(raw);
      const auto metric = cursor.get<std::uint8_t>();
      if (metric != m) {
        throw std::runtime_error{
            "load_checkpoint: incident metric does not match its registry "
            "section"};
      }
      incident.metric = static_cast<Metric>(metric);
      incident.first_epoch = cursor.get<std::uint32_t>();
      incident.streak = cursor.get<std::uint32_t>();
      incident.escalated = cursor.get<std::uint8_t>() != 0;
      incident.attributed = cursor.get<double>();
      incident.stats.sessions = cursor.get<std::uint32_t>();
      for (int k = 0; k < kNumMetrics; ++k) {
        incident.stats.problems[k] = cursor.get<std::uint32_t>();
      }
      if (!registry[m].emplace(raw, incident).second) {
        throw std::runtime_error{
            "load_checkpoint: duplicate incident key in registry section"};
      }
    }
  }
  const auto epochs_observed = cursor.get<std::uint64_t>();
  std::array<std::unordered_map<std::uint64_t, ProblemStreak>, kNumMetrics>
      streaks;
  for (int m = 0; m < kNumMetrics; ++m) {
    const auto count = cursor.get<std::uint32_t>();
    streaks[m].reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ProblemStreak streak;
      const auto raw = cursor.get<std::uint64_t>();
      streak.key = ClusterKey::from_raw(raw);
      streak.first_epoch = cursor.get<std::uint32_t>();
      streak.last_epoch = cursor.get<std::uint32_t>();
      streak.epochs_seen = cursor.get<std::uint32_t>();
      streak.streak = cursor.get<std::uint32_t>();
      streak.max_streak = cursor.get<std::uint32_t>();
      if (!streaks[m].emplace(raw, streak).second) {
        throw std::runtime_error{
            "load_checkpoint: duplicate key in streak section"};
      }
    }
  }
  if (!cursor.done()) {
    throw std::runtime_error{
        "load_checkpoint: trailing bytes after streak section"};
  }

  // Parse happened into locals; only the commit needs the state lock.
  const MutexLock lock{mutex_};
  registry_ = std::move(registry);
  streaks_ = std::move(streaks);
  opened_ = opened;
  stale_epochs_dropped_ = stale_dropped;
  suppressed_clears_ = suppressed;
  epochs_observed_ = epochs_observed;
  last_epoch_ = last_epoch;
  has_ingested_ = has_ingested;
}

void StreamingDetector::load_checkpoint(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"load_checkpoint: cannot open " + path.string()};
  }
  load_checkpoint(in);
}

}  // namespace vq

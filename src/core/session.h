// Session records, quality metrics, and problem-session classification.
//
// Paper §2: each session carries four quality metrics — buffering ratio,
// average bitrate, join time, join failure — studied independently.  A
// session is a *problem session* w.r.t. a metric when it crosses the
// metric's threshold (bufratio > 5%, bitrate < 700 kbps, join time > 10 s,
// join failure as a binary event).

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/attributes.h"

namespace vq {

/// The four quality metrics of the paper, in its reporting order.
enum class Metric : std::uint8_t {
  kBufRatio = 0,
  kBitrate = 1,
  kJoinTime = 2,
  kJoinFailure = 3,
};

inline constexpr int kNumMetrics = 4;

inline constexpr std::array<Metric, kNumMetrics> kAllMetrics = {
    Metric::kBufRatio, Metric::kBitrate, Metric::kJoinTime,
    Metric::kJoinFailure};

[[nodiscard]] std::string_view metric_name(Metric m) noexcept;

/// Per-session quality measurements.
struct QualityMetrics {
  float buffering_ratio = 0.0F;  // fraction of playing time spent buffering
  float bitrate_kbps = 0.0F;     // time-weighted average playback bitrate
  float join_time_ms = 0.0F;     // click-to-first-frame latency
  bool join_failed = false;      // no content ever played

  friend bool operator==(const QualityMetrics&, const QualityMetrics&) =
      default;
};

/// Problem-session thresholds (paper §2 defaults).
struct ProblemThresholds {
  double max_buffering_ratio = 0.05;  // > 5% buffering is a problem
  double min_bitrate_kbps = 700.0;    // < 700 kbps ("360p") is a problem
  double max_join_time_ms = 10'000.0;  // > 10 s startup is a problem

  [[nodiscard]] bool is_problem(Metric m, const QualityMetrics& q) const
      noexcept;

  /// Bitmask over all four metrics, bit i set iff the session is a problem
  /// session for metric i.
  [[nodiscard]] std::uint8_t problem_bits(const QualityMetrics& q) const
      noexcept;
};

/// One viewing session: where/what/how (attributes) plus how well (metrics).
struct Session {
  AttrVec attrs;
  std::uint32_t epoch = 0;  // one-hour bucket index, 0-based
  QualityMetrics quality;
};

/// A table's rows counted per epoch as they were appended: what a
/// whole-trace reader tallies while it builds its table
/// (gen/ingest_sink.h, TableBuilder), so the table needs no counting pass.
struct EpochCounts {
  /// counts[e] rows carry epoch e.
  std::vector<std::size_t> counts;
  /// True when no row's epoch is below its predecessor's.
  bool ordered = true;
};

/// Columnar access helpers over a session collection.
class SessionTable {
 public:
  SessionTable() = default;
  /// Counts the rows' epochs in one pass, then indexes them (finalize()).
  explicit SessionTable(std::vector<Session> sessions);
  /// Indexes rows whose epochs were counted as they were appended, without
  /// the counting pass.  The counts are checked in O(epochs): they must sum
  /// to the row count, or std::invalid_argument is thrown.  Rows out of
  /// epoch order are stably scattered, as finalize() does.  As with the
  /// counting pass, epochs after the last one with a row are not indexed.
  SessionTable(std::vector<Session> sessions, EpochCounts counts);

  [[nodiscard]] std::span<const Session> sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sessions_.empty(); }

  /// Number of epochs spanned (max epoch + 1; 0 when empty).
  [[nodiscard]] std::uint32_t num_epochs() const noexcept {
    return num_epochs_;
  }

  /// Sessions of one epoch (table is kept sorted by epoch).
  [[nodiscard]] std::span<const Session> epoch(std::uint32_t e) const;

  void append(const Session& s);

  /// Orders the rows by epoch, stably, and (re)builds the epoch index in
  /// O(rows + epochs); rows already in epoch order are not moved.  Called
  /// automatically by the constructor, and required after manual append()s
  /// before epoch().  Throws std::out_of_range on epoch UINT32_MAX.
  void finalize();

 private:
  /// Turns epoch_offsets_ (slot e + 1 holding epoch e's count) into the
  /// index, scattering the rows stably by epoch unless `ordered`.
  void build_index(bool ordered);

  std::vector<Session> sessions_;
  std::vector<std::size_t> epoch_offsets_;  // size num_epochs_+1 once built
  std::uint32_t num_epochs_ = 0;
  bool finalized_ = false;
};

}  // namespace vq

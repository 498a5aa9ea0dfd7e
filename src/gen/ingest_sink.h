// Internal ingest plumbing: DESIGN.md §4.3's row policy (check_row), which
// every ingest path applies to every row — the CSV and VQTR readers
// (robust_io.cpp), the VQTC per-row fallback (columnar.cpp) and the serve
// data frames (src/serve/server.cpp) — plus the readers' rejection sink,
// per-epoch damage tally, positioned-message helpers, and the one path by
// which the three whole-trace readers build their table (TableBuilder).
// Not installed as public API: include only from src/gen and src/serve
// implementation files.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/columns.h"
#include "src/gen/robust_io.h"
#include "src/gen/trace_format.h"
#include "src/util/huge_pages.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace vq::detail {

/// The row policy as one reader or connection applies it.
struct RowPolicy {
  ErrorPolicy on_error = ErrorPolicy::kStrict;
  std::uint32_t max_epoch = kDefaultMaxEpoch;
  /// Per dimension, the ids the schema holds: a row's id must be below.
  /// nullopt for CSV rows, which carry names that are interned only after
  /// the check, so that a rejected row cannot grow the schema.
  std::optional<std::array<std::size_t, kNumDims>> id_bound;
};

/// Per dimension, the ids `schema` holds: a RowPolicy's id_bound.
[[nodiscard]] inline std::array<std::size_t, kNumDims> id_bounds(
    const AttributeSchema& schema) {
  std::array<std::size_t, kNumDims> bound{};
  for (int d = 0; d < kNumDims; ++d) {
    bound[static_cast<std::size_t>(d)] =
        schema.cardinality(static_cast<AttrDim>(d));
  }
  return bound;
}

/// The metrics check_row tests, in its order.
inline constexpr std::array<std::string_view, 3> kMetricNames = {
    "buffering_ratio", "bitrate_kbps", "join_time_ms"};

/// The first fault check_row finds in a row.
struct RowFault {
  RowErrorKind kind = RowErrorKind::kBadNumber;
  /// The dimension of an id fault, the kMetricNames index of a non-finite
  /// metric.
  int index = 0;

  /// False when the epoch itself is the fault: such a row must not be
  /// tallied by its epoch (a poisoned epoch is a dense-index bomb).
  [[nodiscard]] bool epoch_valid() const noexcept {
    return kind != RowErrorKind::kBadNumber;
  }

  /// Why `row` was rejected, without a position: each caller appends its
  /// own.  Built only for a rejected row, so check_row stays small.
  [[nodiscard]] std::string reason(const DecodedRow& row,
                                   const RowPolicy& policy) const {
    const Session& s = row.session;
    switch (kind) {
      case RowErrorKind::kSchemaViolation:
        return "attribute id outside schema (" +
               std::string{dim_name(static_cast<AttrDim>(index))} + "=" +
               std::to_string(s.attrs.v[index]) + ")";
      case RowErrorKind::kNonFinite:
        return "non-finite " + std::string{kMetricNames[index]};
      case RowErrorKind::kBadFlag:
        return "join_failed byte must be 0 or 1, got " +
               std::to_string(row.join_flag);
      default:
        return "epoch " + std::to_string(s.epoch) + " out of range (max " +
               std::to_string(policy.max_epoch) + ")";
    }
  }
};

/// Applies the row policy to one decoded row, in this order: the epoch cap,
/// the attribute ids, the metrics finite (kMetricNames' order), the join
/// flag 0 or 1.  Returns the first fault.  Under best-effort a non-finite
/// metric is clamped to 0 and a bad flag to 1, each clamp counted in
/// `clamped`, and the row is kept.  A kept row's session carries the flag
/// in quality.join_failed.
[[nodiscard]] inline std::optional<RowFault> check_row(
    DecodedRow& row, const RowPolicy& policy,
    std::uint64_t& clamped) noexcept {
  Session& s = row.session;
  if (s.epoch > policy.max_epoch) return RowFault{RowErrorKind::kBadNumber};
  if (policy.id_bound.has_value()) {
    for (int d = 0; d < kNumDims; ++d) {
      if (s.attrs.v[d] >= (*policy.id_bound)[static_cast<std::size_t>(d)]) {
        return RowFault{RowErrorKind::kSchemaViolation, d};
      }
    }
  }
  const bool best_effort = policy.on_error == ErrorPolicy::kBestEffort;
  float* const metrics[] = {&s.quality.buffering_ratio,
                            &s.quality.bitrate_kbps, &s.quality.join_time_ms};
  for (int k = 0; k < 3; ++k) {
    if (std::isfinite(*metrics[k])) continue;
    if (!best_effort) return RowFault{RowErrorKind::kNonFinite, k};
    *metrics[k] = 0.0F;
    ++clamped;
  }
  if (row.join_flag < 0 || row.join_flag > 1) {
    if (!best_effort) return RowFault{RowErrorKind::kBadFlag};
    row.join_flag = 1;
    ++clamped;
  }
  s.quality.join_failed = row.join_flag != 0;
  return std::nullopt;
}

/// Shared rejection path: counts the event, keeps a bounded sample, and in
/// strict mode throws instead of diverting.  `context` is the public
/// function name the strict exception is attributed to.
///
/// The sink is mutex-protected (and Clang-annotated): rejection is the rare
/// path, so one uncontended lock per bad row costs nothing today and lets a
/// future sharded ingest divert rows from several reader threads into one
/// report.  The hot-path report fields (rows_read/rows_kept/...) stay
/// reader-local by contract — each reader owns its stream and report until
/// it returns.
class RowSink {
 public:
  RowSink(const char* context, const RobustReadOptions& options,
          IngestReport& report)
      : context_(context), options_(options), report_(&report) {}

  /// Rejects one row. `line` and `offset` follow QuarantinedRow semantics.
  /// Throws (after recording the rejection) under ErrorPolicy::kStrict.
  /// `weight` counts several rows lost to one event (a damaged column
  /// chunk quarantines every row it held) while keeping a single sample.
  void reject(std::uint64_t line, std::uint64_t offset, RowErrorKind kind,
              std::string detail, std::uint64_t weight = 1)
      VQ_EXCLUDES(mutex_) {
    const MutexLock lock{mutex_};
    report_->rows_quarantined += weight;
    report_->reason_counts[static_cast<std::uint8_t>(kind)] += weight;
    if (options_.policy == ErrorPolicy::kStrict) {
      // The position lives inside `detail`: every caller formats
      // "... at line/record N (offset M)" (the exact strings are
      // contract-tested in test_robust_io.cpp).
      // vq-lint: allow(positioned-throw)
      throw std::runtime_error{std::string{context_} + ": " + detail};
    }
    if (report_->quarantine.size() < options_.max_quarantine_samples &&
        retained_bytes_ + detail.size() <= options_.max_quarantine_bytes) {
      retained_bytes_ += detail.size();
      report_->quarantine.push_back(
          QuarantinedRow{line, offset, kind, std::move(detail)});
    } else {
      // Over the sample or byte budget: the event stays exactly counted,
      // only its payload is shed.
      report_->quarantine_payloads_dropped += 1;
    }
  }

 private:
  const char* const context_;
  const RobustReadOptions& options_;
  Mutex mutex_;
  IngestReport* const report_ VQ_PT_GUARDED_BY(mutex_);
  std::size_t retained_bytes_ VQ_GUARDED_BY(mutex_) = 0;
};

/// Per-epoch kept/quarantined tallies, folded into the report at the end.
/// The row readers count kept rows in their TableBuilder, one array slot
/// per epoch, and tally them here once per epoch when the load ends.
class EpochTally {
 public:
  void kept(std::uint32_t epoch, std::uint64_t n = 1) {
    counts_[epoch].first += n;
  }
  void quarantined(std::uint32_t epoch, std::uint64_t n = 1) {
    counts_[epoch].second += n;
  }

  /// Tallies a TableBuilder's kept rows, once per epoch that kept any.
  void kept(std::span<const std::size_t> epoch_counts) {
    for (std::size_t e = 0; e < epoch_counts.size(); ++e) {
      if (epoch_counts[e] != 0) {
        kept(static_cast<std::uint32_t>(e), epoch_counts[e]);
      }
    }
  }

  void fold_into(IngestReport& report) const {
    report.epochs.clear();
    report.epochs.reserve(counts_.size());
    for (const auto& [epoch, kq] : counts_) {
      report.epochs.push_back(EpochIngestStats{epoch, kq.first, kq.second});
    }
  }

 private:
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> counts_;
};

/// The one way a whole-trace reader builds its SessionTable (DESIGN.md
/// §4.9).  The rows are reserved once where the reader knows a bound and
/// grow geometrically where it does not; every reservation is advised for
/// huge pages (util/huge_pages.h); each row is written once, into reserved
/// room (push_back, or SessionColumns::append_rows for a chunk); and kept
/// rows are counted per epoch as they are appended, so the table arrives
/// indexed (SessionTable's EpochCounts constructor) without a counting
/// pass over its rows.
class TableBuilder {
 public:
  /// Room for `rows` rows in one allocation: the reader's bound on what it
  /// keeps.  Appending past it grows the rows geometrically.
  void reserve(std::size_t rows) {
    if (rows <= rows_.capacity()) return;
    // Advised before the rows kept so far move in: the copy is the first
    // touch of the new buffer's front, which the advice must precede.
    std::vector<Session> grown;
    grown.reserve(rows);
    advise_huge_pages(grown.data(), grown.capacity() * sizeof(Session));
    grown.insert(grown.end(), rows_.begin(), rows_.end());
    rows_ = std::move(grown);
  }

  void append(const Session& s) {
    if (rows_.size() == rows_.capacity()) grow(1);
    rows_.push_back(s);
    count(s.epoch, 1);
  }

  /// Appends a batch whose rows all carry `epoch`.
  void append(std::uint32_t epoch, const SessionColumns& batch) {
    const std::size_t n = batch.size();
    if (n == 0) return;
    if (rows_.capacity() - rows_.size() < n) grow(n);
    batch.append_rows(epoch, rows_);
    count(epoch, n);
  }

  /// Kept rows per epoch so far (slot e counts epoch e), which the reader
  /// passes to its EpochTally when the load ends.
  [[nodiscard]] std::span<const std::size_t> epoch_counts() const noexcept {
    return index_.counts;
  }

  /// The table, indexed by the counts.
  [[nodiscard]] SessionTable finish() && {
    return SessionTable{std::move(rows_), std::move(index_)};
  }

 private:
  void grow(std::size_t more) {
    reserve(std::max(rows_.size() + more, 2 * rows_.capacity()));
  }

  void count(std::uint32_t epoch, std::size_t n) {
    if (epoch >= index_.counts.size()) {
      // Epoch UINT32_MAX leaves no num_epochs(): refused as the counting
      // constructor refuses it.  Only a caller that lifts the epoch cap,
      // whose rejections are positioned, can get such a row this far.
      if (epoch == std::numeric_limits<std::uint32_t>::max()) {
        // vq-lint: allow(positioned-throw)
        throw std::out_of_range{"SessionTable: epoch id out of range"};
      }
      index_.counts.resize(std::size_t{epoch} + 1, 0);
    }
    index_.counts[epoch] += n;
    index_.ordered = index_.ordered && epoch >= last_epoch_;
    last_epoch_ = epoch;
  }

  std::vector<Session> rows_;
  EpochCounts index_;
  std::uint32_t last_epoch_ = 0;
};

[[nodiscard]] inline std::string at_line(std::uint64_t line_no) {
  return " at line " + std::to_string(line_no);
}

[[nodiscard]] inline std::string at_record(std::uint64_t ordinal,
                                           std::uint64_t offset) {
  return " at record " + std::to_string(ordinal) + " (offset " +
         std::to_string(offset) + ")";
}

}  // namespace vq::detail

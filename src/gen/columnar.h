// Out-of-core columnar trace container ("VQTC").
//
// The row-wise containers (trace_io.h) materialize whole traces in RAM; at
// paper scale (~300M sessions x 336 epochs) that is the wall.  This format
// stores one *column chunk per epoch* — seven u16 attribute columns
// (dictionary-encoded against the same schema section the binary container
// uses) plus three f32 metric columns and the join_failed byte column — with
// a checksummed footer index of epoch -> chunk offsets, so an analysis
// streams the trace one epoch at a time at O(one epoch) memory and lands
// each chunk directly in the SoA layout the vectorized fold kernels
// (core/columns.h) consume.  Layout details: trace_format.h.
//
// Fault tolerance follows the ErrorPolicy contract of robust_io.h:
//
//   * Header and schema section are structural — throw under every policy.
//   * A damaged footer index (bad tail, bad checksum, implausible entries)
//     throws under kStrict; under the non-strict policies the reader falls
//     back to a sequential chunk scan (chunks are self-delimiting).
//   * A damaged chunk (checksum mismatch, truncation, header disagreeing
//     with the index) throws positioned under kStrict; otherwise the whole
//     chunk is quarantined — its declared row count is recorded lost and
//     the epoch is reported degraded.
//   * Row-level damage inside an intact chunk (attribute id outside the
//     schema, non-finite metric, join flag outside {0,1}) follows the
//     policy row by row through the row check every reader shares
//     (ingest_sink.h, check_row): quarantine under kQuarantine, clamp
//     repairable fields under kBestEffort.  One exact
//     check per column (rows_within_policy, core/columns.h) first decides
//     whether a chunk has any such row; only then does the per-row loop
//     run.
//
// Version-1 containers (fnv1a chunk checksums) are read as well as the
// version 2 the writer makes; trace_format.h has both layouts.

#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>

#include "src/core/columns.h"
#include "src/gen/robust_io.h"

namespace vq {

/// Writes `table` (finalized, epoch-sorted) as a VQTC columnar container.
/// Every attribute id present must be registered in `schema`; attribute
/// names longer than detail::kMaxAttrNameLen throw std::invalid_argument.
/// Throws std::runtime_error when the stream reports failure.
void write_trace_columnar(std::ostream& out, const SessionTable& table,
                          const AttributeSchema& schema);
void write_trace_columnar(const std::filesystem::path& path,
                          const SessionTable& table,
                          const AttributeSchema& schema);

/// Streaming columnar reader: one chunk per read_epoch call, O(one epoch)
/// memory.  The constructor reads header + schema and loads the footer
/// index (or falls back to a chunk scan, see above); each read_epoch seeks
/// to that epoch's chunk.  The stream must therefore be seekable.
class ColumnarReader final : public EpochColumnsSource {
 public:
  /// Caller-owned stream; must outlive the reader.
  explicit ColumnarReader(std::istream& in,
                          const RobustReadOptions& options = {});
  /// Opens and owns the file stream.
  explicit ColumnarReader(const std::filesystem::path& path,
                          const RobustReadOptions& options = {});
  ~ColumnarReader() override;

  ColumnarReader(const ColumnarReader&) = delete;
  ColumnarReader& operator=(const ColumnarReader&) = delete;

  [[nodiscard]] std::uint32_t num_epochs() const override;

  /// Replaces `out` with epoch e's sessions (empty when the epoch has no
  /// chunk).  Returns true when the epoch is degraded: rows were lost to
  /// quarantine, checksum failure, or truncation.  Under kStrict, damage
  /// throws a positioned std::runtime_error instead.
  bool read_epoch(std::uint32_t e, SessionColumns& out) override;

  [[nodiscard]] const AttributeSchema& schema() const noexcept;

  /// Moves the schema out (AttributeSchema is move-only); the reader must
  /// not be used afterwards.  For materializing readers only.
  [[nodiscard]] AttributeSchema take_schema() noexcept;

  /// Sum of the index's per-chunk row counts (what an undamaged full read
  /// would yield).
  [[nodiscard]] std::uint64_t total_sessions() const noexcept;

  /// Rows the container's bytes can hold at 27 bytes a row: a bound on what
  /// any read of it yields, whatever its index claims.
  [[nodiscard]] std::uint64_t max_rows() const noexcept;

  /// True when the footer index was damaged and rebuilt by sequential scan.
  [[nodiscard]] bool footer_recovered() const noexcept;

  /// Snapshot of the ingest damage accumulated by the read_epoch calls so
  /// far (per-epoch tallies folded in).  Callers publish it themselves
  /// (publish_ingest_metrics) once streaming completes.
  [[nodiscard]] IngestReport report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Materializing shims, for tools and tests that want the whole trace in
/// RAM with the same API shape as the CSV/binary readers.  The robust
/// variant publishes ingest metrics like its siblings.
[[nodiscard]] RobustLoadedTrace read_trace_columnar_robust(
    std::istream& in, const RobustReadOptions& options = {});
[[nodiscard]] RobustLoadedTrace read_trace_columnar_robust(
    const std::filesystem::path& path, const RobustReadOptions& options = {});

[[nodiscard]] LoadedTrace read_trace_columnar(std::istream& in);
[[nodiscard]] LoadedTrace read_trace_columnar(
    const std::filesystem::path& path);

}  // namespace vq

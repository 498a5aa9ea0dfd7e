// Structure-of-arrays session batches and the column fold.
//
// The row-wise hot loop (fold_sessions in cluster_engine.h) walks an array
// of Session structs: every session costs a strided 40-byte record touch, a
// branchy ClusterKey::pack call, and four scalar threshold compares.  At
// paper scale (~300M sessions) that layout is the wall: the out-of-core
// columnar trace format (gen/columnar.h) already stores each epoch as seven
// u16 attribute columns plus four metric columns, so the aggregation can
// consume them directly:
//
//   * fold_codes_columns — each session's fold code (cluster_engine.h,
//     fold_code) from the columns, in blocks of 64 sessions: one
//     branch-free loop of threshold compares sets the problem bits, and one
//     shift/OR loop packs every dimension's id into its leaf key field
//     above them, with the per-dimension range check hoisted out (one
//     column maximum per dimension instead of one branch per session per
//     dimension).  The loops are plain C++; a block's constant trip count
//     lets the compiler vectorize them for whatever instruction set the
//     build targets, at -O2 as well as -O3.
//   * fold_sessions_columns — pass 1 of the leaf-folded aggregation over a
//     SessionColumns batch: the codes above, then the same radix fold
//     kernel (fold_codes) as the row path, so the LeafFold is identical to
//     fold_sessions over the same sessions (enforced by
//     tests/test_columns_fold.cpp and tests/test_fold_differential.cpp).
//
// SessionColumns is also the unit of streaming: EpochColumnsSource is the
// abstract one-epoch-at-a-time feed run_pipeline_streaming (pipeline.h)
// consumes, letting `analyze` run at O(one epoch) memory over traces that
// never fit in RAM.  gen/columnar.h implements it over the on-disk format;
// tests implement it over in-memory tables.

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/session.h"

namespace vq {

struct LeafFold;

/// One batch of sessions in structure-of-arrays layout: column i of attrs
/// holds dimension i's value ids, metric columns are parallel to it.  All
/// columns always have equal length.  A batch carries no per-row epoch —
/// batches are built per epoch (the columnar format stores one epoch per
/// chunk), and the epoch id travels alongside.
struct SessionColumns {
  std::array<std::vector<std::uint16_t>, kNumDims> attrs;
  std::vector<float> buffering_ratio;
  std::vector<float> bitrate_kbps;
  std::vector<float> join_time_ms;
  std::vector<std::uint8_t> join_failed;  // 0 or 1

  [[nodiscard]] std::size_t size() const noexcept {
    return join_failed.size();
  }
  [[nodiscard]] bool empty() const noexcept { return join_failed.empty(); }

  /// Empties every column; capacity is retained so a streaming reader can
  /// reuse one batch across epochs without reallocating.
  void clear() noexcept;

  void reserve(std::size_t n);

  void push_back(const Session& s);

  /// Row view of element i (for tests and row-at-a-time consumers).
  [[nodiscard]] Session row(std::size_t i, std::uint32_t epoch) const;

  /// Appends the batch as Session rows carrying `epoch` (the streaming
  /// monitor's per-epoch materialisation, and the whole-trace loaders').
  /// `out` grows geometrically, so appending a trace's batches one by one
  /// reallocates O(log rows) times; each row is written once, into
  /// reserved room.
  void append_rows(std::uint32_t epoch, std::vector<Session>& out) const;

  /// Builds the batch from row-wise sessions. Every session must carry
  /// `epoch`; throws std::invalid_argument otherwise (mirroring
  /// fold_sessions' epoch check).
  static SessionColumns from_sessions(std::span<const Session> sessions,
                                      std::uint32_t epoch);
};

/// True when every row holds attribute ids below its dimension's
/// `cardinality`, three finite metrics and a join flag of 0 or 1: the row
/// policy the trace readers apply row by row, checked by column (a maximum
/// per attribute column, an exponent test per metric column, the OR of the
/// flag bytes).  Exact, so a batch it passes has no row to reject or clamp.
[[nodiscard]] bool rows_within_policy(
    const SessionColumns& columns,
    const std::array<std::size_t, kNumDims>& cardinality) noexcept;

/// One fold code per element (cluster_engine.h, fold_code):
/// codes[i] == fold_code(ClusterKey::pack(kFullMask, row i attrs).raw(),
/// thresholds.problem_bits(row i quality)), so `codes[i] | kFullMask` is
/// element i's leaf key and `codes[i] & 15` its problem bits.  Value ids
/// must fit their field widths; throws std::out_of_range naming the
/// offending dimension otherwise (checked per column, so the *dimension*
/// reported for multi-error batches may differ from the row-wise path's
/// first-session order — both always throw).  Throws std::invalid_argument
/// unless `codes.size()` equals `columns.size()`.
void fold_codes_columns(const SessionColumns& columns,
                        const ProblemThresholds& thresholds,
                        std::span<std::uint64_t> codes);

/// Pass-1 leaf fold over a column batch; identical to
/// fold_sessions(rows, thresholds, epoch) over the same sessions.  The
/// returned fold holds no scratch.
[[nodiscard]] LeafFold fold_sessions_columns(
    const SessionColumns& columns, const ProblemThresholds& thresholds,
    std::uint32_t epoch);

/// fold_sessions_columns into `fold`, which is reset first (its capacity
/// is kept).
void fold_sessions_columns_into(const SessionColumns& columns,
                                const ProblemThresholds& thresholds,
                                std::uint32_t epoch, LeafFold& fold);

/// The widest x86 vector instruction set this build targets, which the
/// compiler may use for the column loops: "avx2", "sse2", or "scalar" when
/// it targets neither.  A label for benchmark and report records only.
[[nodiscard]] std::string_view batch_kernel_name() noexcept;

/// Abstract one-epoch-at-a-time session feed, the streaming counterpart of
/// SessionTable.  Implementations: gen/columnar.h's ColumnarReader (reads
/// one column chunk per call at O(one epoch) memory) and in-memory test
/// doubles.  Epochs with no sessions yield an empty batch.
class EpochColumnsSource {
 public:
  virtual ~EpochColumnsSource() = default;

  /// Epochs spanned (max epoch + 1), known up front (e.g. from the footer
  /// index) so per-epoch result vectors can be sized before streaming.
  [[nodiscard]] virtual std::uint32_t num_epochs() const = 0;

  /// Replaces `out`'s contents with epoch e's sessions, in trace order.
  /// Returns true when the epoch is degraded — rows were lost to
  /// quarantine, checksum failure, or truncation — mirroring the
  /// IngestReport::degraded_epochs annotation of the in-RAM readers.
  /// Throws on unrecoverable input errors (strict-policy readers).
  virtual bool read_epoch(std::uint32_t e, SessionColumns& out) = 0;
};

}  // namespace vq

// Incremental epoch-table maintenance (DESIGN.md §4.13).
//
// A bench-only module: no pipeline, detector or CLI command runs it.  Every
// production path analyses each epoch from its own sessions alone through
// EpochAnalyzer (epoch_analyzer.h), as the paper does (§3.1–3.2).  This
// engine instead keeps the lattice alive across epochs and makes the
// per-epoch cost proportional to *change*; measured, it is slower than the
// rebuild on every load (DESIGN.md §4.13).  Its callers are the end-to-end
// benchmark's traced side pass (e2ebench/workloads.cpp), its differential
// test (tests/test_incremental.cpp) and bench/perf_incremental.
//
//   * Delta application.  The per-epoch leaf fold (pass 1, unavoidable
//     O(sessions)) is diffed against the retained per-leaf stats.  Each
//     added/updated/retired leaf applies one wrapped-difference delta
//     (new - old over uint32, exact under wraparound) to its precomputed
//     projection row — 127 counter additions by dense cell id, no
//     hashing, no re-expansion of unchanged leaves.  A leaf absent from
//     the fold retires with a negative delta; its slot and row are
//     retained and reused if the leaf reappears.  Invalidation is value-based: a cell
//     whose deltas net to zero across the epoch (balanced churn — sessions
//     migrating between sibling leaves sharing the projection) is compared
//     equal to its pre-advance snapshot and treated as untouched, so broad
//     low-arity aggregates do not invalidate the whole lattice whenever a
//     narrow frontier churns underneath them.
//   * Flag maintenance.  The per-cell significant bit depends only on the
//     cell's own sessions, so it is recomputed for touched cells only.  The
//     per-metric flagged bit also depends on the epoch's global ratio:
//     when the global is unchanged the update is touched-cells-only,
//     otherwise one flat pass over the contiguous cell vector (still far
//     cheaper than re-expansion).
//   * Candidate caching.  The critical-cluster candidate masks of a leaf
//     are a pure function of (its row's cell stats, the global ratio, the
//     params).  Each (leaf, metric) caches its last evaluation; because
//     every active problems>0 leaf is swept each advance (and a hit
//     re-stamps), validity is a single-advance question: the cache holds
//     iff the leaf was swept on the previous advance, the global is
//     bit-equal, and no row cell's value changed this advance — probed
//     against a per-epoch changed-cell bitmap, so the hot path never walks
//     a per-cell sequence array.  Attribution shares are still added up
//     for every active leaf in ascending-key order — that order is what
//     reproduces the from-scratch floating-point accumulation sequence
//     exactly.
//
// Bit-identity contract: advance() returns, for every metric, a
// CriticalAnalysis bit-identical to find_critical_clusters over
// expand_fold(fold) — same problem keys, same criticals, same attribution
// doubles — at every epoch boundary.  tests/test_incremental.cpp enforces
// this differentially.  Why it holds:
//   * Cell content equals the from-scratch table's: deltas are exact over
//     uint32, and a cell decays to zero sessions exactly when no active
//     leaf projects onto it (i.e. when the from-scratch table would not
//     materialise it at all).  Zero-session cells can never be flagged —
//     problem_ratio is 0 and the threshold<=0 arm needs problems > 0 —
//     so retained-but-dead cells are invisible to every output.
//   * Dense ids differ (first-touch vs canonical) but no output depends on
//     them: problem keys are sorted ascending, criticals are finalized with
//     the shared (mass desc, key asc) sort, and the attribution doubles
//     come from the same per-leaf accumulation order.
//
// advance() lands on the current fold's exact cell content from any prior
// state; the first advance, from an empty lattice, is a full build (every
// leaf is "added").

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/mask_bits.h"
#include "src/core/problem_cluster.h"
#include "src/util/flat_hash_map.h"

namespace vq {

class ThreadPool;

/// Per-advance introspection: what the delta engine actually did.  Stable
/// given the input stream, so tests and the perf bench can assert on churn
/// accounting.
struct IncrementalDeltaStats {
  std::uint32_t epoch = 0;
  std::size_t leaves_added = 0;    // newly active (incl. re-added)
  std::size_t leaves_updated = 0;  // active before and after, stats changed
  std::size_t leaves_retired = 0;  // active before, absent from this fold
  /// Distinct cells whose stats changed this epoch.  Cells whose deltas
  /// net to zero (balanced churn) do not count and do not invalidate.
  std::size_t cells_touched = 0;
  std::size_t active_leaves = 0;   // after this advance
  std::size_t cells = 0;           // retained cells (incl. decayed-to-zero)
  std::uint64_t cache_hits = 0;    // (leaf, metric) candidate-cache hits
  std::uint64_t cache_misses = 0;
  /// Per metric: whether the flagged bitset needed a full O(cells) pass
  /// (global ratio changed) instead of a touched-cells-only update.
  std::array<bool, kNumMetrics> full_flag_pass{};
};

/// The incremental lattice.  Feed it one canonical LeafFold per epoch (in
/// stream order; cluster_engine.h); it returns the epoch's four critical
/// analyses, bit-identical to the from-scratch expand + extract path.
class IncrementalLattice {
 public:
  explicit IncrementalLattice(const ProblemClusterParams& params,
                              int max_arity = kNumDims);

  /// Applies the epoch's fold as a delta against the retained state and
  /// extracts all four per-metric critical analyses.  The pool and shard
  /// arguments are unused: the sweep is serial.
  std::array<CriticalAnalysis, kNumMetrics> advance(
      const LeafFold& fold, ThreadPool* /*unused*/ = nullptr,
      std::size_t /*unused*/ = 1);

  [[nodiscard]] const IncrementalDeltaStats& last_delta() const noexcept {
    return delta_;
  }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const ClusterStats& root() const noexcept { return root_; }
  /// Retained cells, keys and stats in parallel, in first-touch id order
  /// (including cells of retired leaves, decayed to zero).  Exposed for
  /// the content differential against a from-scratch table.
  [[nodiscard]] std::span<const std::uint64_t> cell_keys() const noexcept {
    return cell_keys_;
  }
  [[nodiscard]] std::span<const ClusterStats> cell_stats() const noexcept {
    return cell_stats_;
  }
  [[nodiscard]] std::size_t num_active_leaves() const noexcept {
    return active_slots_.size();
  }

 private:
  struct SweepScratch;

  void apply_deltas(const LeafFold& fold);
  void apply_leaf_delta(std::uint32_t slot, const ClusterStats& next);
  std::uint32_t slot_for(std::uint64_t leaf_key);
  std::uint32_t cell_for(std::uint64_t raw);
  void update_flags();
  CriticalAnalysis extract(Metric metric);
  /// Evaluates one leaf's candidate masks + problem-cluster membership
  /// against the retained flags (the fused sweep's per-leaf math, applied
  /// to the incremental store).  Returns in_problem_cluster; minimal
  /// candidate masks land in scratch (ascending).
  bool eval_leaf(std::uint32_t slot, Metric metric, double global,
                 SweepScratch& scratch) const;

  [[nodiscard]] std::span<const std::uint32_t> row(
      std::uint32_t slot) const noexcept {
    return std::span{rows_}.subspan(
        static_cast<std::size_t>(slot) * masks_.size(), masks_.size());
  }

  ProblemClusterParams params_;
  std::vector<std::uint8_t> masks_;  // materialised masks, ascending
  std::array<std::uint16_t, kFullMask + 1> mask_col_{};  // mask -> row column

  std::uint64_t seq_ = 0;  // advance sequence number (1 = first epoch)
  std::uint32_t epoch_ = 0;
  bool primed_ = false;  // at least one advance happened
  ClusterStats root_;

  // Cells, by dense id in first-touch order.
  FlatMap64<std::uint32_t> cell_ids_;  // raw key -> dense id + 1
  std::vector<std::uint64_t> cell_keys_;
  std::vector<ClusterStats> cell_stats_;

  // Per-cell state, parallel to the dense ids.
  std::vector<std::uint64_t> cell_visit_seq_;  // seq of last delta (dedup)
  std::vector<std::uint64_t> changed_bitmap_;  // value changed this advance
  std::vector<std::uint64_t> significant_;     // 1 bit per cell
  std::array<std::vector<std::uint64_t>, kNumMetrics> flagged_;
  std::array<std::uint32_t, kNumMetrics> num_flagged_{};
  std::array<double, kNumMetrics> prev_global_{};

  // Per-leaf state, parallel to slot ids.  Slots are never reclaimed; a
  // retired leaf keeps its slot (stats zeroed) and reuses it on return.
  FlatMap64<std::uint32_t> leaf_slot_;      // leaf key -> slot + 1
  std::vector<std::uint64_t> leaf_keys_;
  std::vector<ClusterStats> leaf_stats_;
  std::vector<std::uint32_t> rows_;         // slot x masks_.size() cell ids
  std::vector<std::uint64_t> present_seq_;  // seq of last fold appearance
  std::vector<std::uint64_t> row_dirty_seq_;  // memo: dirty probed at seq
  std::vector<std::uint8_t> row_dirty_;       // memoised row-dirty bit

  // Candidate cache, per (metric, slot).
  struct MetricCache {
    std::vector<std::uint64_t> eval_seq;  // 0 = never evaluated
    std::vector<double> eval_global;
    std::vector<detail::MaskBits> candidates;
    std::vector<std::uint8_t> in_pc;
  };
  std::array<MetricCache, kNumMetrics> cache_;

  std::vector<std::uint32_t> active_slots_;  // ascending leaf key

  // Per-advance scratch (retained to avoid reallocation).
  std::vector<std::pair<std::uint64_t, ClusterStats>> changed_;
  std::vector<std::uint32_t> touched_cells_;
  std::vector<ClusterStats> saved_cell_stats_;  // pre-advance, per touched
  std::vector<std::uint32_t> added_active_;
  std::vector<double> attribution_;
  std::vector<std::uint32_t> touched_attr_;

  IncrementalDeltaStats delta_;
};

}  // namespace vq

// Critical-cluster identification via the phase-transition rule (paper §3.2)
// and per-session attribution.
//
// Intuition (paper Fig. 5): walking any root->leaf chain of a problem
// session's attribute lattice, the *critical cluster* is the point closest
// to the root where the problem "switches on": the cluster itself and all of
// its chain descendants are problem clusters, while removing the cluster's
// sessions leaves every ancestor below the problem threshold.
//
// Concretely, a mask m over a problem session's leaf attributes is a
// critical candidate when:
//   (a) cluster(m) is a problem cluster;
//   (b) every *significant* descendant within the leaf is a problem
//       cluster (insignificant descendants sit below the paper's
//       1000-session noise floor and cannot veto);
//   (c) for every proper non-empty subset a of m, cluster(a) minus
//       cluster(m)'s sessions is no longer a problem cluster ("once removing
//       it every ancestor is not a problem cluster");
// and m is minimal by inclusion among such masks ("closest to the root").
// When several minimal candidates exist (correlated attributes), the
// session's mass is divided equally among them, exactly as the paper does.
//
// The candidate set and the problem-cluster membership flag depend only on
// a session's full-arity leaf, so the whole analysis runs over the epoch's
// *distinct* leaves, each weighted by its problem-session count — not over
// raw sessions.
//
// One sweep serves every requested metric.  It first computes one 16-bit
// word per cell (compute_cell_flags): the cell's mask, its significance,
// its problem flag per metric, and per metric whether condition (c) holds.
// (c) is a property of the cell, not of the leaf it is reached from: its
// ancestors are projections of the cell's own key.  Leaves of one row
// group (cluster_engine.h) belong to the same cells, so the conditions are
// evaluated once per group, on 128-bit mask sets: per metric (a) and (c)
// are set membership, (b) one superset-OR of the significant-but-unflagged
// set, and minimality one subset-OR of the candidates — zero hash lookups
// and zero threshold evaluations per group.  The sets are filled from the
// table's LeafCellIndex, the cube's member lists: one pass over the cells
// scatters each significant cell's mask bit over the groups it holds and
// lists each metric's flagged cells, and then, one metric at a time, each
// flagged cell's bit goes to its groups' flagged and (c) sets.  The cells
// below a pruned table's floor are
// absent from the lists; those are insignificant, so they could be neither
// flagged nor a veto.  Shares are then added leaf by leaf in canonical
// (ascending-key) order, each leaf's equal shares over its group's
// candidates in ascending mask order, with a candidate's id looked up by
// the leaf key's projection, so the floating-point accumulation sequence,
// and with it the output, is fixed.
//
// The single-metric find_critical_clusters is the same sweep restricted to
// one metric.  CriticalSweep keeps the sweep's buffers (cell words, the
// groups' mask sets, attribution) across epochs for EpochAnalyzer
// (epoch_analyzer.h).
// tests/test_oracle.cpp checks every analysis against a brute-force
// restatement of §3.1-3.2 over the raw sessions (tests/oracle.h).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/mask_bits.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"

namespace vq {

class ThreadPool;

/// A critical cluster of one epoch with its attributed problem-session mass.
struct CriticalRecord {
  ClusterKey key;
  double attributed = 0.0;  // fractional problem-session mass
  ClusterStats stats;       // the cluster's own counters in this epoch

  friend bool operator==(const CriticalRecord&,
                         const CriticalRecord&) = default;
};

/// Full per-epoch, per-metric critical analysis output.
struct CriticalAnalysis {
  std::uint32_t epoch = 0;
  Metric metric = Metric::kBufRatio;

  std::uint64_t sessions = 0;          // epoch session count
  std::uint64_t problem_sessions = 0;  // epoch problem sessions (this metric)
  /// Problem sessions belonging to >= 1 problem cluster (Table 1 "problem
  /// cluster coverage" numerator).
  std::uint64_t problem_sessions_in_pc = 0;
  double global_ratio = 0.0;
  std::uint32_t num_problem_clusters = 0;
  /// Raw keys of this epoch's problem clusters, ascending (shared with the
  /// pipeline's prevalence/persistence analytics so the problem-cluster
  /// sweep runs once per (epoch, metric)).
  std::vector<std::uint64_t> problem_cluster_keys;

  /// Critical clusters sorted by attributed mass, descending.
  std::vector<CriticalRecord> criticals;
  /// Sum of attributed masses (Table 1 "critical cluster coverage"
  /// numerator); <= problem_sessions_in_pc <= problem_sessions.
  double attributed_mass = 0.0;

  [[nodiscard]] double problem_cluster_coverage() const noexcept {
    return problem_sessions == 0
               ? 0.0
               : static_cast<double>(problem_sessions_in_pc) /
                     static_cast<double>(problem_sessions);
  }
  [[nodiscard]] double critical_cluster_coverage() const noexcept {
    return problem_sessions == 0
               ? 0.0
               : attributed_mass / static_cast<double>(problem_sessions);
  }

  /// Every field equal, doubles included.
  friend bool operator==(const CriticalAnalysis&,
                         const CriticalAnalysis&) = default;
};

/// Bit set of metrics: bit m selects Metric m.
using MetricSet = std::uint8_t;
inline constexpr MetricSet kAllMetricSet = (1u << kNumMetrics) - 1;
[[nodiscard]] constexpr MetricSet metric_set(Metric m) noexcept {
  return static_cast<MetricSet>(1u << static_cast<unsigned>(m));
}

/// The per-cell word of the fused sweep (compute_cell_flags).
namespace cell_word {
/// A significant cell's mask.
inline constexpr std::uint16_t kMask = kFullMask;
inline constexpr std::uint16_t kSignificant = 1u << 7;
inline constexpr std::uint16_t kAnyFlagged = 0xFu << 8;
/// is_problem_cluster for metric m.
[[nodiscard]] constexpr std::uint16_t flagged(int m) noexcept {
  return static_cast<std::uint16_t>(1u << (8 + m));
}
/// Condition (c) for metric m: removing the cell's sessions leaves no
/// proper ancestor a problem cluster.  Set only on flagged cells.
[[nodiscard]] constexpr std::uint16_t removal_ok(int m) noexcept {
  return static_cast<std::uint16_t>(1u << (12 + m));
}
}  // namespace cell_word

/// One pass over the table's cells writing each cell's word to words[id]:
/// for a significant cell its mask, kSignificant, the problem flag of every
/// metric in `metrics`, and for flagged cells condition (c), whose
/// ancestors are looked up by key (each holds at least the flagged cell's
/// sessions, so a pruned table has it too); 0 for an insignificant cell.
/// Throws std::invalid_argument when params.min_sessions is below
/// table.floor.
void compute_cell_flags(const EpochClusterTable& table,
                        const ProblemClusterParams& params, MetricSet metrics,
                        std::vector<std::uint16_t>& words);

/// The fused critical sweep with buffers kept across calls.  Output never
/// depends on what a previous call left behind.
class CriticalSweep {
 public:
  /// The analyses of every metric in `metrics` (the others are left
  /// default).  Throws std::invalid_argument when params.min_sessions is
  /// below table.floor, or when a non-empty table carries no LeafCellIndex
  /// (expand_fold always builds one).
  [[nodiscard]] std::array<CriticalAnalysis, kNumMetrics> run(
      const EpochClusterTable& table, const ProblemClusterParams& params,
      MetricSet metrics);

 private:
  using MaskBits = detail::MaskBits;

  /// Metric m: scatters its flagged cells' masks over their members, then
  /// walks the leaves in canonical order and attributes their shares.
  void sweep_metric(const EpochClusterTable& table, int m,
                    CriticalAnalysis& out);
  /// Adds one share to cell `id`'s attribution.
  void attribute(std::uint32_t id, double share);
  /// Puts one metric's problem-cluster keys, which arrive in ascending
  /// mask order, in ascending raw order.
  void sort_problem_keys(std::vector<std::uint64_t>& keys);

  std::vector<std::uint16_t> words_;  // per cell
  // Per metric, the ids of its flagged cells, ascending.
  std::array<std::vector<std::uint32_t>, kNumMetrics> flagged_cells_;
  // Per row group: the significant masks, one metric's flagged masks and
  // (c) set (then its candidates), and the metrics whose candidates are
  // computed.
  std::vector<MaskBits> significant_;
  std::vector<MaskBits> flagged_;
  std::vector<MaskBits> removal_ok_;
  std::vector<std::uint8_t> solved_;
  std::vector<double> attribution_;  // per cell; all zero between metrics
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint64_t> key_scratch_;  // the key sort's second buffer
};

/// All four analyses of one epoch in one sweep (CriticalSweep::run with
/// every metric and fresh buffers).  `fold` is the pass-1 fold the table was
/// expanded from; the sweep reads its leaves from the table's
/// LeafCellIndex instead, so the fold is not read.
[[nodiscard]] std::array<CriticalAnalysis, kNumMetrics> find_critical_clusters(
    const LeafFold& fold, const EpochClusterTable& table,
    const ProblemClusterParams& params);

/// One metric's analysis: the same sweep restricted to `metric`.  The pool
/// and shard arguments are unused: the sweep is serial.
[[nodiscard]] CriticalAnalysis find_critical_clusters(
    const LeafFold& fold, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric,
    ThreadPool* /*unused*/ = nullptr, std::size_t /*unused*/ = 1);

/// Critical candidate masks for a single leaf, by one table.stats() lookup
/// per lattice mask (for per-leaf consumers such as EngagementWhatIf; the
/// sweep reads the same conditions from the LeafCellIndex).  Returns the
/// minimal candidate masks, ascending.  Throws std::invalid_argument when
/// params.min_sessions is below table.floor.
[[nodiscard]] std::vector<std::uint8_t> critical_candidate_masks(
    const ClusterKey& leaf, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric);

namespace detail {

/// Shared tail of the sweep and the incremental delta engine: deterministic
/// record order (attributed mass descending, raw key ascending) and the
/// attributed-mass total summed in that order. Exported so the incremental
/// delta engine (src/core/incremental.cpp) finalizes with the exact same
/// sort and floating-point summation sequence as the sweep.
void finalize_critical_analysis(CriticalAnalysis& out);

/// The shortest problem-cluster key list the sweep sorts by radix_sort_keys
/// (cluster_engine.h); shorter lists take std::sort.  Measured: the radix
/// sort's fixed cost (six 256-entry histograms) loses below ~2 000 keys and
/// wins above (EXPERIMENTS.md, "Problem-cluster keys by radix sort").
inline constexpr std::size_t kRadixMinProblemKeys = 2048;

}  // namespace detail

}  // namespace vq

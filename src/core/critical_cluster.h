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
// Two extraction strategies produce bit-identical analyses (enforced by
// tests/test_critical_differential.cpp):
//
//  * hashed (the original): per leaf, one table.stats() hash lookup and
//    one is_problem_cluster evaluation per lattice mask (127 at full
//    arity).
//  * indexed (default when the table carries a LeafCellIndex): per-metric
//    flag bitsets are precomputed once over the table's contiguous cell
//    vector (compute_cell_flags), and each leaf's sweep gathers its
//    precomputed projection cell ids — zero hash lookups and zero repeated
//    threshold evaluations in the inner loop; conditions (a)/(b) collapse
//    to 128-bit subset/superset bit tricks.  On a table pruned at the
//    session floor (cluster_engine.h) the sweep skips the kNoCell slots of
//    projections below it: such a cell is insignificant, so it is neither
//    flagged nor a veto, and condition (c) reads only subsets of flagged
//    masks, which are significant and present.  The per-leaf loop can shard
//    across a ThreadPool: shards take contiguous ranges of the canonical
//    (ascending-key) leaf array and their share lists are replayed in shard
//    order, reproducing the serial floating-point accumulation sequence
//    exactly — output is bit-identical for any shard count.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"
#include "src/util/flat_hash_map.h"

namespace vq {

class ThreadPool;

/// A critical cluster of one epoch with its attributed problem-session mass.
struct CriticalRecord {
  ClusterKey key;
  double attributed = 0.0;  // fractional problem-session mass
  ClusterStats stats;       // the cluster's own counters in this epoch
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
};

/// Runs the phase-transition algorithm for one epoch and metric, dispatching
/// to the indexed strategy when the table carries a LeafCellIndex (i.e. it
/// was built by expand_fold with ClusterEngineConfig::index_cells) and to
/// the retained hashed baseline otherwise. `fold` must be the pass-1 fold of
/// the sessions the `table` was aggregated from (run_pipeline computes it
/// once per epoch and shares it across all four metrics). With `pool`
/// non-null and `shards > 1` the indexed per-leaf loop runs sharded.  Every
/// strategy throws std::invalid_argument when params.min_sessions is below
/// table.floor.
[[nodiscard]] CriticalAnalysis find_critical_clusters(
    const LeafFold& fold, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric,
    ThreadPool* pool = nullptr, std::size_t shards = 1);

/// Session-span convenience wrapper: folds `sessions` (which must be the
/// span the `table` was aggregated from) and delegates to the overload
/// above.
[[nodiscard]] CriticalAnalysis find_critical_clusters(
    std::span<const Session> sessions, const EpochClusterTable& table,
    const ProblemThresholds& thresholds, const ProblemClusterParams& params,
    Metric metric);

/// The retained hash-lookup strategy (one table.stats() probe per leaf and
/// lattice mask); the differential-testing and benchmarking baseline.
[[nodiscard]] CriticalAnalysis find_critical_clusters_hashed(
    const LeafFold& fold, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric);

/// The indexed strategy: precomputed flag bitsets + per-leaf cell-id
/// gathers, optionally sharded. Requires the table to carry a LeafCellIndex
/// (throws std::invalid_argument on a non-empty table without one).
[[nodiscard]] CriticalAnalysis find_critical_clusters_indexed(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    Metric metric, ThreadPool* pool = nullptr, std::size_t shards = 1);

/// Per-leaf candidate evaluation output: the minimal candidate masks plus
/// whether any of the leaf's projections is a problem cluster (both fall
/// out of the same flagged-mask sweep, so they are computed together).
struct LeafCandidates {
  std::vector<std::uint8_t> masks;  // minimal candidate masks, ascending
  bool in_problem_cluster = false;
};

/// Critical candidate masks + problem-cluster membership for a single leaf
/// (hash-lookup evaluation; the indexed strategy computes the same result
/// from the LeafCellIndex).
[[nodiscard]] LeafCandidates critical_leaf_candidates(
    const ClusterKey& leaf, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric);

/// Critical candidate masks for a single leaf (exposed for tests and the
/// HHH comparison bench). Returns minimal candidate masks, ascending.
[[nodiscard]] std::vector<std::uint8_t> critical_candidate_masks(
    const ClusterKey& leaf, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric);

namespace detail {

/// Shared tail of every extraction strategy: deterministic record order
/// (attributed mass descending, raw key ascending) and the attributed-mass
/// total summed in that order. Exported so the incremental delta engine
/// (src/core/incremental.cpp) finalizes with the exact same sort and
/// floating-point summation sequence as the from-scratch strategies.
void finalize_critical_analysis(CriticalAnalysis& out);

}  // namespace detail

}  // namespace vq

// Problem-cluster identification (paper §3.1).
//
// A cluster is a *problem cluster* for a metric within an epoch when
//   (1) it is statistically significant:   sessions >= min_sessions, and
//   (2) its problem ratio is significantly elevated:
//       problem_ratio >= ratio_multiplier * global problem ratio.
// The paper uses min_sessions = 1000 (at 300M total sessions) and
// ratio_multiplier = 1.5 (~two standard deviations of the per-cluster
// ratio distribution).

#pragma once

#include <cstdint>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/session.h"

namespace vq {

struct ProblemClusterParams {
  double ratio_multiplier = 1.5;
  std::uint32_t min_sessions = 1000;
};

/// Significance test (condition 1) alone.
[[nodiscard]] constexpr bool is_significant(
    const ClusterStats& stats, const ProblemClusterParams& params) noexcept {
  return stats.sessions >= params.min_sessions;
}

/// Throws std::invalid_argument when `params.min_sessions` is below the
/// floor `table` was pruned at (EpochClusterTable::floor): such a table
/// lacks cells the analysis would count as significant.  `caller` names
/// the analysis in the message.
void require_floor(const EpochClusterTable& table,
                   const ProblemClusterParams& params, const char* caller);

/// Full problem-cluster test: significance + elevated ratio.
[[nodiscard]] bool is_problem_cluster(const ClusterStats& stats,
                                      double global_ratio,
                                      const ProblemClusterParams& params,
                                      Metric metric) noexcept;

/// One identified problem cluster within an epoch.
struct ProblemCluster {
  ClusterKey key;
  ClusterStats stats;
};

/// Extracts every problem cluster of one epoch for the given metric
/// (dense-id order).  Throws std::invalid_argument when params.min_sessions
/// is below table.floor.
[[nodiscard]] std::vector<ProblemCluster> find_problem_clusters(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    Metric metric);

/// Number of this epoch's problem sessions that belong to at least one
/// problem cluster (the "problem cluster coverage" numerator of Table 1).
/// `sessions` must be the same span the table was aggregated from.  Throws
/// std::invalid_argument when params.min_sessions is below table.floor.
[[nodiscard]] std::uint64_t problem_sessions_covered(
    std::span<const Session> sessions, const EpochClusterTable& table,
    const ProblemThresholds& thresholds, const ProblemClusterParams& params,
    Metric metric);

}  // namespace vq

#include "src/core/problem_cluster.h"

#include <stdexcept>
#include <string>

#include "src/util/flat_hash_map.h"

namespace vq {

void require_floor(const EpochClusterTable& table,
                   const ProblemClusterParams& params, const char* caller) {
  if (params.min_sessions < table.floor) {
    throw std::invalid_argument{
        std::string{caller} + ": min_sessions " +
        std::to_string(params.min_sessions) +
        " is below the floor the lattice was pruned at (" +
        std::to_string(table.floor) + ")"};
  }
}

bool is_problem_cluster(const ClusterStats& stats, double global_ratio,
                        const ProblemClusterParams& params,
                        Metric metric) noexcept {
  if (!is_significant(stats, params)) return false;
  const double threshold = params.ratio_multiplier * global_ratio;
  // With a zero global ratio any problem at all is "elevated"; require at
  // least one problem session so all-clean clusters are never flagged.
  if (threshold <= 0.0) {
    return stats.problems[static_cast<std::uint8_t>(metric)] > 0;
  }
  return stats.problem_ratio(metric) >= threshold;
}

std::vector<ProblemCluster> find_problem_clusters(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    Metric metric) {
  require_floor(table, params, "find_problem_clusters");
  std::vector<ProblemCluster> out;
  const double global = table.global_ratio(metric);
  table.clusters.for_each(
      [&](std::uint64_t raw, const ClusterStats& stats) {
        if (is_problem_cluster(stats, global, params, metric)) {
          out.push_back({ClusterKey::from_raw(raw), stats});
        }
      });
  return out;
}

std::uint64_t problem_sessions_covered(std::span<const Session> sessions,
                                       const EpochClusterTable& table,
                                       const ProblemThresholds& thresholds,
                                       const ProblemClusterParams& params,
                                       Metric metric) {
  require_floor(table, params, "problem_sessions_covered");
  const double global = table.global_ratio(metric);
  // Memoise the covered/not decision per distinct leaf: all sessions with
  // identical attributes share the same lattice cells.
  FlatMap64<std::uint8_t> leaf_covered;  // 0 = unknown, 1 = no, 2 = yes
  std::uint64_t covered = 0;
  for (const Session& s : sessions) {
    if (!thresholds.is_problem(metric, s.quality)) continue;
    const ClusterKey leaf = ClusterKey::pack(kFullMask, s.attrs);
    std::uint8_t& memo = leaf_covered[leaf.raw()];
    if (memo == 0) {
      memo = 1;
      for (unsigned mask = 1; mask <= kFullMask; ++mask) {
        const ClusterStats stats =
            table.stats(leaf.project(static_cast<std::uint8_t>(mask)));
        if (is_problem_cluster(stats, global, params, metric)) {
          memo = 2;
          break;
        }
      }
    }
    if (memo == 2) ++covered;
  }
  return covered;
}

}  // namespace vq

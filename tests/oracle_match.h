// The comparison boundary between the engine and the brute-force oracle
// (tests/oracle.h).  Engine keys are decoded here to the oracle's (subset,
// tuple) form and engine counters to its counts, so the oracle itself
// never sees a ClusterKey.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "tests/check_analysis.h"
#include "tests/oracle.h"

namespace vq::test {

[[nodiscard]] inline oracle::Cluster decode(std::uint64_t raw) {
  const ClusterKey key = ClusterKey::from_raw(raw);
  oracle::Cluster c;
  c.subset = key.mask();
  for (int d = 0; d < kNumDims; ++d) {
    const auto dim = static_cast<AttrDim>(d);
    if (key.has(dim)) c.values[d] = key.value(dim);
  }
  return c;
}

[[nodiscard]] inline oracle::Counts counts(const ClusterStats& s) {
  oracle::Counts c;
  c.sessions = s.sessions;
  for (int m = 0; m < kNumMetrics; ++m) c.problems[m] = s.problems[m];
  return c;
}

/// How far an engine mass may sit from the oracle's.  The engine adds one
/// share p/k per leaf, in ascending packed-key order; the oracle adds
/// n_k/k per share size k, at most 35 of them.  Either is a sum of n
/// positive terms, each rounded once, of exact value x, so it lies within
/// gamma_n * x of x, where gamma_n = n u / (1 - n u) and u = DBL_EPSILON / 2
/// (Higham, Accuracy and Stability of Numerical Algorithms, §4.2).  With
/// `terms` bounding the engine's n, the two differ by at most about
/// (terms + 36) u x; the bound allows twice that.
[[nodiscard]] inline double mass_bound(std::uint64_t terms, double exact) {
  return static_cast<double>(terms + 40) * DBL_EPSILON * exact;
}

/// The table's cells against the oracle's lattice: exactly the clusters
/// with sessions >= table.floor (all of them for a full lattice), with
/// equal counts, each resolving to its own id (so no key repeats).
inline void expect_cells_match(const EpochClusterTable& table,
                               const oracle::Lattice& want) {
  EXPECT_EQ(counts(table.root), want.root);
  std::size_t cells = 0;
  for (const auto& per_subset : want.clusters) {
    for (const auto& [values, c] : per_subset) {
      cells += c.sessions >= table.floor ? 1 : 0;
    }
  }
  EXPECT_EQ(table.clusters.size(), cells);
  std::size_t mismatched = 0;
  for (std::uint32_t id = 0; id < table.clusters.size(); ++id) {
    const std::uint64_t raw = table.clusters.key(id);
    const oracle::Cluster c = decode(raw);
    const auto& per_subset = want.clusters[c.subset];
    const auto it = per_subset.find(c.values);
    const bool ok = it != per_subset.end() &&
                    it->second == counts(table.clusters.cell(id)) &&
                    it->second.sessions >= table.floor &&
                    table.clusters.id_of(raw) == id;
    mismatched += ok ? 0 : 1;
  }
  EXPECT_EQ(mismatched, 0u);
}

/// The leaf index's shape: one group number per leaf, groups numbered in
/// the order their first leaf appears (so each has a leaf), and one member
/// list per cell, the lists tiling cell_rows exactly, each strictly
/// ascending over existing groups.
inline void expect_index_shape(const EpochClusterTable& table) {
  const LeafCellIndex& index = table.leaf_index;
  ASSERT_EQ(index.leaf_group.size(), index.num_leaves());
  std::size_t next = 0;  // the number the next new group must carry
  std::size_t misnumbered = 0;
  for (const std::uint32_t g : index.leaf_group) {
    if (g == next) ++next;
    misnumbered += g < next ? 0 : 1;
  }
  EXPECT_EQ(misnumbered, 0u);
  EXPECT_EQ(next, index.num_groups());
  ASSERT_EQ(index.member_bounds.size(), table.clusters.size());
  std::vector<std::pair<std::size_t, std::size_t>> bounds =
      index.member_bounds;
  std::sort(bounds.begin(), bounds.end());
  std::size_t at = 0;
  std::size_t gaps = 0;
  for (const auto& [begin, end] : bounds) {
    gaps += begin == at && end > begin ? 0 : 1;
    at = end;
  }
  EXPECT_EQ(gaps, 0u);
  EXPECT_EQ(at, index.cell_rows.size());
  std::size_t unordered = 0;
  for (std::uint32_t id = 0; id < table.clusters.size(); ++id) {
    const std::span<const std::uint32_t> members = index.members(id);
    for (std::size_t k = 0; k < members.size(); ++k) {
      const bool ok = members[k] < index.num_groups() &&
                      (k == 0 || members[k - 1] < members[k]);
      unordered += ok ? 0 : 1;
    }
  }
  EXPECT_EQ(unordered, 0u);
}

/// The leaf index against the sessions: its shape, one leaf per distinct
/// attribute tuple with its counts, and the membership relation: each
/// cell's member groups, expanded to their leaves, are exactly the leaves
/// the oracle puts in that cluster, and every cluster with sessions >=
/// table.floor has a cell.
inline void expect_index_matches(const EpochClusterTable& table,
                                 std::span<const Session> sessions,
                                 const oracle::Lattice& lattice,
                                 int max_arity) {
  const LeafCellIndex& index = table.leaf_index;
  const std::map<oracle::Tuple, oracle::Counts> leaves =
      oracle::count_clusters(sessions, ProblemThresholds{},
                             oracle::kAllAttributes);
  ASSERT_EQ(index.num_leaves(), leaves.size());
  expect_index_shape(table);
  const std::vector<oracle::Subset> subsets =
      oracle::cluster_subsets(max_arity);
  std::set<oracle::Tuple> seen;
  // The oracle's member leaves of every cluster that reaches the floor, by
  // leaf index.
  std::map<oracle::Cluster, std::vector<std::uint32_t>> member_leaves;
  std::size_t mismatched = 0;
  for (std::uint32_t i = 0; i < index.num_leaves(); ++i) {
    const oracle::Cluster leaf = decode(index.leaf_keys[i]);
    const auto it = leaves.find(leaf.values);
    if (leaf.subset != oracle::kAllAttributes || it == leaves.end() ||
        !(it->second == counts(index.leaf_stats[i])) ||
        !seen.insert(leaf.values).second) {
      ++mismatched;
      continue;
    }
    for (const oracle::Subset s : subsets) {
      const oracle::Tuple values = oracle::values_over(leaf.values, s);
      if (lattice.clusters[s].at(values).sessions >= table.floor) {
        member_leaves[{s, values}].push_back(i);
      }
    }
  }
  EXPECT_EQ(mismatched, 0u);
  if (mismatched != 0) return;

  std::vector<std::vector<std::uint32_t>> group_leaves(index.num_groups());
  for (std::uint32_t i = 0; i < index.num_leaves(); ++i) {
    group_leaves[index.leaf_group[i]].push_back(i);
  }
  EXPECT_EQ(member_leaves.size(), table.clusters.size());
  std::size_t wrong_members = 0;
  for (std::uint32_t id = 0; id < table.clusters.size(); ++id) {
    std::vector<std::uint32_t> got;
    for (const std::uint32_t g : index.members(id)) {
      if (g >= group_leaves.size()) {
        got.push_back(~std::uint32_t{0});
        continue;
      }
      got.insert(got.end(), group_leaves[g].begin(), group_leaves[g].end());
    }
    std::sort(got.begin(), got.end());
    const auto it = member_leaves.find(decode(table.clusters.key(id)));
    wrong_members += it != member_leaves.end() && it->second == got ? 0 : 1;
  }
  EXPECT_EQ(wrong_members, 0u);
}

/// Totals of what the oracle found, to show a comparison is not vacuous.
struct Found {
  std::size_t problem_clusters = 0;
  std::size_t criticals = 0;
};

/// One engine analysis against the oracle's, plus the invariant pass:
/// integer fields, problem-cluster and critical-cluster sets and critical
/// counts exactly, masses within mass_bound.
inline void expect_analysis_matches(const CriticalAnalysis& a,
                                    const oracle::EpochAnalysis& o,
                                    std::uint32_t epoch, Metric metric,
                                    std::uint32_t floor,
                                    Found* found = nullptr) {
  SCOPED_TRACE("epoch " + std::to_string(epoch) + " " +
               std::string{metric_name(metric)});
  const oracle::MetricAnalysis& want =
      o.metrics[static_cast<std::uint8_t>(metric)];
  EXPECT_EQ(a.epoch, epoch);
  EXPECT_EQ(a.metric, metric);
  EXPECT_EQ(a.sessions, o.lattice.root.sessions);
  EXPECT_EQ(a.problem_sessions, want.problem_sessions);
  EXPECT_EQ(a.problem_sessions_in_pc, want.problem_sessions_in_pc);
  EXPECT_EQ(a.global_ratio, want.global_ratio);
  EXPECT_EQ(a.num_problem_clusters, want.problem_clusters.size());
  std::vector<oracle::Cluster> problem_clusters;
  problem_clusters.reserve(a.problem_cluster_keys.size());
  for (const std::uint64_t raw : a.problem_cluster_keys) {
    problem_clusters.push_back(decode(raw));
  }
  std::sort(problem_clusters.begin(), problem_clusters.end());
  EXPECT_TRUE(std::equal(problem_clusters.begin(), problem_clusters.end(),
                         want.problem_clusters.begin(),
                         want.problem_clusters.end()));

  ASSERT_EQ(a.criticals.size(), want.criticals.size());
  std::uint64_t shares = 0;
  for (const CriticalRecord& c : a.criticals) {
    const auto it = want.criticals.find(decode(c.key.raw()));
    ASSERT_NE(it, want.criticals.end()) << "critical " << c.key.raw();
    const oracle::CriticalCluster& w = it->second;
    EXPECT_EQ(counts(c.stats), w.counts);
    EXPECT_NEAR(c.attributed, w.mass(), mass_bound(w.sessions(), w.mass()));
    shares += w.sessions();
  }
  const auto total = static_cast<double>(want.attributed_sessions);
  EXPECT_NEAR(a.attributed_mass, total,
              mass_bound(shares + a.criticals.size(), total));
  EXPECT_EQ(check_analysis(a, floor), "");
  if (found != nullptr) {
    found->problem_clusters += want.problem_clusters.size();
    found->criticals += want.criticals.size();
  }
}

}  // namespace vq::test

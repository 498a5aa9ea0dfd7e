// A brute-force reference for the paper's §3.1 and §3.2, for tests only.
//
// The oracle restates the definitions over raw Session rows and shares no
// code with the engine it checks: no packed cluster keys, no leaf fold, no
// cell store, no floor pruning, and none of the engine's predicates.  For
// one epoch it builds one std::map per attribute subset of at most
// max_arity attributes, keyed on the tuple of the subset's attribute
// values, and derives everything else from those maps:
//
//  * §3.1 problem clusters.  A cluster is significant when it holds at
//    least min_sessions sessions.  A significant cluster is a problem
//    cluster for a metric when its problem ratio is at least
//    ratio_multiplier times the epoch's global ratio; when that product is
//    0, any problem session at all makes it one.  Ratios are compared in
//    double precision, as the engine defines the test, so a ratio that
//    sits exactly on 1.5x the global ratio is decided the same way.
//  * §3.2 critical clusters.  For each problem session, an attribute
//    subset m of the session's attributes is a candidate when
//      (a) the session's cluster over m is a problem cluster,
//      (b) every significant cluster of the session over a strict
//          superset of m is a problem cluster, and
//      (c) for every non-empty strict subset a of m, the session's
//          cluster over a, minus the sessions of the cluster over m, is no
//          problem cluster.
//    The candidates minimal by inclusion share the session's unit of
//    problem mass equally.
//
// A critical cluster's mass is kept as per-share buckets: n_k problem
// sessions each gave it 1/k.  The exact mass is the sum of n_k / k, which
// mass() rounds with at most 36 floating-point operations (an antichain of
// the 7-attribute subset lattice has at most C(7, 3) = 35 members, so k <=
// 35), and the exact total over all critical clusters is the integer
// attributed_sessions.
//
// It is slow on purpose: one map lookup per session and subset, and every
// condition evaluated per problem session.  It is meant for worlds of a
// few thousand sessions.

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "src/core/session.h"

namespace vq::oracle {

/// An attribute subset: bit d is set when dimension d (in AttrDim order)
/// is one of the cluster's attributes.
using Subset = unsigned;

inline constexpr Subset kAllAttributes = (1u << kNumDims) - 1;

/// A cluster's attribute values in dimension order; dimensions outside its
/// subset hold 0.
using Tuple = std::array<std::uint16_t, kNumDims>;

struct Cluster {
  Subset subset = 0;
  Tuple values{};

  friend auto operator<=>(const Cluster&, const Cluster&) = default;
};

/// Session and per-metric problem-session counts of a set of sessions.
struct Counts {
  std::uint64_t sessions = 0;
  std::array<std::uint64_t, kNumMetrics> problems{};

  Counts& operator+=(const Counts& o) {
    sessions += o.sessions;
    for (int m = 0; m < kNumMetrics; ++m) problems[m] += o.problems[m];
    return *this;
  }
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct Params {
  ProblemThresholds thresholds;
  double ratio_multiplier = 1.5;
  std::uint64_t min_sessions = 1000;
  int max_arity = kNumDims;
};

struct CriticalCluster {
  Counts counts;  // the cluster's own counts
  /// k -> the problem sessions that split their unit of mass among k
  /// minimal candidates, this cluster among them.
  std::map<std::size_t, std::uint64_t> sessions_by_share;

  /// Problem sessions that gave this cluster a share.
  [[nodiscard]] std::uint64_t sessions() const {
    std::uint64_t n = 0;
    for (const auto& [k, count] : sessions_by_share) n += count;
    return n;
  }
  /// The sum of n_k / k, with at most 36 roundings (see the file comment).
  [[nodiscard]] double mass() const {
    double total = 0.0;
    for (const auto& [k, count] : sessions_by_share) {
      total += static_cast<double>(count) / static_cast<double>(k);
    }
    return total;
  }
};

struct MetricAnalysis {
  std::uint64_t problem_sessions = 0;
  /// Problem sessions that belong to at least one problem cluster.
  std::uint64_t problem_sessions_in_pc = 0;
  double global_ratio = 0.0;
  std::set<Cluster> problem_clusters;
  std::map<Cluster, CriticalCluster> criticals;
  /// Problem sessions with at least one candidate: the exact total mass.
  std::uint64_t attributed_sessions = 0;
};

/// One epoch's clusters, aggregated session by session.
struct Lattice {
  Counts root;  // every session of the epoch
  /// clusters[s] maps each tuple of subset s to its counts; filled for the
  /// non-empty subsets of at most max_arity attributes only.
  std::array<std::map<Tuple, Counts>, kAllAttributes + 1> clusters;
};

struct EpochAnalysis {
  Lattice lattice;
  std::array<MetricAnalysis, kNumMetrics> metrics;
};

/// The values of `attrs` (a session's, or a cluster's) over `subset`.
[[nodiscard]] inline Tuple values_over(const Tuple& attrs, Subset subset) {
  Tuple t{};
  for (int d = 0; d < kNumDims; ++d) {
    if ((subset >> d) & 1u) t[d] = attrs[d];
  }
  return t;
}

/// One session's contribution to the counts of every cluster it is in.
[[nodiscard]] inline Counts counts_of(const Session& s,
                                      const ProblemThresholds& thresholds) {
  Counts c;
  c.sessions = 1;
  for (const Metric m : kAllMetrics) {
    c.problems[static_cast<std::uint8_t>(m)] =
        thresholds.is_problem(m, s.quality) ? 1 : 0;
  }
  return c;
}

/// The clusters over one attribute subset: tuple -> counts.
[[nodiscard]] inline std::map<Tuple, Counts> count_clusters(
    std::span<const Session> sessions, const ProblemThresholds& thresholds,
    Subset subset) {
  std::map<Tuple, Counts> out;
  for (const Session& s : sessions) {
    out[values_over(s.attrs.v, subset)] += counts_of(s, thresholds);
  }
  return out;
}

/// The subsets the analysis considers: non-empty, at most max_arity
/// attributes, ascending.
[[nodiscard]] inline std::vector<Subset> cluster_subsets(int max_arity) {
  std::vector<Subset> out;
  for (Subset s = 1; s <= kAllAttributes; ++s) {
    if (std::popcount(s) <= max_arity) out.push_back(s);
  }
  return out;
}

/// §3.1: significance, then the ratio test against the global ratio.
[[nodiscard]] inline bool is_problem(const Counts& c, int metric,
                                     double global_ratio,
                                     const Params& params) {
  if (c.sessions == 0 || c.sessions < params.min_sessions) return false;
  const double threshold = params.ratio_multiplier * global_ratio;
  if (threshold <= 0.0) return c.problems[metric] > 0;
  return static_cast<double>(c.problems[metric]) /
             static_cast<double>(c.sessions) >=
         threshold;
}

/// §3.2 conditions (a)-(c) for subset m of one session, given the counts
/// of the session's cluster over every subset (null where the subset is
/// not considered).
[[nodiscard]] inline bool is_candidate(
    Subset m, const std::array<const Counts*, kAllAttributes + 1>& cell,
    int metric, double global_ratio, const Params& params) {
  const auto problem = [&](const Counts& c) {
    return is_problem(c, metric, global_ratio, params);
  };
  if (cell[m] == nullptr || !problem(*cell[m])) return false;  // (a)
  for (Subset s = 1; s <= kAllAttributes; ++s) {
    const bool strict_superset = (s & m) == m && s != m;
    if (!strict_superset || cell[s] == nullptr) continue;
    if (cell[s]->sessions >= params.min_sessions && !problem(*cell[s])) {
      return false;  // (b)
    }
  }
  for (Subset a = 1; a < m; ++a) {
    if ((a & m) != a) continue;
    Counts remaining = *cell[a];
    remaining.sessions -= cell[m]->sessions;
    for (int k = 0; k < kNumMetrics; ++k) {
      remaining.problems[k] -= cell[m]->problems[k];
    }
    if (problem(remaining)) return false;  // (c)
  }
  return true;
}

/// The root and every cluster over the subsets of at most max_arity
/// attributes.
[[nodiscard]] inline Lattice aggregate(std::span<const Session> sessions,
                                       const ProblemThresholds& thresholds,
                                       int max_arity) {
  Lattice out;
  for (const Session& s : sessions) out.root += counts_of(s, thresholds);
  for (const Subset subset : cluster_subsets(max_arity)) {
    out.clusters[subset] = count_clusters(sessions, thresholds, subset);
  }
  return out;
}

[[nodiscard]] inline EpochAnalysis analyze_epoch(
    std::span<const Session> sessions, const Params& params) {
  EpochAnalysis out;
  out.lattice = aggregate(sessions, params.thresholds, params.max_arity);
  const Counts& root = out.lattice.root;
  auto& clusters = out.lattice.clusters;
  const std::vector<Subset> subsets = cluster_subsets(params.max_arity);

  for (int metric = 0; metric < kNumMetrics; ++metric) {
    MetricAnalysis& a = out.metrics[metric];
    a.problem_sessions = root.problems[metric];
    a.global_ratio = root.sessions == 0
                         ? 0.0
                         : static_cast<double>(root.problems[metric]) /
                               static_cast<double>(root.sessions);
    for (const Subset subset : subsets) {
      for (const auto& [values, counts] : clusters[subset]) {
        if (is_problem(counts, metric, a.global_ratio, params)) {
          a.problem_clusters.insert(Cluster{subset, values});
        }
      }
    }
  }

  for (const Session& s : sessions) {
    const Counts own = counts_of(s, params.thresholds);
    std::array<const Counts*, kAllAttributes + 1> cell{};
    for (const Subset subset : subsets) {
      cell[subset] = &clusters[subset].at(values_over(s.attrs.v, subset));
    }
    for (int metric = 0; metric < kNumMetrics; ++metric) {
      if (own.problems[metric] == 0) continue;
      MetricAnalysis& a = out.metrics[metric];
      bool in_problem_cluster = false;
      std::vector<Subset> candidates;
      for (const Subset m : subsets) {
        if (is_problem(*cell[m], metric, a.global_ratio, params)) {
          in_problem_cluster = true;
        }
        if (is_candidate(m, cell, metric, a.global_ratio, params)) {
          candidates.push_back(m);
        }
      }
      if (in_problem_cluster) ++a.problem_sessions_in_pc;
      std::vector<Subset> minimal;
      for (const Subset m : candidates) {
        bool has_smaller = false;
        for (const Subset other : candidates) {
          has_smaller = has_smaller || (other != m && (other & m) == other);
        }
        if (!has_smaller) minimal.push_back(m);
      }
      if (minimal.empty()) continue;
      ++a.attributed_sessions;
      for (const Subset m : minimal) {
        CriticalCluster& c =
            a.criticals[Cluster{m, values_over(s.attrs.v, m)}];
        c.counts = *cell[m];
        c.sessions_by_share[minimal.size()] += 1;
      }
    }
  }
  return out;
}

}  // namespace vq::oracle

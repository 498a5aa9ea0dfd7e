// Invariants every CriticalAnalysis must satisfy, whatever produced it.
//
// check_analysis reads nothing but the analysis itself, so tests can run it
// on outputs too large for the brute-force oracle (tests/oracle.h).  It
// checks that
//  * every critical cluster is a problem cluster of the epoch with at least
//    min_sessions sessions, and carries positive mass;
//  * problem_cluster_keys is ascending and unique, and num_problem_clusters
//    is its size;
//  * criticals are sorted by (mass descending, key ascending) with unique
//    keys, and their masses, summed in that order, give attributed_mass;
//  * attributed_mass <= problem_sessions_in_pc <= problem_sessions.
//
// The last check allows the rounding of the mass sum: attributed_mass sums
// at most one share per (problem session, candidate) pair, so its relative
// error is below 1e-9 for any epoch under 10^6 problem sessions.
//
// Returns "" when every invariant holds, otherwise one line per violation,
// so a test reads EXPECT_EQ(test::check_analysis(a, floor), "").

#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/critical_cluster.h"

namespace vq::test {

[[nodiscard]] inline std::string check_analysis(const CriticalAnalysis& a,
                                                std::uint32_t min_sessions) {
  std::ostringstream out;
  const auto& keys = a.problem_cluster_keys;
  if (std::adjacent_find(keys.begin(), keys.end(),
                         [](std::uint64_t x, std::uint64_t y) {
                           return x >= y;
                         }) != keys.end()) {
    out << "problem_cluster_keys not ascending and unique\n";
  }
  if (a.num_problem_clusters != keys.size()) {
    out << "num_problem_clusters " << a.num_problem_clusters << " != "
        << keys.size() << " problem_cluster_keys\n";
  }

  double mass = 0.0;
  for (std::size_t i = 0; i < a.criticals.size(); ++i) {
    const CriticalRecord& c = a.criticals[i];
    if (!std::binary_search(keys.begin(), keys.end(), c.key.raw())) {
      out << "critical " << c.key.raw() << " is no problem cluster\n";
    }
    if (c.stats.sessions < min_sessions) {
      out << "critical " << c.key.raw() << " has " << c.stats.sessions
          << " sessions, below " << min_sessions << "\n";
    }
    if (!(c.attributed > 0.0)) {
      out << "critical " << c.key.raw() << " has no mass\n";
    }
    if (i > 0) {
      const CriticalRecord& p = a.criticals[i - 1];
      const bool ordered =
          p.attributed > c.attributed ||
          (p.attributed == c.attributed && p.key.raw() < c.key.raw());
      if (!ordered) out << "criticals out of order at " << i << "\n";
    }
    mass += c.attributed;
  }
  if (mass != a.attributed_mass) {
    out << "critical masses sum to " << mass << ", attributed_mass is "
        << a.attributed_mass << "\n";
  }

  const auto in_pc = static_cast<double>(a.problem_sessions_in_pc);
  if (a.attributed_mass > in_pc * (1.0 + 1e-9)) {
    out << "attributed_mass " << a.attributed_mass
        << " > problem_sessions_in_pc " << a.problem_sessions_in_pc << "\n";
  }
  if (a.problem_sessions_in_pc > a.problem_sessions) {
    out << "problem_sessions_in_pc " << a.problem_sessions_in_pc
        << " > problem_sessions " << a.problem_sessions << "\n";
  }
  return out.str();
}

}  // namespace vq::test

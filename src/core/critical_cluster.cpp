#include "src/core/critical_cluster.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>
#include <utility>

#include "src/core/mask_bits.h"
#include "src/obs/trace.h"

namespace vq {

namespace detail {

void finalize_critical_analysis(CriticalAnalysis& out) {
  std::sort(out.criticals.begin(), out.criticals.end(),
            [](const CriticalRecord& a, const CriticalRecord& b) {
              if (a.attributed != b.attributed) {
                return a.attributed > b.attributed;
              }
              return a.key.raw() < b.key.raw();
            });
  out.attributed_mass = 0.0;
  for (const CriticalRecord& rec : out.criticals) {
    out.attributed_mass += rec.attributed;
  }
}

}  // namespace detail

namespace {

using detail::MaskBits;
using detail::filter_minimal;
using detail::strict_subset_or;
using detail::strict_superset_or;

constexpr int kNumMasks = kFullMask + 1;  // 128 subsets incl. root

void fill_header(CriticalAnalysis& out, const EpochClusterTable& table,
                 Metric metric) {
  out.epoch = table.epoch;
  out.metric = metric;
  out.sessions = table.root.sessions;
  out.problem_sessions =
      table.root.problems[static_cast<std::uint8_t>(metric)];
  out.global_ratio = table.global_ratio(metric);
}

/// Condition (c) of a flagged cell, for each metric flagged in `word`.
std::uint16_t removal_flags(const EpochClusterTable& table, std::uint64_t raw,
                            const ClusterStats& stats, std::uint16_t word,
                            const std::array<double, kNumMetrics>& global,
                            const ProblemClusterParams& params) {
  std::uint16_t ok = 0;
  for (int m = 0; m < kNumMetrics; ++m) {
    if (word & cell_word::flagged(m)) ok |= cell_word::removal_ok(m);
  }
  const ClusterKey key = ClusterKey::from_raw(raw);
  const unsigned mu = raw & kFullMask;
  for (unsigned a = (mu - 1) & mu; a != 0 && ok != 0; a = (a - 1) & mu) {
    const ClusterStats remaining =
        table.stats(key.project(static_cast<std::uint8_t>(a))).minus(stats);
    for (int m = 0; m < kNumMetrics; ++m) {
      if ((ok & cell_word::removal_ok(m)) &&
          is_problem_cluster(remaining, global[m], params,
                             static_cast<Metric>(m))) {
        ok &= static_cast<std::uint16_t>(~cell_word::removal_ok(m));
      }
    }
  }
  return ok;
}

}  // namespace

void compute_cell_flags(const EpochClusterTable& table,
                        const ProblemClusterParams& params, MetricSet metrics,
                        std::vector<std::uint16_t>& words) {
  VQ_SPAN_EPOCH("core.compute_cell_flags", table.epoch);
  require_floor(table, params, "compute_cell_flags");
  std::array<double, kNumMetrics> global{};
  for (const Metric m : kAllMetrics) {
    global[static_cast<std::uint8_t>(m)] = table.global_ratio(m);
  }
  const CellStore& cells = table.clusters;
  words.assign(cells.size(), 0);
  for (std::uint32_t id = 0; id < cells.size(); ++id) {
    const ClusterStats& stats = cells.cell(id);
    // Significance is a precondition of the problem test; only significant
    // cells can be flagged, and the sweep reads nothing else of the others.
    if (!is_significant(stats, params)) continue;
    const std::uint64_t raw = cells.key(id);
    auto word = static_cast<std::uint16_t>((raw & cell_word::kMask) |
                                           cell_word::kSignificant);
    for (int m = 0; m < kNumMetrics; ++m) {
      if (((metrics >> m) & 1u) &&
          is_problem_cluster(stats, global[m], params,
                             static_cast<Metric>(m))) {
        word |= cell_word::flagged(m);
      }
    }
    if (word & cell_word::kAnyFlagged) {
      word |= removal_flags(table, raw, stats, word, global, params);
    }
    words[id] = word;
  }
}

namespace {

/// The minimal candidates of one (row group, metric) from the group's mask
/// sets: the flagged masks (a) with no significant unflagged strict
/// superset (b) that pass (c), minimal by inclusion ("closest to the
/// root").
MaskBits minimal_candidates(const MaskBits& significant,
                            const MaskBits& flagged,
                            const MaskBits& removal_ok) {
  const MaskBits veto = strict_superset_or(
      {significant.lo & ~flagged.lo, significant.hi & ~flagged.hi});
  MaskBits candidates{flagged.lo & ~veto.lo & removal_ok.lo,
                      flagged.hi & ~veto.hi & removal_ok.hi};
  if (!candidates.any()) return candidates;
  const MaskBits below = strict_subset_or(candidates);
  candidates.lo &= ~below.lo;
  candidates.hi &= ~below.hi;
  return candidates;
}

/// Calls fn(mask) for every mask in `set`, in ascending order.
template <typename Fn>
void for_each_mask(const MaskBits& set, Fn&& fn) {
  for (int half = 0; half < 2; ++half) {
    for (std::uint64_t bits = half == 0 ? set.lo : set.hi; bits != 0;
         bits &= bits - 1) {
      fn(static_cast<std::uint8_t>(64 * half + std::countr_zero(bits)));
    }
  }
}

/// A leaf's share of each of its candidates: its problem sessions split
/// equally among them.
double share_of(std::uint32_t problems, const MaskBits& candidates) {
  return static_cast<double>(problems) /
         static_cast<double>(std::popcount(candidates.lo) +
                             std::popcount(candidates.hi));
}

/// The member lists lie in cell_rows in the order the cube emitted the
/// cells, not in id order, so a pass over the cells by id reads each list
/// from an unrelated place.  The passes prefetch the list of the cell
/// kPrefetchAhead places ahead, so that its cache miss overlaps the work
/// on the cells between.
constexpr std::size_t kPrefetchAhead = 16;

void prefetch_members(const LeafCellIndex& index, std::uint32_t id) {
  __builtin_prefetch(index.cell_rows.data() + index.member_bounds[id].first);
}

/// ORs `mask`'s bit into sets[g] for every group g in `groups`.
void scatter_mask(std::span<const std::uint32_t> groups, unsigned mask,
                  std::vector<MaskBits>& sets) {
  const std::uint64_t bit = std::uint64_t{1} << (mask & 63);
  if (mask < 64) {
    for (const std::uint32_t g : groups) sets[g].lo |= bit;
  } else {
    for (const std::uint32_t g : groups) sets[g].hi |= bit;
  }
}

}  // namespace

void CriticalSweep::sweep_metric(const EpochClusterTable& table, int m,
                                 CriticalAnalysis& out) {
  const LeafCellIndex& index = table.leaf_index;
  const CellStore& cells = table.clusters;
  flagged_.assign(index.num_groups(), {});
  removal_ok_.assign(index.num_groups(), {});
  const std::vector<std::uint32_t>& flagged = flagged_cells_[m];
  for (std::size_t k = 0; k < flagged.size(); ++k) {
    if (k + kPrefetchAhead < flagged.size()) {
      prefetch_members(index, flagged[k + kPrefetchAhead]);
    }
    const std::uint32_t id = flagged[k];
    const std::uint16_t word = words_[id];
    const unsigned mask = word & cell_word::kMask;
    scatter_mask(index.members(id), mask, flagged_);
    if (word & cell_word::removal_ok(m)) {
      scatter_mask(index.members(id), mask, removal_ok_);
    }
  }

  const auto bit = static_cast<std::uint8_t>(1u << m);
  for (std::size_t i = 0; i < index.num_leaves(); ++i) {
    const std::uint32_t problems = index.leaf_stats[i].problems[m];
    if (problems == 0) continue;
    const std::uint32_t g = index.leaf_group[i];
    if (!flagged_[g].any()) continue;  // (a)
    out.problem_sessions_in_pc += problems;
    // The group's first leaf with problem sessions replaces its (c) set
    // with its candidates, which every later leaf of the group reads.
    if (!(solved_[g] & bit)) {
      removal_ok_[g] =
          minimal_candidates(significant_[g], flagged_[g], removal_ok_[g]);
      solved_[g] |= bit;
    }
    const MaskBits candidates = removal_ok_[g];
    if (!candidates.any()) continue;
    const double share = share_of(problems, candidates);
    const ClusterKey leaf = ClusterKey::from_raw(index.leaf_keys[i]);
    for_each_mask(candidates, [&](std::uint8_t mask) {
      const std::uint32_t id = cells.id_of(leaf.project(mask).raw());
      assert(id != CellStore::kNoCell);
      attribute(id, share);
    });
  }
}

void CriticalSweep::attribute(std::uint32_t id, double share) {
  if (attribution_[id] == 0.0) touched_.push_back(id);
  attribution_[id] += share;  // share > 0, so touched_ stays accurate
}

void CriticalSweep::sort_problem_keys(std::vector<std::uint64_t>& keys) {
  // The keys come in cell id order: ascending by mask, the low key bits,
  // and ascending within a mask.  A stable radix sort by the bits above the
  // mask therefore leaves them in raw order, in a few linear passes; on a
  // floor-1 lattice's lists it takes under half the time of std::sort.
  // Lists below the measured crossover sort faster by comparison.
  const std::size_t n = keys.size();
  if (n < detail::kRadixMinProblemKeys) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  if (key_scratch_.size() < n) key_scratch_.resize(n);
  if (detail::radix_sort_keys(keys.data(), key_scratch_.data(), n) !=
      keys.data()) {
    std::copy_n(key_scratch_.data(), n, keys.data());
  }
}

std::array<CriticalAnalysis, kNumMetrics> CriticalSweep::run(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    MetricSet metrics) {
  VQ_SPAN_EPOCH("core.find_critical_clusters", table.epoch);
  if (table.leaf_index.empty() && !table.clusters.empty()) {
    throw std::invalid_argument{
        "find_critical_clusters: the table has cells but no leaf index"};
  }
  std::array<CriticalAnalysis, kNumMetrics> out;

  compute_cell_flags(table, params, metrics, words_);
  const LeafCellIndex& index = table.leaf_index;
  const CellStore& cells = table.clusters;

  // One pass over the cells: each significant cell's mask goes to the
  // groups it holds, and a flagged cell to its metrics' lists and problem
  // clusters.
  significant_.assign(index.num_groups(), {});
  solved_.assign(index.num_groups(), 0);
  for (std::vector<std::uint32_t>& list : flagged_cells_) list.clear();
  for (std::uint32_t id = 0; id < cells.size(); ++id) {
    if (id + kPrefetchAhead < cells.size()) {
      prefetch_members(index, id + kPrefetchAhead);
    }
    const std::uint16_t word = words_[id];
    if (!(word & cell_word::kSignificant)) continue;
    scatter_mask(index.members(id), word & cell_word::kMask, significant_);
    for (int m = 0; m < kNumMetrics; ++m) {
      if (word & cell_word::flagged(m)) {
        flagged_cells_[m].push_back(id);
        out[m].problem_cluster_keys.push_back(cells.key(id));
      }
    }
  }

  attribution_.resize(cells.size());
  for (const Metric metric : kAllMetrics) {
    const auto m = static_cast<std::uint8_t>(metric);
    if (!((metrics >> m) & 1u)) continue;
    CriticalAnalysis& a = out[m];
    fill_header(a, table, metric);
    sort_problem_keys(a.problem_cluster_keys);
    a.num_problem_clusters =
        static_cast<std::uint32_t>(a.problem_cluster_keys.size());

    // Shares accumulate leaf by leaf in canonical order, each leaf's in
    // ascending mask order.
    touched_.clear();
    sweep_metric(table, m, a);
    a.criticals.reserve(touched_.size());
    for (const std::uint32_t id : touched_) {
      a.criticals.push_back({ClusterKey::from_raw(cells.key(id)),
                             attribution_[id], cells.cell(id)});
      attribution_[id] = 0.0;
    }
    detail::finalize_critical_analysis(a);
  }
  return out;
}

std::vector<std::uint8_t> critical_candidate_masks(
    const ClusterKey& leaf, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric) {
  require_floor(table, params, "critical_candidate_masks");
  const double global = table.global_ratio(metric);

  std::array<ClusterStats, kNumMasks> stats;
  std::array<bool, kNumMasks> flagged{};
  stats[0] = table.root;
  for (int mask = 1; mask < kNumMasks; ++mask) {
    stats[mask] = table.stats(leaf.project(static_cast<std::uint8_t>(mask)));
    flagged[mask] =
        is_problem_cluster(stats[mask], global, params, metric);
  }

  std::vector<std::uint8_t> candidates;
  for (int m = 1; m < kNumMasks; ++m) {
    if (!flagged[m]) continue;

    // (b) every significant descendant within the leaf is a problem cluster.
    // Enumerate strict supersets of m by iterating subsets of its complement.
    const unsigned complement = kFullMask & ~static_cast<unsigned>(m);
    bool up_ok = true;
    for (unsigned extra = complement; extra != 0;
         extra = (extra - 1) & complement) {
      const int s = m | static_cast<int>(extra);
      if (is_significant(stats[s], params) && !flagged[s]) {
        up_ok = false;
        break;
      }
    }
    if (!up_ok) continue;

    // (c) removing this cluster's sessions un-flags every proper ancestor.
    bool down_ok = true;
    const unsigned mu = static_cast<unsigned>(m);
    for (unsigned a = (mu - 1) & mu; a != 0; a = (a - 1) & mu) {
      const ClusterStats remaining = stats[a].minus(stats[m]);
      if (is_problem_cluster(remaining, global, params, metric)) {
        down_ok = false;
        break;
      }
    }
    if (down_ok) candidates.push_back(static_cast<std::uint8_t>(m));
  }

  std::vector<std::uint8_t> minimal;
  filter_minimal(candidates, minimal);
  return minimal;
}

std::array<CriticalAnalysis, kNumMetrics> find_critical_clusters(
    const LeafFold& /*fold*/, const EpochClusterTable& table,
    const ProblemClusterParams& params) {
  return CriticalSweep{}.run(table, params, kAllMetricSet);
}

CriticalAnalysis find_critical_clusters(const LeafFold& /*fold*/,
                                        const EpochClusterTable& table,
                                        const ProblemClusterParams& params,
                                        Metric metric, ThreadPool* /*unused*/,
                                        std::size_t /*unused*/) {
  return std::move(CriticalSweep{}.run(table, params, metric_set(metric))
                       [static_cast<std::uint8_t>(metric)]);
}

}  // namespace vq

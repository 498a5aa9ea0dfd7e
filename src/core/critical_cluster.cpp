#include "src/core/critical_cluster.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "src/core/mask_bits.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

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
using detail::strict_superset_or;

constexpr int kNumMasks = kFullMask + 1;  // 128 subsets incl. root

/// Shared tail of every strategy: deterministic record order (attributed
/// mass descending, raw key ascending) and the attributed-mass total summed
/// in that order, so hashed/indexed/sharded runs agree bit for bit.
void finalize_analysis(CriticalAnalysis& out) {
  detail::finalize_critical_analysis(out);
}

void fill_header(CriticalAnalysis& out, const EpochClusterTable& table,
                 Metric metric) {
  out.epoch = table.epoch;
  out.metric = metric;
  out.sessions = table.root.sessions;
  out.problem_sessions =
      table.root.problems[static_cast<std::uint8_t>(metric)];
  out.global_ratio = table.global_ratio(metric);
}

/// Both strategies publish the epoch's problem-cluster keys (ascending) so
/// downstream analytics never re-run the per-cell predicate sweep. The
/// hashed strategy sweeps the table; the indexed one derives the keys from
/// the already-computed flag bitset (see find_critical_clusters_indexed).
void problem_keys_from_table(CriticalAnalysis& out,
                             const EpochClusterTable& table,
                             const ProblemClusterParams& params,
                             Metric metric) {
  out.problem_cluster_keys.clear();
  const double global = out.global_ratio;
  table.clusters.for_each([&](std::uint64_t raw, const ClusterStats& stats) {
    if (is_problem_cluster(stats, global, params, metric)) {
      out.problem_cluster_keys.push_back(raw);
    }
  });
  std::sort(out.problem_cluster_keys.begin(), out.problem_cluster_keys.end());
  out.num_problem_clusters =
      static_cast<std::uint32_t>(out.problem_cluster_keys.size());
}

void problem_keys_from_flags(CriticalAnalysis& out, const CellStore& cells,
                             const CellFlags& flags) {
  out.problem_cluster_keys.clear();
  out.problem_cluster_keys.reserve(flags.num_flagged);
  for (std::uint32_t id = 0; id < cells.size(); ++id) {
    if (flags.test_flagged(id)) {
      out.problem_cluster_keys.push_back(cells.key(id));
    }
  }
  std::sort(out.problem_cluster_keys.begin(), out.problem_cluster_keys.end());
  out.num_problem_clusters = flags.num_flagged;
}

/// Per-shard scratch for the indexed leaf sweep.  A leaf writes the slots
/// of its present projections and reads only those of flagged masks and
/// their subsets, which are present too (below), so no per-leaf clearing is
/// needed.
struct LeafScratch {
  std::array<const ClusterStats*, kNumMasks> stats_by_mask;
  std::array<std::uint32_t, kNumMasks> id_by_mask;
  std::vector<std::uint8_t> raw_candidates;
  std::vector<std::uint8_t> masks;
};

/// Indexed equivalent of critical_leaf_candidates: gathers the leaf's
/// precomputed projection cell ids and flag bits, then applies conditions
/// (a)/(b) with 128-bit bit tricks and (c)/minimality on the gathered stats.
/// Returns whether any projection is a problem cluster; minimal candidate
/// masks land in scratch.masks (ascending).
bool indexed_leaf_candidates(const LeafCellIndex& index, std::size_t leaf,
                             const CellStore& cells, const CellFlags& flags,
                             const ProblemClusterParams& params,
                             double global, Metric metric,
                             LeafScratch& scratch) {
  const std::span<const std::uint32_t> row = index.row(leaf);
  MaskBits flagged;
  MaskBits significant;
  for (std::size_t j = 0; j < index.masks.size(); ++j) {
    const std::uint32_t id = row[j];
    // kNoCell marks a projection below a pruned table's floor, which is at
    // most params.min_sessions (require_floor): it is insignificant, so
    // neither flagged nor a veto, and condition (c) reads only subsets of
    // flagged masks, which hold at least their sessions and are present.
    if (id == CellStore::kNoCell) continue;
    const unsigned mask = index.masks[j];
    scratch.stats_by_mask[mask] = &cells.cell(id);
    scratch.id_by_mask[mask] = id;
    if (flags.test_significant(id)) {
      significant.set(mask);
      if (flags.test_flagged(id)) flagged.set(mask);
    }
  }
  scratch.masks.clear();
  if (!flagged.any()) return false;  // (a) can never hold

  // (b): a mask is vetoed when any strict superset within the leaf is
  // significant but not flagged.
  const MaskBits bad{significant.lo & ~flagged.lo,
                     significant.hi & ~flagged.hi};
  const MaskBits veto = strict_superset_or(bad);

  scratch.raw_candidates.clear();
  for (const std::uint8_t mask : index.masks) {
    if (!flagged.test(mask) || veto.test(mask)) continue;

    // (c) removing this cluster's sessions un-flags every proper ancestor.
    const ClusterStats& m_stats = *scratch.stats_by_mask[mask];
    bool down_ok = true;
    const unsigned mu = mask;
    for (unsigned a = (mu - 1) & mu; a != 0; a = (a - 1) & mu) {
      const ClusterStats remaining =
          scratch.stats_by_mask[a]->minus(m_stats);
      if (is_problem_cluster(remaining, global, params, metric)) {
        down_ok = false;
        break;
      }
    }
    if (down_ok) scratch.raw_candidates.push_back(mask);
  }
  filter_minimal(scratch.raw_candidates, scratch.masks);
  return true;
}

}  // namespace

LeafCandidates critical_leaf_candidates(const ClusterKey& leaf,
                                        const EpochClusterTable& table,
                                        const ProblemClusterParams& params,
                                        Metric metric) {
  require_floor(table, params, "critical_leaf_candidates");
  const double global = table.global_ratio(metric);

  LeafCandidates out;
  std::array<ClusterStats, kNumMasks> stats;
  std::array<bool, kNumMasks> flagged{};
  stats[0] = table.root;
  for (int mask = 1; mask < kNumMasks; ++mask) {
    stats[mask] = table.stats(leaf.project(static_cast<std::uint8_t>(mask)));
    flagged[mask] =
        is_problem_cluster(stats[mask], global, params, metric);
    out.in_problem_cluster |= flagged[mask];
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

  filter_minimal(candidates, out.masks);
  return out;
}

std::vector<std::uint8_t> critical_candidate_masks(
    const ClusterKey& leaf, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric) {
  return critical_leaf_candidates(leaf, table, params, metric).masks;
}

CriticalAnalysis find_critical_clusters_hashed(
    const LeafFold& fold, const EpochClusterTable& table,
    const ProblemClusterParams& params, Metric metric) {
  require_floor(table, params, "find_critical_clusters");
  CriticalAnalysis out;
  fill_header(out, table, metric);
  problem_keys_from_table(out, table, params, metric);

  // Candidates and membership depend only on the leaf, so evaluate each
  // distinct leaf once and weight by its problem-session count. Leaves are
  // walked in ascending raw-key order — the canonical accumulation order
  // every strategy shares, making the attribution doubles bit-comparable.
  std::vector<std::pair<std::uint64_t, const ClusterStats*>> sorted_leaves;
  sorted_leaves.reserve(fold.leaves.size());
  fold.leaves.for_each([&](std::uint64_t raw, const ClusterStats& stats) {
    sorted_leaves.emplace_back(raw, &stats);
  });
  std::sort(sorted_leaves.begin(), sorted_leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  FlatMap64<double> attribution;
  for (const auto& [raw, stats] : sorted_leaves) {
    const std::uint32_t problems =
        stats->problems[static_cast<std::uint8_t>(metric)];
    if (problems == 0) continue;
    const ClusterKey leaf = ClusterKey::from_raw(raw);
    const LeafCandidates info =
        critical_leaf_candidates(leaf, table, params, metric);
    if (info.in_problem_cluster) out.problem_sessions_in_pc += problems;
    if (info.masks.empty()) continue;
    const double share = static_cast<double>(problems) /
                         static_cast<double>(info.masks.size());
    for (const std::uint8_t mask : info.masks) {
      attribution[leaf.project(mask).raw()] += share;
    }
  }

  out.criticals.reserve(attribution.size());
  // Accumulation only: finalize_analysis below sorts out.criticals by
  // (mass, key) before anything is emitted.
  // vq-lint: allow(unordered-iter)
  attribution.for_each([&](std::uint64_t raw, double mass) {
    const ClusterKey key = ClusterKey::from_raw(raw);
    out.criticals.push_back({key, mass, table.stats(key)});
  });
  finalize_analysis(out);
  return out;
}

CriticalAnalysis find_critical_clusters_indexed(
    const EpochClusterTable& table, const ProblemClusterParams& params,
    Metric metric, ThreadPool* pool, std::size_t shards) {
  require_floor(table, params, "find_critical_clusters");
  if (table.leaf_index.empty() && !table.clusters.empty()) {
    throw std::invalid_argument{
        "find_critical_clusters_indexed: table carries no leaf index "
        "(expand_fold with ClusterEngineConfig::index_cells builds one)"};
  }

  CriticalAnalysis out;
  fill_header(out, table, metric);

  const CellFlags flags = compute_cell_flags(table, params, metric);
  const LeafCellIndex& index = table.leaf_index;
  const CellStore& cells = table.clusters;
  problem_keys_from_flags(out, cells, flags);
  const double global = out.global_ratio;
  const auto mi = static_cast<std::uint8_t>(metric);
  const std::size_t num_leaves = index.num_leaves();

  // Sharding only pays off when each shard gets a meaningful slice.
  constexpr std::size_t kMinLeavesPerShard = 256;
  std::size_t num_shards = 1;
  if (pool != nullptr && shards > 1 &&
      num_leaves >= 2 * kMinLeavesPerShard) {
    num_shards = std::min(shards, num_leaves / kMinLeavesPerShard);
  }

  struct ShardOut {
    std::vector<std::pair<std::uint32_t, double>> shares;  // (cell id, share)
    std::uint64_t in_pc_problems = 0;
  };
  std::vector<ShardOut> shard_out(num_shards);
  std::vector<std::size_t> bounds(num_shards + 1);
  for (std::size_t s = 0; s <= num_shards; ++s) {
    bounds[s] = num_leaves * s / num_shards;
  }

  const auto sweep_shard = [&](std::size_t shard) {
    LeafScratch scratch;
    ShardOut& so = shard_out[shard];
    for (std::size_t i = bounds[shard]; i < bounds[shard + 1]; ++i) {
      const std::uint32_t problems = index.leaf_stats[i].problems[mi];
      if (problems == 0) continue;
      const bool in_pc = indexed_leaf_candidates(index, i, cells, flags,
                                                 params, global, metric,
                                                 scratch);
      if (in_pc) so.in_pc_problems += problems;
      if (scratch.masks.empty()) continue;
      const double share = static_cast<double>(problems) /
                           static_cast<double>(scratch.masks.size());
      for (const std::uint8_t mask : scratch.masks) {
        so.shares.emplace_back(scratch.id_by_mask[mask], share);
      }
    }
  };
  if (num_shards == 1) {
    sweep_shard(0);
  } else {
    pool->parallel_for(0, num_shards, sweep_shard);
  }

  // Deterministic merge: shards cover contiguous ranges of the ascending
  // leaf array and appended their shares in leaf order, so replaying the
  // lists in shard order reproduces the serial floating-point accumulation
  // sequence exactly — for any shard count.
  std::vector<double> attribution(cells.size(), 0.0);
  std::vector<std::uint32_t> touched;
  for (const ShardOut& so : shard_out) {
    out.problem_sessions_in_pc += so.in_pc_problems;
    for (const auto& [id, share] : so.shares) {
      if (attribution[id] == 0.0) touched.push_back(id);
      attribution[id] += share;  // share > 0, so touched stays accurate
    }
  }

  out.criticals.reserve(touched.size());
  for (const std::uint32_t id : touched) {
    out.criticals.push_back({ClusterKey::from_raw(cells.key(id)),
                             attribution[id], cells.cell(id)});
  }
  finalize_analysis(out);
  return out;
}

CriticalAnalysis find_critical_clusters(const LeafFold& fold,
                                        const EpochClusterTable& table,
                                        const ProblemClusterParams& params,
                                        Metric metric, ThreadPool* pool,
                                        std::size_t shards) {
  VQ_SPAN_EPOCH("core.find_critical_clusters", table.epoch);
  if (!table.leaf_index.empty() || table.clusters.empty()) {
    return find_critical_clusters_indexed(table, params, metric, pool,
                                          shards);
  }
  return find_critical_clusters_hashed(fold, table, params, metric);
}

CriticalAnalysis find_critical_clusters(std::span<const Session> sessions,
                                        const EpochClusterTable& table,
                                        const ProblemThresholds& thresholds,
                                        const ProblemClusterParams& params,
                                        Metric metric) {
  return find_critical_clusters(
      fold_sessions(sessions, thresholds, table.epoch), table, params,
      metric);
}

}  // namespace vq

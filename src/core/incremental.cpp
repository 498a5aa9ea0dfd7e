#include "src/core/incremental.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace vq {

namespace {

using detail::MaskBits;
using detail::filter_minimal;
using detail::strict_superset_or;

struct IncrementalMetrics {
  obs::Counter& epochs;
  obs::Counter& leaves_changed;
  obs::Counter& cells_touched;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& full_flag_passes;

  static IncrementalMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static IncrementalMetrics m{reg.counter("incremental.epochs"),
                                reg.counter("incremental.leaves_changed"),
                                reg.counter("incremental.cells_touched"),
                                reg.counter("incremental.cache_hits"),
                                reg.counter("incremental.cache_misses"),
                                reg.counter("incremental.full_flag_passes")};
    return m;
  }
};

/// Exact difference over uint32: applying it with += lands precisely on
/// `now` regardless of sign (unsigned wraparound), which is what makes
/// retire (now = 0) and update deltas a single code path.
[[nodiscard]] ClusterStats wrapped_delta(const ClusterStats& now,
                                         const ClusterStats& prev) noexcept {
  ClusterStats d;
  d.sessions = now.sessions - prev.sessions;
  for (int m = 0; m < kNumMetrics; ++m) {
    d.problems[m] = now.problems[m] - prev.problems[m];
  }
  return d;
}

[[nodiscard]] bool test_bit(const std::vector<std::uint64_t>& bits,
                            std::uint32_t id) noexcept {
  return (bits[id >> 6] >> (id & 63)) & 1u;
}

void assign_bit(std::vector<std::uint64_t>& bits, std::uint32_t id,
                bool value) noexcept {
  const std::uint64_t m = std::uint64_t{1} << (id & 63);
  if (value) {
    bits[id >> 6] |= m;
  } else {
    bits[id >> 6] &= ~m;
  }
}

[[nodiscard]] unsigned popcount128(const MaskBits& b) noexcept {
  return static_cast<unsigned>(std::popcount(b.lo) + std::popcount(b.hi));
}

/// Invokes fn(mask) for every set mask, ascending — the same order
/// filter_minimal emits (its input follows the ascending materialised-mask
/// walk), so replaying a cached candidate set reproduces the exact share
/// emission sequence of a fresh evaluation.
template <typename Fn>
void for_each_mask(const MaskBits& b, Fn&& fn) {
  for (std::uint64_t w = b.lo; w != 0; w &= w - 1) {
    fn(static_cast<std::uint8_t>(std::countr_zero(w)));
  }
  for (std::uint64_t w = b.hi; w != 0; w &= w - 1) {
    fn(static_cast<std::uint8_t>(64 + std::countr_zero(w)));
  }
}

}  // namespace

/// Per-shard sweep scratch; mirrors the indexed strategy's LeafScratch.
/// Only materialised masks are written before being read, so no per-leaf
/// clearing is needed.
struct IncrementalLattice::SweepScratch {
  std::array<const ClusterStats*, kFullMask + 1> stats_by_mask;
  std::array<std::uint32_t, kFullMask + 1> id_by_mask;
  std::vector<std::uint8_t> raw_candidates;
  std::vector<std::uint8_t> masks;
};

IncrementalLattice::IncrementalLattice(const ProblemClusterParams& params,
                                       int max_arity)
    : params_(params), masks_(lattice_masks(max_arity)) {
  if (masks_.empty()) {
    throw std::invalid_argument{
        "IncrementalLattice: max_arity must materialise at least one mask"};
  }
  for (std::size_t j = 0; j < masks_.size(); ++j) {
    mask_col_[masks_[j]] = static_cast<std::uint16_t>(j);
  }
}

std::uint32_t IncrementalLattice::slot_for(std::uint64_t leaf_key) {
  std::uint32_t& entry = leaf_slot_[leaf_key];  // slot + 1; 0 = absent
  if (entry != 0) return entry - 1;

  const auto slot = static_cast<std::uint32_t>(leaf_keys_.size());
  entry = slot + 1;
  leaf_keys_.push_back(leaf_key);
  leaf_stats_.emplace_back();
  present_seq_.push_back(0);
  row_dirty_seq_.push_back(0);
  row_dirty_.push_back(0);
  for (auto& mc : cache_) {
    mc.eval_seq.push_back(0);
    mc.eval_global.push_back(0.0);
    mc.candidates.emplace_back();
    mc.in_pc.push_back(0);
  }

  // Resolve the leaf's projection row once; every later epoch reuses the
  // dense ids (the delta hot path never hashes).
  const ClusterKey leaf = ClusterKey::from_raw(leaf_key);
  const std::size_t base = rows_.size();
  rows_.resize(base + masks_.size());
  for (std::size_t j = 0; j < masks_.size(); ++j) {
    rows_[base + j] = cells_.id_or_insert(leaf.project(masks_[j]).raw());
  }
  cell_visit_seq_.resize(cells_.size(), 0);
  return slot;
}

void IncrementalLattice::apply_leaf_delta(std::uint32_t slot,
                                          const ClusterStats& next) {
  const ClusterStats delta = wrapped_delta(next, leaf_stats_[slot]);
  for (const std::uint32_t id : row(slot)) {
    if (cell_visit_seq_[id] != seq_) {
      cell_visit_seq_[id] = seq_;
      touched_cells_.push_back(id);
      saved_cell_stats_.push_back(cells_.cell(id));
    }
    cells_.add_to(id, delta);
  }
  leaf_stats_[slot] = next;
}

void IncrementalLattice::apply_deltas(const LeafFold& fold) {
  changed_.clear();
  touched_cells_.clear();
  saved_cell_stats_.clear();
  added_active_.clear();

  // Split the fold into unchanged leaves (present-marked, no work) and the
  // changed frontier.  The fold's leaves ascend by key, so the changed list
  // does too, and slot/cell creation order is canonical.
  for (const auto& [key, stats] : fold.leaves) {
    const std::uint32_t* entry = leaf_slot_.find(key);
    if (entry != nullptr && *entry != 0) {
      const std::uint32_t slot = *entry - 1;
      present_seq_[slot] = seq_;
      if (leaf_stats_[slot] == stats) continue;  // steady-state leaf
    } else if (stats == ClusterStats{}) {
      continue;  // empty leaf record; from-scratch would not materialise it
    }
    changed_.emplace_back(key, stats);
  }

  for (const auto& [key, stats] : changed_) {
    const std::uint32_t slot = slot_for(key);
    present_seq_[slot] = seq_;
    const bool was_active = leaf_stats_[slot].sessions > 0;
    apply_leaf_delta(slot, stats);
    const bool now_active = stats.sessions > 0;
    if (!was_active && now_active) {
      added_active_.push_back(slot);
      ++delta_.leaves_added;
    } else if (was_active && !now_active) {
      ++delta_.leaves_retired;
    } else {
      ++delta_.leaves_updated;
    }
  }

  // Retire every previously-active leaf the fold no longer mentions.
  bool any_retired = false;
  for (const std::uint32_t slot : active_slots_) {
    if (present_seq_[slot] == seq_) continue;
    if (leaf_stats_[slot].sessions == 0) continue;  // retired via changed_
    apply_leaf_delta(slot, ClusterStats{});
    ++delta_.leaves_retired;
    any_retired = true;
  }
  if (any_retired || delta_.leaves_retired > 0) {
    std::erase_if(active_slots_, [&](std::uint32_t slot) {
      return leaf_stats_[slot].sessions == 0;
    });
  }
  if (!added_active_.empty()) {
    // changed_ was key-sorted, so added_active_ already ascends by key.
    const std::size_t mid = active_slots_.size();
    active_slots_.insert(active_slots_.end(), added_active_.begin(),
                         added_active_.end());
    std::inplace_merge(active_slots_.begin(), active_slots_.begin() + mid,
                       active_slots_.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return leaf_keys_[a] < leaf_keys_[b];
                       });
  }

  // Value-based invalidation: keep only cells whose stats actually changed.
  // A cell whose deltas net to zero this epoch (balanced churn — sessions
  // migrating between sibling leaves that share this projection) is
  // bit-identical to its pre-advance state, so its flags are unchanged and
  // every candidate cache covering it stays valid: eval_leaf is a pure
  // function of (row cell stats, global, params).  The survivors raise
  // their bit in the per-epoch changed bitmap the sweep probes — a bitmap
  // rather than a seq compare so the probe stays cache-resident.
  changed_bitmap_.assign((cells_.size() + 63) / 64, 0);
  std::size_t num_changed = 0;
  for (std::size_t i = 0; i < touched_cells_.size(); ++i) {
    const std::uint32_t id = touched_cells_[i];
    if (cells_.cell(id) == saved_cell_stats_[i]) continue;
    changed_bitmap_[id >> 6] |= std::uint64_t{1} << (id & 63);
    touched_cells_[num_changed++] = id;
  }
  touched_cells_.resize(num_changed);
}

void IncrementalLattice::update_flags() {
  const std::size_t words = (cells_.size() + 63) / 64;
  significant_.resize(words, 0);
  for (auto& f : flagged_) f.resize(words, 0);

  // Significance depends only on the cell's own sessions: touched-only.
  for (const std::uint32_t id : touched_cells_) {
    assign_bit(significant_, id, is_significant(cells_.cell(id), params_));
  }

  for (int m = 0; m < kNumMetrics; ++m) {
    const auto metric = static_cast<Metric>(m);
    const double global = root_.problem_ratio(metric);
    const bool full = !primed_ || global != prev_global_[m];
    delta_.full_flag_pass[m] = full;
    if (full) {
      std::uint32_t count = 0;
      const std::span<const ClusterStats> cells = cells_.cells();
      for (std::uint32_t id = 0; id < cells.size(); ++id) {
        const bool f = is_problem_cluster(cells[id], global, params_, metric);
        assign_bit(flagged_[m], id, f);
        count += f ? 1u : 0u;
      }
      num_flagged_[m] = count;
    } else {
      for (const std::uint32_t id : touched_cells_) {
        const bool f =
            is_problem_cluster(cells_.cell(id), global, params_, metric);
        if (f != test_bit(flagged_[m], id)) {
          assign_bit(flagged_[m], id, f);
          num_flagged_[m] += f ? 1 : -1;
        }
      }
    }
    prev_global_[m] = global;
  }
}

bool IncrementalLattice::eval_leaf(std::uint32_t slot, Metric metric,
                                   double global,
                                   SweepScratch& scratch) const {
  const auto mi = static_cast<std::uint8_t>(metric);
  const std::span<const std::uint32_t> cell_row = row(slot);
  MaskBits flagged;
  MaskBits significant;
  for (std::size_t j = 0; j < masks_.size(); ++j) {
    const unsigned mask = masks_[j];
    const std::uint32_t id = cell_row[j];
    scratch.stats_by_mask[mask] = &cells_.cell(id);
    scratch.id_by_mask[mask] = id;
    if (test_bit(significant_, id)) {
      significant.set(mask);
      if (test_bit(flagged_[mi], id)) flagged.set(mask);
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
  for (const std::uint8_t mask : masks_) {
    if (!flagged.test(mask) || veto.test(mask)) continue;

    // (c) removing this cluster's sessions un-flags every proper ancestor.
    const ClusterStats& m_stats = *scratch.stats_by_mask[mask];
    bool down_ok = true;
    const unsigned mu = mask;
    for (unsigned a = (mu - 1) & mu; a != 0; a = (a - 1) & mu) {
      const ClusterStats remaining = scratch.stats_by_mask[a]->minus(m_stats);
      if (is_problem_cluster(remaining, global, params_, metric)) {
        down_ok = false;
        break;
      }
    }
    if (down_ok) scratch.raw_candidates.push_back(mask);
  }
  filter_minimal(scratch.raw_candidates, scratch.masks);
  return true;
}

CriticalAnalysis IncrementalLattice::extract(Metric metric, ThreadPool* pool,
                                             std::size_t shards) {
  const auto mi = static_cast<std::uint8_t>(metric);
  CriticalAnalysis out;
  out.epoch = epoch_;
  out.metric = metric;
  out.sessions = root_.sessions;
  out.problem_sessions = root_.problems[mi];
  out.global_ratio = root_.problem_ratio(metric);
  const double global = out.global_ratio;

  // Problem keys from the maintained flag bits.  Dead (zero-session) cells
  // are never flagged, so this enumerates exactly the from-scratch set; the
  // ascending sort erases the dense-id order difference.
  out.problem_cluster_keys.reserve(num_flagged_[mi]);
  for (std::size_t w = 0; w < flagged_[mi].size(); ++w) {
    for (std::uint64_t bits = flagged_[mi][w]; bits != 0; bits &= bits - 1) {
      const auto id =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      out.problem_cluster_keys.push_back(cells_.key(id));
    }
  }
  std::sort(out.problem_cluster_keys.begin(), out.problem_cluster_keys.end());
  out.num_problem_clusters = num_flagged_[mi];

  const std::size_t num_active = active_slots_.size();

  // Same shard gating as the fused critical sweep (CriticalSweep::run).
  constexpr std::size_t kMinLeavesPerShard = 256;
  std::size_t num_shards = 1;
  if (pool != nullptr && shards > 1 && num_active >= 2 * kMinLeavesPerShard) {
    num_shards = std::min(shards, num_active / kMinLeavesPerShard);
  }

  struct ShardOut {
    std::vector<std::pair<std::uint32_t, double>> shares;  // (cell id, share)
    std::uint64_t in_pc_problems = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
  };
  std::vector<ShardOut> shard_out(num_shards);
  std::vector<std::size_t> bounds(num_shards + 1);
  for (std::size_t s = 0; s <= num_shards; ++s) {
    bounds[s] = num_active * s / num_shards;
  }

  MetricCache& mc = cache_[mi];
  const auto sweep_shard = [&](std::size_t shard) {
    SweepScratch scratch;
    ShardOut& so = shard_out[shard];
    for (std::size_t i = bounds[shard]; i < bounds[shard + 1]; ++i) {
      const std::uint32_t slot = active_slots_[i];
      const std::uint32_t problems = leaf_stats_[slot].problems[mi];
      if (problems == 0) continue;

      // Did any row cell change value this advance?  Probed against the
      // per-epoch changed bitmap (cache-resident, unlike the 8-byte-per-
      // cell seq array it replaced) and memoised once per advance (metrics
      // run back to back; writes are per-slot disjoint and the pool joins
      // between sweeps, so the memo is race-free).
      bool dirty;
      if (row_dirty_seq_[slot] == seq_) {
        dirty = row_dirty_[slot] != 0;
      } else {
        dirty = false;
        for (const std::uint32_t id : row(slot)) {
          if ((changed_bitmap_[id >> 6] >> (id & 63)) & 1u) {
            dirty = true;
            break;
          }
        }
        row_dirty_[slot] = dirty ? 1 : 0;
        row_dirty_seq_[slot] = seq_;
      }

      // The cached result is valid iff the leaf was swept on the previous
      // advance (every active problems>0 leaf is, and a hit re-stamps, so
      // validity is a single-advance question the bitmap answers), nothing
      // in its row changed since, and the global ratio is bit-equal.
      MaskBits candidates;
      bool in_pc;
      const bool hit = !dirty && mc.eval_seq[slot] + 1 == seq_ &&
                       mc.eval_global[slot] == global;
      if (hit) {
        candidates = mc.candidates[slot];
        in_pc = mc.in_pc[slot] != 0;
        mc.eval_seq[slot] = seq_;
        ++so.cache_hits;
      } else {
        in_pc = eval_leaf(slot, metric, global, scratch);
        for (const std::uint8_t mask : scratch.masks) candidates.set(mask);
        mc.eval_seq[slot] = seq_;
        mc.eval_global[slot] = global;
        mc.candidates[slot] = candidates;
        mc.in_pc[slot] = in_pc ? 1 : 0;
        ++so.cache_misses;
      }

      if (in_pc) so.in_pc_problems += problems;
      const unsigned count = popcount128(candidates);
      if (count == 0) continue;
      const double share =
          static_cast<double>(problems) / static_cast<double>(count);
      const std::span<const std::uint32_t> cell_row = row(slot);
      for_each_mask(candidates, [&](std::uint8_t mask) {
        so.shares.emplace_back(cell_row[mask_col_[mask]], share);
      });
    }
  };
  if (num_shards == 1) {
    sweep_shard(0);
  } else {
    pool->parallel_for(0, num_shards, sweep_shard);
  }

  // Deterministic merge — identical to the indexed strategy: shards cover
  // contiguous ranges of the ascending active-leaf array, so replaying
  // their share lists in shard order reproduces the serial floating-point
  // accumulation sequence exactly.
  attribution_.resize(cells_.size(), 0.0);
  touched_attr_.clear();
  for (const ShardOut& so : shard_out) {
    out.problem_sessions_in_pc += so.in_pc_problems;
    delta_.cache_hits += so.cache_hits;
    delta_.cache_misses += so.cache_misses;
    for (const auto& [id, share] : so.shares) {
      if (attribution_[id] == 0.0) touched_attr_.push_back(id);
      attribution_[id] += share;  // share > 0, so touched stays accurate
    }
  }

  out.criticals.reserve(touched_attr_.size());
  for (const std::uint32_t id : touched_attr_) {
    out.criticals.push_back({ClusterKey::from_raw(cells_.key(id)),
                             attribution_[id], cells_.cell(id)});
    attribution_[id] = 0.0;  // buffer is reused across metrics/epochs
  }
  detail::finalize_critical_analysis(out);
  return out;
}

std::array<CriticalAnalysis, kNumMetrics> IncrementalLattice::advance(
    const LeafFold& fold, ThreadPool* pool, std::size_t shards) {
  VQ_SPAN_EPOCH("core.incremental_advance", fold.epoch);
  ++seq_;
  epoch_ = fold.epoch;
  root_ = fold.root;
  delta_ = IncrementalDeltaStats{};
  delta_.epoch = fold.epoch;

  apply_deltas(fold);
  delta_.cells_touched = touched_cells_.size();
  update_flags();
  primed_ = true;

  std::array<CriticalAnalysis, kNumMetrics> analyses;
  for (int m = 0; m < kNumMetrics; ++m) {
    analyses[m] = extract(static_cast<Metric>(m), pool, shards);
  }

  delta_.active_leaves = active_slots_.size();
  delta_.cells = cells_.size();
  IncrementalMetrics& metrics = IncrementalMetrics::get();
  metrics.epochs.add(1);
  metrics.leaves_changed.add(delta_.leaves_added + delta_.leaves_updated +
                             delta_.leaves_retired);
  metrics.cells_touched.add(delta_.cells_touched);
  metrics.cache_hits.add(delta_.cache_hits);
  metrics.cache_misses.add(delta_.cache_misses);
  for (int m = 0; m < kNumMetrics; ++m) {
    if (delta_.full_flag_pass[m]) metrics.full_flag_passes.add(1);
  }
  return analyses;
}

}  // namespace vq

#include "src/core/cluster_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/core/expand_kernels.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace vq {

void CellStore::throw_sorted_mutation() {
  throw std::logic_error{
      "CellStore: mutation of a sorted (mask-major) store"};
}

std::uint32_t CellStore::sorted_id_of(std::uint64_t raw) const noexcept {
  const std::size_t mask = raw & kFullMask;
  const auto begin = keys_.begin() + mask_offsets_[mask];
  const auto end = keys_.begin() + mask_offsets_[mask + 1];
  const auto it = std::lower_bound(begin, end, raw);
  if (it == end || *it != raw) return kNoCell;
  return static_cast<std::uint32_t>(it - keys_.begin());
}

CellStore CellStore::from_mask_major(
    std::vector<std::uint64_t> keys, std::vector<ClusterStats> stats,
    const std::array<std::uint32_t, kFullMask + 2>& mask_offsets) {
  if (keys.size() != stats.size()) {
    throw std::invalid_argument{
        "CellStore::from_mask_major: keys/stats size mismatch"};
  }
  if (mask_offsets.front() != 0 || mask_offsets.back() != keys.size()) {
    throw std::invalid_argument{
        "CellStore::from_mask_major: offsets do not span the key array"};
  }
  for (std::size_t m = 0; m + 1 < mask_offsets.size(); ++m) {
    if (mask_offsets[m] > mask_offsets[m + 1]) {
      throw std::invalid_argument{
          "CellStore::from_mask_major: offsets not monotone"};
    }
  }
  CellStore out;
  out.sorted_ = true;
  out.keys_ = std::move(keys);
  out.stats_ = std::move(stats);
  out.mask_offsets_ = mask_offsets;
  return out;
}

ClusterStats ClusterStats::minus(const ClusterStats& o) const noexcept {
  ClusterStats out;
  out.sessions = sessions >= o.sessions ? sessions - o.sessions : 0;
  for (int m = 0; m < kNumMetrics; ++m) {
    out.problems[m] =
        problems[m] >= o.problems[m] ? problems[m] - o.problems[m] : 0;
  }
  return out;
}

ClusterStats EpochClusterTable::stats(const ClusterKey& key) const noexcept {
  if (key.mask() == 0) return root;
  if (const ClusterStats* found = clusters.find(key.raw())) return *found;
  return ClusterStats{};
}

std::vector<std::uint8_t> lattice_masks(int max_arity) {
  if (max_arity < 1 || max_arity > kNumDims) {
    throw std::invalid_argument{"lattice_masks: max_arity out of range"};
  }
  std::vector<std::uint8_t> masks;
  for (unsigned mask = 1; mask <= kFullMask; ++mask) {
    if (std::popcount(mask) <= max_arity) {
      masks.push_back(static_cast<std::uint8_t>(mask));
    }
  }
  return masks;
}

namespace {

/// The fold's radix digits: the leaf key's 48 value-field bits above the
/// seven mask bits, eight at a time, least significant first.  The problem
/// bits a fold code keeps below them are never sorted on, because the codes
/// of one leaf need no order among themselves.
constexpr int kLeafKeyBits =
    kNumDims + std::accumulate(kDimBits.begin(), kDimBits.end(), 0);
constexpr std::array<int, 6> kCodeShifts = {7, 15, 23, 31, 39, 47};
static_assert(kCodeShifts.front() == kNumDims &&
              kCodeShifts.back() + 8 >= kLeafKeyBits);

/// Stable LSD radix sort of codes[0, n) by their leaf key bits, through
/// `scratch` (n entries).  One read pass gathers every digit's histogram,
/// and a digit that is constant across the codes is skipped, as
/// radix_sort_pairs skips one.  Returns the buffer holding the sorted
/// codes.
// vq:hot
const std::uint64_t* sort_codes(std::uint64_t* codes, std::uint64_t* scratch,
                                std::size_t n) noexcept {
  if (n < 2) return codes;
  std::array<std::array<std::uint32_t, 256>, kCodeShifts.size()> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = codes[i];
    for (std::size_t d = 0; d < kCodeShifts.size(); ++d) {
      ++hist[d][(c >> kCodeShifts[d]) & 0xFFu];
    }
  }
  std::uint64_t* src = codes;
  std::uint64_t* dst = scratch;
  for (std::size_t d = 0; d < kCodeShifts.size(); ++d) {
    std::array<std::uint32_t, 256>& h = hist[d];
    const int shift = kCodeShifts[d];
    if (h[(src[0] >> shift) & 0xFFu] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& bucket : h) {
      const std::uint32_t count = bucket;
      bucket = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t c = src[i];
      dst[h[(c >> shift) & 0xFFu]++] = c;
    }
    std::swap(src, dst);
  }
  return src;
}

/// Distinct leaves among sorted fold codes: codes of one leaf differ only
/// in the mask bits.
// vq:hot
std::size_t count_leaves(const std::uint64_t* sorted, std::size_t n) noexcept {
  std::size_t leaves = n == 0 ? 0 : 1;
  for (std::size_t i = 1; i < n; ++i) {
    leaves += (sorted[i] ^ sorted[i - 1]) > kFullMask ? 1 : 0;
  }
  return leaves;
}

static_assert(kNumMetrics == 4, "write_leaves counts four problem bits");

/// A fold code's four problem bits spread over two u64s of two 32-bit
/// counter lanes each: metrics 0 and 1 in kProblemLanes[0][bits], metrics
/// 2 and 3 in kProblemLanes[1][bits], the lower metric in the low lane.
constexpr std::array<std::array<std::uint64_t, 16>, 2> kProblemLanes = [] {
  std::array<std::array<std::uint64_t, 16>, 2> lanes{};
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    for (std::size_t half = 0; half < 2; ++half) {
      lanes[half][bits] = ((bits >> (2 * half)) & 1u) |
                          (((bits >> (2 * half + 1)) & 1u) << 32);
    }
  }
  return lanes;
}();

/// Writes one leaf per run of sorted fold codes to `out` (count_leaves
/// entries) and returns the codes' sum.  Branch-free: the open run's
/// counters live in registers and are stored on every code, so the run's
/// last code leaves its totals, and a code that starts a new leaf moves the
/// output one entry on and clears the counters.  fold_codes caps n below
/// 2^32, so no 32-bit lane overflows.
// vq:hot
ClusterStats write_leaves(const std::uint64_t* sorted, std::size_t n,
                          FoldLeaf* out) noexcept {
  std::uint64_t run_lo = 0;  // the open run's problems, metrics 0 and 1
  std::uint64_t run_hi = 0;  // metrics 2 and 3
  std::uint64_t all_lo = 0;  // every code's problems
  std::uint64_t all_hi = 0;
  std::size_t start = 0;  // the open run's first code
  FoldLeaf* leaf = out;
  std::uint64_t prev = n == 0 ? 0 : sorted[0];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = sorted[i];
    const std::uint64_t starts = (c ^ prev) > kFullMask ? 1 : 0;
    const std::uint64_t keep = starts - 1;  // all ones within a run
    prev = c;
    leaf += starts;
    start = (start & keep) | (i & ~keep);
    const std::uint64_t lo = kProblemLanes[0][c & 15u];
    const std::uint64_t hi = kProblemLanes[1][c & 15u];
    run_lo = (run_lo & keep) + lo;
    run_hi = (run_hi & keep) + hi;
    all_lo += lo;
    all_hi += hi;
    leaf->key = c | kFullMask;
    leaf->stats.sessions = static_cast<std::uint32_t>(i + 1 - start);
    leaf->stats.problems = {static_cast<std::uint32_t>(run_lo),
                            static_cast<std::uint32_t>(run_lo >> 32),
                            static_cast<std::uint32_t>(run_hi),
                            static_cast<std::uint32_t>(run_hi >> 32)};
  }
  return ClusterStats{static_cast<std::uint32_t>(n),
                      {static_cast<std::uint32_t>(all_lo),
                       static_cast<std::uint32_t>(all_lo >> 32),
                       static_cast<std::uint32_t>(all_hi),
                       static_cast<std::uint32_t>(all_hi >> 32)}};
}

}  // namespace

void fold_codes(LeafFold& fold) {
  const std::size_t n = fold.codes.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"fold_codes: more sessions than a leaf counts"};
  }
  if (fold.code_scratch.size() < n) fold.code_scratch.resize(n);
  const std::uint64_t* sorted =
      sort_codes(fold.codes.data(), fold.code_scratch.data(), n);
  // Grown geometrically: resized to each new high of a stream's leaf
  // count, the array would move at every diurnal climb and leave behind
  // freed blocks too small for the next, which only grows the heap.
  const std::size_t leaves = count_leaves(sorted, n);
  if (leaves > fold.leaves.capacity()) {
    fold.leaves.reserve(std::max(leaves, 2 * fold.leaves.capacity()));
  }
  fold.leaves.resize(leaves);
  fold.root = write_leaves(sorted, n, fold.leaves.data());
}

void fold_sessions_into(std::span<const Session> sessions,
                        const ProblemThresholds& thresholds,
                        std::uint32_t epoch, LeafFold& fold) {
  fold.reset(epoch);
  fold.codes.resize(sessions.size());
  std::uint64_t* code = fold.codes.data();
  for (const Session& s : sessions) {
    if (s.epoch != epoch) {
      throw std::invalid_argument{
          "aggregate_epoch: session epoch mismatch"};
    }
    *code++ = fold_code(ClusterKey::pack(kFullMask, s.attrs).raw(),
                        thresholds.problem_bits(s.quality));
  }
  fold_codes(fold);
}

LeafFold fold_sessions(std::span<const Session> sessions,
                       const ProblemThresholds& thresholds,
                       std::uint32_t epoch) {
  LeafFold fold;
  fold_sessions_into(sessions, thresholds, epoch, fold);
  fold.release_scratch();
  return fold;
}

namespace {

// Sharding only pays off when each shard gets a meaningful slice.
constexpr std::size_t kMinLeavesPerShard = 256;

// Inputs below this use a comparison sort instead of the LSD radix: the
// radix's per-pass fixed costs only amortize past ~1k keys.
constexpr std::size_t kRadixMinKeys = 1024;

struct ExpandMetrics {
  obs::Counter& leaves;
  obs::Counter& row_groups;
  obs::Counter& cells;
  obs::Counter& radix_bytes;
};

/// expand.radix_bytes is kStable: radix traffic is a pure function of the
/// per-mask source sizes (cell counts) and radix plans, and the source
/// choice is itself a deterministic function of those counts — independent
/// of shard count and SIMD kernel.  expand.row_groups counts the leaf
/// index's row groups: one per leaf on a full lattice, one per group of
/// leaves with equal reduced keys on a pruned one.
ExpandMetrics& expand_metrics() {
  static ExpandMetrics metrics{
      obs::Registry::global().counter("expand.leaves"),
      obs::Registry::global().counter("expand.row_groups"),
      obs::Registry::global().counter("expand.cells"),
      obs::Registry::global().counter("expand.radix_bytes"),
  };
  return metrics;
}

/// Marker for "this mask folds straight from the leaf arrays" (either the
/// full mask itself or a mask whose cheapest source is the leaves).
constexpr std::uint32_t kLeafSource = 0xFFFFFFFFu;

/// One mask's aggregation output: distinct projected keys (ascending),
/// folded stats, and the rank map from the source's cell index to this
/// mask's local rank (for the LeafCellIndex rows).  `source` is the
/// index (into `masks`) of the already-aggregated parent this mask folded
/// from, or kLeafSource.
struct MaskCells {
  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  std::vector<std::uint32_t> src_map;
  std::uint32_t source = kLeafSource;
};

/// True when projecting `source_mask`-sorted keys by `mask` yields a
/// non-decreasing sequence: every dim the source keeps beyond `mask` sits
/// strictly below mask's lowest dim, so dropping those fields (which occupy
/// the least-significant attribute bits) preserves the sort order and equal
/// projections form contiguous runs.  `mask` is never 0 (lattice_masks).
[[nodiscard]] bool prefix_aligned(std::uint8_t mask,
                                  std::uint8_t source_mask) noexcept {
  const unsigned extra = source_mask & ~static_cast<unsigned>(mask);
  return (extra >> std::countr_zero(static_cast<unsigned>(mask))) == 0;
}

/// Deterministic cost estimate for folding `mask` from a source of
/// `source_cells` cells: one scan when prefix-aligned, scan + radix passes
/// otherwise.  Pure function of cell counts, so the source choice — and
/// with it expand.radix_bytes — is shard- and kernel-invariant.
[[nodiscard]] std::uint64_t fold_cost(std::uint8_t mask,
                                      std::uint8_t source_mask,
                                      std::size_t source_cells) noexcept {
  const std::uint64_t passes =
      prefix_aligned(mask, source_mask)
          ? 0
          : static_cast<std::uint64_t>(radix_plan(mask).passes);
  return static_cast<std::uint64_t>(source_cells) * (1 + passes);
}

/// Mask-major engine unit of work: folds one mask's cells from its chosen
/// source (smallest already-aggregated strict superset, or the leaves).
/// Prefix-aligned sources fold in one linear run scan; otherwise the
/// (projected key, source row) pairs are radix-sorted first.  Because
/// ClusterStats addition is associative and commutative, folding source
/// cells gives bit-identical sums to folding the underlying leaves.
/// Returns the radix scatter traffic in bytes.
std::uint64_t expand_mask(std::size_t j,
                          const std::vector<std::uint8_t>& masks,
                          std::span<const std::uint64_t> leaf_keys,
                          std::span<const ClusterStats> leaf_stats,
                          BatchKernel kernel, std::vector<MaskCells>& cells,
                          ExpandScratch& scratch) {
  const std::uint8_t mask = masks[j];
  MaskCells& out = cells[j];
  out.keys.clear();  // the cells may be a kept workspace's
  out.stats.clear();
  if (mask == kFullMask) {
    // Identity: the full-mask cells are the leaves themselves, already in
    // canonical ascending order; leaf i's local rank is i (no map needed).
    out.keys.assign(leaf_keys.begin(), leaf_keys.end());
    out.stats.assign(leaf_stats.begin(), leaf_stats.end());
    return 0;
  }
  const bool leaf_src = out.source == kLeafSource;
  const std::uint64_t* src_keys =
      leaf_src ? leaf_keys.data() : cells[out.source].keys.data();
  const ClusterStats* src_stats =
      leaf_src ? leaf_stats.data() : cells[out.source].stats.data();
  const std::size_t sn =
      leaf_src ? leaf_keys.size() : cells[out.source].keys.size();
  const std::uint8_t src_mask = leaf_src ? kFullMask : masks[out.source];

  {
    VQ_SPAN("expand.project");
    scratch.proj.resize(sn);
    project_keys(src_keys, sn, mask, scratch.proj.data(), kernel);
  }
  std::uint64_t radix_bytes = 0;
  const std::uint32_t* order = nullptr;  // identity permutation
  if (!prefix_aligned(mask, src_mask)) {
    VQ_SPAN("expand.sort");
    scratch.rows.resize(sn);
    for (std::size_t i = 0; i < sn; ++i) {
      scratch.rows[i] = static_cast<std::uint32_t>(i);
    }
    if (sn < kRadixMinKeys) {
      // Below the radix break-even the per-pass fixed costs (histogram
      // clears + 256-bucket prefix sums) dominate; an introsort on
      // (projected key, source row) produces the same stable order — row
      // ties broken ascending — at O(n log n) on a tiny n.  The threshold
      // depends only on the source's cell count, so the engine's
      // expand.radix_bytes stays shard- and kernel-invariant.
      std::sort(scratch.rows.begin(), scratch.rows.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return scratch.proj[a] != scratch.proj[b]
                             ? scratch.proj[a] < scratch.proj[b]
                             : a < b;
                });
      scratch.key_scratch.resize(sn);
      for (std::size_t i = 0; i < sn; ++i) {
        scratch.key_scratch[i] = scratch.proj[scratch.rows[i]];
      }
      scratch.proj.swap(scratch.key_scratch);
    } else {
      radix_bytes =
          radix_sort_pairs(scratch.proj, scratch.rows, radix_plan(mask),
                           scratch.key_scratch, scratch.row_scratch);
    }
    order = scratch.rows.data();
  }

  VQ_SPAN("expand.accumulate");
  out.keys.reserve(sn);
  out.stats.reserve(sn);
  out.src_map.resize(sn);
  // Run-local accumulator: stats fold in registers and flush once per run,
  // instead of a read-modify-write into the stats vector per source cell.
  std::uint64_t prev = ~std::uint64_t{0};  // bit 63 of a packed key is 0
  ClusterStats run;
  for (std::size_t i = 0; i < sn; ++i) {
    const std::uint64_t v = scratch.proj[i];
    const std::uint32_t si =
        order == nullptr ? static_cast<std::uint32_t>(i) : order[i];
    if (v != prev) {
      if (prev != ~std::uint64_t{0}) {
        out.keys.push_back(prev);
        out.stats.push_back(run);
      }
      prev = v;
      run = src_stats[si];
    } else {
      run += src_stats[si];
    }
    // The open run's rank is the number of already-flushed runs.
    out.src_map[si] = static_cast<std::uint32_t>(out.keys.size());
  }
  if (prev != ~std::uint64_t{0}) {
    out.keys.push_back(prev);
    out.stats.push_back(run);
  }
  return radix_bytes;
}

/// Concatenates the per-mask cell arrays into the canonical sorted-mode
/// CellStore (mask-major, key-ascending) and returns each mask's dense-id
/// base for the LeafCellIndex rank-composition pass.
std::vector<std::uint32_t> assemble_mask_major(
    const std::vector<std::uint8_t>& masks, std::vector<MaskCells>& cells,
    EpochClusterTable& table) {
  VQ_SPAN("expand.merge");
  const std::size_t nm = masks.size();
  std::size_t total = 0;
  for (std::size_t j = 0; j < nm; ++j) total += cells[j].keys.size();
  assert(total < CellStore::kNoCell);

  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  keys.reserve(total);
  stats.reserve(total);
  std::array<std::uint32_t, kFullMask + 2> offsets{};
  std::vector<std::uint32_t> base(nm, 0);
  std::size_t j = 0;
  std::uint32_t running = 0;
  for (unsigned mask = 0; mask <= kFullMask; ++mask) {
    offsets[mask] = running;
    if (j < nm && masks[j] == mask) {
      base[j] = running;
      keys.insert(keys.end(), cells[j].keys.begin(), cells[j].keys.end());
      stats.insert(stats.end(), cells[j].stats.begin(), cells[j].stats.end());
      running += static_cast<std::uint32_t>(cells[j].keys.size());
      ++j;
    }
  }
  offsets[kFullMask + 1] = running;
  table.clusters =
      CellStore::from_mask_major(std::move(keys), std::move(stats), offsets);
  return base;
}

/// The full-lattice engine (floor <= 1), organised as a smallest-parent
/// aggregation DAG: masks are processed tier by tier in
/// decreasing arity, and each mask folds from the cheapest already-computed
/// strict superset (one extra dim) instead of rescanning all leaves — the
/// data-cube trick.  Top-tier masks (and masks whose supersets are all
/// larger than the leaf array) fold straight from the leaves.  Sharding is
/// within a tier: every mask is folded whole by exactly one shard, so there
/// is no cross-shard merge or id remap and the output is independent of the
/// deterministic greedy LPT assignment.  LeafCellIndex rows come out of a
/// final rank-composition sweep: leaf -> full-mask rank is the leaf's own
/// index, and each mask's rank is a single src_map gather from its source's
/// rank, walked in topological (decreasing-arity) order per leaf.
void expand_fold_mask_major(std::span<const std::uint64_t> leaf_keys,
                            std::span<const ClusterStats> leaf_stats,
                            const std::vector<std::uint8_t>& masks,
                            BatchKernel kernel, EpochClusterTable& table,
                            std::uint32_t* rows, ThreadPool* pool,
                            std::size_t shards, std::vector<MaskCells>& cells,
                            ExpandScratch& serial_scratch) {
  const std::size_t num_leaves = leaf_keys.size();
  const std::size_t nm = masks.size();

  std::array<std::uint32_t, kFullMask + 1> index_of{};
  index_of.fill(kLeafSource);
  int max_arity = 0;
  for (std::uint32_t j = 0; j < nm; ++j) {
    index_of[masks[j]] = j;
    max_arity = std::max(max_arity, std::popcount(unsigned{masks[j]}));
  }

  if (cells.size() < nm) cells.resize(nm);
  std::vector<std::uint64_t> cost(nm, 0);
  std::vector<std::uint32_t> topo;  // decreasing arity, ascending mask
  topo.reserve(nm);
  std::uint64_t radix_bytes = 0;
  const bool serial = pool == nullptr || shards <= 1 ||
                      num_leaves < 2 * kMinLeavesPerShard;

  for (int arity = max_arity; arity >= 1; --arity) {
    std::vector<std::uint32_t> tier;
    for (std::uint32_t j = 0; j < nm; ++j) {
      if (std::popcount(unsigned{masks[j]}) == arity) tier.push_back(j);
    }
    topo.insert(topo.end(), tier.begin(), tier.end());

    // Source selection: cheapest of the leaves and every one-dim-larger
    // superset aggregated in the previous tier.  Cell counts are data, not
    // schedule, so the choice is deterministic at any shard/kernel count.
    for (const std::uint32_t j : tier) {
      const std::uint8_t mask = masks[j];
      if (mask == kFullMask) continue;
      cells[j].source = kLeafSource;
      cost[j] = fold_cost(mask, kFullMask, num_leaves);
      for (int d = 0; d < kNumDims; ++d) {
        if ((mask >> d) & 1) continue;
        const std::uint32_t js =
            index_of[mask | static_cast<std::uint8_t>(1u << d)];
        if (js == kLeafSource) continue;
        const std::uint64_t c =
            fold_cost(mask, masks[js], cells[js].keys.size());
        if (c < cost[j]) {
          cost[j] = c;
          cells[j].source = js;
        }
      }
    }

    if (serial || tier.size() <= 1) {
      for (const std::uint32_t j : tier) {
        radix_bytes += expand_mask(j, masks, leaf_keys, leaf_stats, kernel,
                                   cells, serial_scratch);
      }
      continue;
    }
    // Greedy LPT over the fold-cost estimates (sort descending cost,
    // ascending index; assign to the least-loaded shard).
    const std::size_t num_shards = std::min(shards, tier.size());
    std::vector<std::uint32_t> order = tier;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
              });
    std::vector<std::vector<std::uint32_t>> bucket(num_shards);
    std::vector<std::uint64_t> load(num_shards, 0);
    for (const std::uint32_t j : order) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < num_shards; ++s) {
        if (load[s] < load[best]) best = s;
      }
      bucket[best].push_back(j);
      load[best] += cost[j];
    }
    // Tier masks only read cells[] written by earlier tiers and write
    // disjoint cells[j] slots, so the parallel_for join is the only
    // synchronisation needed.
    std::vector<std::uint64_t> shard_bytes(num_shards, 0);
    pool->parallel_for(0, num_shards, [&](std::size_t shard) {
      ExpandScratch scratch;
      for (const std::uint32_t j : bucket[shard]) {
        shard_bytes[shard] += expand_mask(j, masks, leaf_keys, leaf_stats,
                                          kernel, cells, scratch);
      }
    });
    for (const std::uint64_t b : shard_bytes) radix_bytes += b;
  }

  const std::vector<std::uint32_t> base =
      assemble_mask_major(masks, cells, table);

  // Rank composition: one pass over the leaves, each mask's id gathered
  // from its source's local rank through src_map, then the whole segment
  // shifted to global dense ids.  The topo walk is split into three
  // branch-free lists (full-mask / leaf-sourced / cell-sourced); list
  // order preserves the topo guarantee that a source's slot is written
  // before any mask that folds from it, because the full mask and every
  // leaf-sourced mask depend only on `i`, and `children` keeps topo
  // (decreasing-arity) order.
  VQ_SPAN("expand.merge");
  std::uint32_t full_j = kLeafSource;
  std::vector<std::pair<std::uint32_t, const std::uint32_t*>> leaf_fed;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, const std::uint32_t*>>
      children;
  for (const std::uint32_t jj : topo) {
    const MaskCells& c = cells[jj];
    if (masks[jj] == kFullMask) {
      full_j = jj;
    } else if (c.source == kLeafSource) {
      leaf_fed.emplace_back(jj, c.src_map.data());
    } else {
      children.emplace_back(jj, c.source, c.src_map.data());
    }
  }
  const auto fill = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint32_t* seg = rows + i * nm;
      if (full_j != kLeafSource) {
        seg[full_j] = static_cast<std::uint32_t>(i);
      }
      for (const auto& [jj, map] : leaf_fed) seg[jj] = map[i];
      for (const auto& [jj, src, map] : children) seg[jj] = map[seg[src]];
      for (std::size_t t = 0; t < nm; ++t) seg[t] += base[t];
    }
  };
  if (serial) {
    fill(0, num_leaves);
  } else {
    pool->parallel_for(0, shards, [&](std::size_t shard) {
      fill(num_leaves * shard / shards,
           num_leaves * (shard + 1) / shards);
    });
  }
  expand_metrics().radix_bytes.add(radix_bytes);
}

/// The row-group step's buffers.  `value_sessions` holds one session total
/// per (dimension, value) and is all zero between calls.
struct RowGroupBuffers {
  std::vector<std::uint32_t> value_sessions;
  std::vector<std::uint64_t> reduced;    // per leaf: the reduced key
  FlatMap64<std::uint32_t> group_of;     // reduced key -> group + 1
  std::vector<std::uint64_t> keys;       // per group: the reduced key
  std::vector<ClusterStats> stats;       // per group: its leaves' sum
};

/// Groups the canonical leaves into row groups for a pruned expansion at
/// `floor` (see the file comment of cluster_engine.h): sums sessions per
/// (dimension, value), reduces every leaf key by the values below the
/// floor, and merges leaves with equal reduced keys, numbering the groups
/// in first-appearance order.  Writes each leaf's group to `leaf_group`,
/// and the groups' reduced keys and summed stats to g.keys and g.stats.
/// A dropped value is recorded by the cleared mask bit alone, so no field
/// value is reserved for it.
void group_leaves(std::span<const std::uint64_t> leaf_keys,
                  std::span<const ClusterStats> leaf_stats,
                  std::uint32_t floor, RowGroupBuffers& g,
                  std::vector<std::uint32_t>& leaf_group) {
  VQ_SPAN("expand.group");
  std::array<int, kNumDims> offset{};
  std::array<std::uint64_t, kNumDims> field{};
  std::array<std::uint64_t, kNumDims> clear{};  // field and mask bit
  std::array<std::size_t, kNumDims> base{};     // first slot of dim d
  std::size_t slots = 0;
  for (int d = 0; d < kNumDims; ++d) {
    const DimField f = dim_field(static_cast<AttrDim>(d));
    offset[d] = f.offset;
    field[d] = (std::uint64_t{1} << f.bits) - 1;
    clear[d] = (field[d] << f.offset) | (std::uint64_t{1} << d);
    base[d] = slots;
    slots += std::size_t{1} << f.bits;
  }
  g.value_sessions.resize(slots);
  std::uint32_t* totals = g.value_sessions.data();
  const auto slot_of = [&](std::uint64_t key, int d) {
    return base[d] + ((key >> offset[d]) & field[d]);
  };

  // Every allocation comes before the totals fill, so nothing can throw
  // between filling them and zeroing them again.
  const std::size_t n = leaf_keys.size();
  g.reduced.resize(n);
  leaf_group.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = leaf_keys[i];
    const std::uint32_t sessions = leaf_stats[i].sessions;
    for (int d = 0; d < kNumDims; ++d) totals[slot_of(key, d)] += sessions;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = leaf_keys[i];
    std::uint64_t reduced = key;
    for (int d = 0; d < kNumDims; ++d) {
      reduced &= totals[slot_of(key, d)] >= floor ? ~std::uint64_t{0}
                                                  : ~clear[d];
    }
    g.reduced[i] = reduced;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < kNumDims; ++d) totals[slot_of(leaf_keys[i], d)] = 0;
  }

  g.keys.clear();
  g.stats.clear();
  g.group_of.clear();  // keeps its capacity: sized by earlier epochs
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t reduced = g.reduced[i];
    // A leaf that keeps every value is alone in its group: no other leaf
    // reduces to its full key, so it skips the map.
    std::uint32_t* group = reduced == leaf_keys[i]
                               ? nullptr
                               : &g.group_of[reduced];  // group + 1
    if (group == nullptr || *group == 0) {
      leaf_group[i] = static_cast<std::uint32_t>(g.keys.size());
      g.keys.push_back(reduced);
      g.stats.push_back(leaf_stats[i]);
      if (group != nullptr) *group = leaf_group[i] + 1;
    } else {
      leaf_group[i] = *group - 1;
      g.stats[leaf_group[i]] += leaf_stats[i];
    }
  }
}

/// A row group as the pruned engine's splits see it: its reduced key and
/// sessions travel with it, so the passes over a cube group read one
/// contiguous array.
struct CubeMember {
  std::uint64_t key;
  std::uint32_t sessions;
  std::uint32_t row;  // the row group's number
};

/// Per-value tallies of one split; reset through the touched list after use.
struct ValueSlot {
  std::uint32_t sessions = 0;
  std::uint32_t leaves = 0;  // then the scatter cursor, or kSkip
};

/// The significant values of a split and each one's end in the next
/// level's buffer; one per depth, as they outlive the children.
struct CubeSplit {
  std::vector<std::uint32_t> values;
  std::vector<std::uint32_t> ends;
};

/// The pruned engine's buffers: the row groups, the recursion's state, its
/// emitted cells, and the canonical order.  The cells' member lists go
/// straight to the table's LeafCellIndex::cell_rows.
struct CubeBuffers {
  RowGroupBuffers row_groups;
  std::vector<ValueSlot> slots;  // indexed by attribute value, then one
                                 // slot for "dimension absent"; all zero
                                 // between splits
  std::vector<std::uint32_t> touched;
  std::vector<std::vector<CubeMember>> level;  // group buffer per depth
  std::vector<CubeSplit> split;
  // Emitted cells in emission order: key, stats, and the end of the cell's
  // member list, which starts where the previous cell's ends.
  std::vector<std::uint64_t> keys;
  std::vector<ClusterStats> stats;
  std::vector<std::size_t> member_end;
  std::vector<std::uint32_t> order;  // dense id -> emitted cell
};

/// The significance-pruned engine (expand_fold with a floor above 1): the
/// iceberg cube of BUC (Beyer & Ramakrishnan, SIGMOD 1999), run over the
/// row groups of group_leaves.  Starting from the root's group of all row
/// groups, a group is split by one more dimension and only the sub-groups
/// whose session sum reaches the floor become cells and are split further.
/// A refinement never holds more sessions than its parent, so no cell below
/// the floor has a descendant at or above it and the recursion visits
/// exactly the cells with sessions >= floor.  A row group whose reduced key
/// lacks the split's dimension joins no sub-group: its leaves' value there
/// is below the floor, and so is every cell that fixes it.
///
/// Each cell is reached along one path, adding its dimensions in
/// kSplitOrder.  Following BUC, that order puts high-cardinality dimensions
/// first: their splits make small groups early, so the wide groups of the
/// low-cardinality dimensions come last and are split by few further
/// dimensions.  Splits scatter row groups stably and the root group holds
/// them in ascending number, so every cell's member list is ascending.
class IcebergCube {
 public:
  /// Emits cells into `b` and their member lists into `members` (the
  /// previous contents of both are dropped, their capacity kept).
  IcebergCube(CubeBuffers& b, std::vector<std::uint32_t>& members,
              std::span<const std::uint64_t> row_keys,
              std::span<const ClusterStats> row_stats, std::uint32_t floor,
              int max_arity)
      : b_(b),
        members_(members),
        row_stats_(row_stats),
        floor_(floor),
        max_arity_(static_cast<std::size_t>(max_arity)) {
    b_.slots.resize((std::size_t{1} << kMaxDimBits) + 1);
    if (b_.level.size() < max_arity_ + 1) b_.level.resize(max_arity_ + 1);
    if (b_.split.size() < max_arity_) b_.split.resize(max_arity_);
    b_.keys.clear();
    b_.stats.clear();
    b_.member_end.clear();
    members_.clear();
    b_.level[0].resize(row_keys.size());
    for (std::uint32_t i = 0; i < row_keys.size(); ++i) {
      b_.level[0][i] = {row_keys[i], row_stats[i].sessions, i};
    }
  }

  /// Runs the recursion from the root.
  void build() { split(0, 0, b_.level[0].size(), 0, 0); }

 private:
  static constexpr int kMaxDimBits =
      *std::max_element(kDimBits.begin(), kDimBits.end());
  static constexpr std::uint32_t kSkip = ~std::uint32_t{0};
  /// Widest value field first: field width stands in for cardinality.
  static constexpr std::array<AttrDim, kNumDims> kSplitOrder = {
      AttrDim::kAsn,      AttrDim::kSite,   AttrDim::kCdn,
      AttrDim::kConnType, AttrDim::kPlayer, AttrDim::kBrowser,
      AttrDim::kVodLive};

  /// Splits the group level[depth][lo, hi) with packed key `key` by every
  /// dimension from kSplitOrder[from] on, emitting and refining each
  /// sub-group that reaches the floor.
  void split(std::size_t depth, std::size_t lo, std::size_t hi,
             std::uint64_t key, std::size_t from) {
    const std::vector<CubeMember>& group = b_.level[depth];
    std::vector<CubeMember>& children = b_.level[depth + 1];
    std::vector<ValueSlot>& slots = b_.slots;
    std::vector<std::uint32_t>& touched = b_.touched;
    CubeSplit& s = b_.split[depth];
    for (std::size_t p = from; p < kSplitOrder.size(); ++p) {
      const AttrDim d = kSplitOrder[p];
      const DimField f = dim_field(d);
      const std::uint64_t field = (std::uint64_t{1} << f.bits) - 1;
      // Members without dimension d tally in the slot just past the
      // field's values, which never becomes a sub-group.
      const std::uint32_t absent = std::uint32_t{1} << f.bits;
      const auto value = [&](const CubeMember& m) {
        return (m.key & dim_bit(d)) != 0
                   ? static_cast<std::uint32_t>((m.key >> f.offset) & field)
                   : absent;
      };

      touched.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t v = value(group[i]);
        ValueSlot& slot = slots[v];
        if (slot.leaves++ == 0) touched.push_back(v);
        slot.sessions += group[i].sessions;
      }
      s.values.clear();
      for (const std::uint32_t v : touched) {
        if (v != absent && slots[v].sessions >= floor_) {
          s.values.push_back(v);
        } else {
          slots[v].leaves = kSkip;
        }
      }
      if (s.values.empty()) {
        for (const std::uint32_t v : touched) slots[v] = {};
        continue;
      }
      std::uint32_t cursor = 0;
      for (const std::uint32_t v : s.values) {
        const std::uint32_t n = slots[v].leaves;
        slots[v].leaves = cursor;
        cursor += n;
      }
      if (children.size() < cursor) children.resize(cursor);
      for (std::size_t i = lo; i < hi; ++i) {
        std::uint32_t& at = slots[value(group[i])].leaves;
        if (at != kSkip) children[at++] = group[i];
      }
      s.ends.clear();
      for (const std::uint32_t v : s.values) s.ends.push_back(slots[v].leaves);
      for (const std::uint32_t v : touched) slots[v] = {};

      std::uint32_t begin = 0;
      for (std::size_t k = 0; k < s.values.size(); ++k) {
        const std::uint32_t end = s.ends[k];
        const std::uint64_t child = key |
                                    (std::uint64_t{s.values[k]} << f.offset) |
                                    dim_bit(d);
        emit(child, children, begin, end);
        if (p + 1 < kSplitOrder.size() && depth + 1 < max_arity_) {
          split(depth + 1, begin, end, child, p + 1);
        }
        begin = end;
      }
    }
  }

  void emit(std::uint64_t key, const std::vector<CubeMember>& group,
            std::uint32_t begin, std::uint32_t end) {
    const std::size_t at = members_.size();
    members_.resize(at + (end - begin));
    std::uint32_t* out = members_.data() + at;
    ClusterStats sum;
    for (std::uint32_t i = begin; i < end; ++i) {
      sum += row_stats_[group[i].row];
      *out++ = group[i].row;
    }
    assert(b_.keys.size() < CellStore::kNoCell);
    b_.keys.push_back(key);
    b_.stats.push_back(sum);
    b_.member_end.push_back(members_.size());
  }

  CubeBuffers& b_;
  std::vector<std::uint32_t>& members_;
  std::span<const ClusterStats> row_stats_;
  std::uint32_t floor_;
  std::size_t max_arity_;
};

/// Builds the pruned table and its cell-major index over the row groups
/// (the caller has grouped the leaves): every cell's member list, as the
/// cube emitted it, with its bounds by dense id.
void expand_fold_pruned(std::span<const std::uint64_t> row_keys,
                        std::span<const ClusterStats> row_stats,
                        int max_arity, std::uint32_t floor, CubeBuffers& b,
                        EpochClusterTable& table) {
  LeafCellIndex& index = table.leaf_index;
  IcebergCube cube{b, index.cell_rows, row_keys, row_stats, floor, max_arity};
  {
    VQ_SPAN("expand.prune");
    cube.build();
  }

  VQ_SPAN("expand.merge");
  // Canonical dense ids: emitted cells sorted by (mask, key).
  const std::size_t n = b.keys.size();
  b.order.resize(n);
  for (std::uint32_t c = 0; c < n; ++c) b.order[c] = c;
  const auto canonical = [&](std::uint32_t x, std::uint32_t y) {
    const std::uint64_t kx = b.keys[x];
    const std::uint64_t ky = b.keys[y];
    return (kx & kFullMask) != (ky & kFullMask)
               ? (kx & kFullMask) < (ky & kFullMask)
               : kx < ky;
  };
  std::sort(b.order.begin(), b.order.end(), canonical);

  std::array<std::uint32_t, kFullMask + 2> offsets{};
  std::vector<std::uint64_t> keys(n);
  std::vector<ClusterStats> stats(n);
  index.member_bounds.resize(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    const std::uint32_t c = b.order[id];
    keys[id] = b.keys[c];
    stats[id] = b.stats[c];
    index.member_bounds[id] = {c == 0 ? 0 : b.member_end[c - 1],
                               b.member_end[c]};
    ++offsets[(keys[id] & kFullMask) + 1];
  }
  for (std::size_t m = 1; m < offsets.size(); ++m) {
    offsets[m] += offsets[m - 1];
  }
  table.clusters =
      CellStore::from_mask_major(std::move(keys), std::move(stats), offsets);
}

}  // namespace

struct ExpandWorkspace::Buffers {
  CubeBuffers cube;
  std::vector<MaskCells> mask_cells;
  ExpandScratch mask_scratch;
};

ExpandWorkspace::ExpandWorkspace() : buffers_(std::make_unique<Buffers>()) {}
ExpandWorkspace::~ExpandWorkspace() = default;

namespace {

/// Copies the fold's leaves into the index's key and stats arrays, checking
/// that they are canonical (cluster_engine.h, LeafFold).
void take_leaves(const LeafFold& fold, LeafCellIndex& index) {
  const std::size_t n = fold.leaves.size();
  index.leaf_keys.resize(n);
  index.leaf_stats.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FoldLeaf& leaf = fold.leaves[i];
    if ((leaf.key & kFullMask) != kFullMask) {
      throw std::invalid_argument{
          "expand_fold: fold leaf key is not full-arity"};
    }
    if (i > 0 && leaf.key <= index.leaf_keys[i - 1]) {
      throw std::invalid_argument{
          "expand_fold: fold leaf keys do not strictly ascend"};
    }
    index.leaf_keys[i] = leaf.key;
    index.leaf_stats[i] = leaf.stats;
  }
}

}  // namespace

void expand_fold_into(const LeafFold& fold, const ClusterEngineConfig& config,
                      ThreadPool* pool, std::size_t shards,
                      std::uint32_t floor, ExpandWorkspace& workspace,
                      EpochClusterTable& table) {
  LeafCellIndex& index = table.leaf_index;
  index.masks = lattice_masks(config.max_arity);
  const std::vector<std::uint8_t>& masks = index.masks;
  const bool prune = floor > 1;
  ExpandWorkspace::Buffers& b = workspace.buffers();

  table.epoch = fold.epoch;
  table.root = fold.root;
  table.floor = prune ? floor : 0;

  // Canonical leaf order, ascending raw key, as the fold delivers it.  It
  // fixes the dense-id assignment and the iteration order of every
  // downstream per-leaf sweep at any shard count.  Both engines consume
  // the contiguous key/stat arrays, which stay on the table as the index.
  take_leaves(fold, index);
  const std::size_t num_leaves = index.leaf_keys.size();

  if (prune) {
    // One member list per cell, over the row groups.
    RowGroupBuffers& groups = b.cube.row_groups;
    group_leaves(index.leaf_keys, index.leaf_stats, floor, groups,
                 index.leaf_group);
    index.layout = LeafCellIndex::Layout::kCellMembers;
    index.groups = groups.keys.size();
    index.row_offsets.clear();
    expand_fold_pruned(groups.keys, groups.stats, config.max_arity, floor,
                       b.cube, table);
  } else {
    // Full lattice: one row per leaf, one id per mask in every row.
    index.leaf_group.resize(num_leaves);
    std::iota(index.leaf_group.begin(), index.leaf_group.end(), 0u);
    index.layout = LeafCellIndex::Layout::kGroupRows;
    index.groups = num_leaves;
    index.member_bounds.clear();
    const std::size_t nm = masks.size();
    index.row_offsets.resize(num_leaves + 1);
    for (std::size_t i = 0; i <= num_leaves; ++i) {
      index.row_offsets[i] = i * nm;
    }
    index.cell_rows.resize(num_leaves * nm);
    expand_fold_mask_major(index.leaf_keys, index.leaf_stats, masks,
                           config.expand_kernel, table,
                           index.cell_rows.data(), pool, shards, b.mask_cells,
                           b.mask_scratch);
  }

  ExpandMetrics& metrics = expand_metrics();
  metrics.leaves.add(static_cast<std::uint64_t>(num_leaves));
  metrics.row_groups.add(static_cast<std::uint64_t>(index.num_groups()));
  metrics.cells.add(static_cast<std::uint64_t>(table.clusters.size()));
}

EpochClusterTable expand_fold(const LeafFold& fold,
                              const ClusterEngineConfig& config,
                              ThreadPool* pool, std::size_t shards,
                              std::uint32_t floor) {
  ExpandWorkspace workspace;
  EpochClusterTable table;
  expand_fold_into(fold, config, pool, shards, floor, workspace, table);
  return table;
}

EpochClusterTable aggregate_epoch(std::span<const Session> sessions,
                                  const ProblemThresholds& thresholds,
                                  const ClusterEngineConfig& config,
                                  std::uint32_t epoch) {
  // Validate the arity cap before folding, so a bad config is rejected
  // before any work.
  (void)lattice_masks(config.max_arity);
  return expand_fold(fold_sessions(sessions, thresholds, epoch), config);
}

}  // namespace vq

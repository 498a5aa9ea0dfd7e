// Batch kernels for the mask-major, hash-free lattice expansion
// (cluster_engine.cpp, DESIGN.md §4.10).
//
// A leaf-major expansion pays one random-access hash bump per (leaf, mask)
// projection — |leaves| x up to 127 probes into a table the size of the
// whole cell store.  The mask-major engine inverts the loop: for each
// lattice mask it projects *all* sorted leaf keys into a contiguous u64
// buffer (one AND+OR per key — the batch form of ClusterKey::project), then
// groups equal projected keys and folds each run of ClusterStats once.
// Everything here is the kernel layer for that plan:
//
//  * lattice_field_mask / project_keys — the projection itself, with
//    AVX2/SSE2 variants and a scalar fallback that are bit-identical
//    (pure integer AND/OR, mirroring the columns.h kernel discipline).
//  * chain_head / radix_plan / radix_sort_pairs — the grouping machinery.
//    A sorted key array groups contiguously under a projection only when
//    the dropped dimensions all sit below the mask's lowest dimension
//    (prefix-aligned); chain_head(m) names the smallest such sort order.
//    Non-aligned masks are grouped by an LSD radix sort of (projected key,
//    source row) pairs over exactly the occupied 8-bit digits of the
//    projected keys (constant digits are skipped), then accumulated with
//    the same linear run-length scan.  No hash table appears anywhere.
//
// The engine arranges these kernels as a smallest-parent aggregation DAG
// (the data-cube trick): each mask folds from the cheapest already-computed
// one-dim-larger superset's cells rather than from all leaves, so both the
// sort inputs and the run scans shrink to cell counts (cluster_engine.cpp).
//
// Determinism: radix sorting is stable and keyed only on the projected
// value, so the per-mask run order is ascending projected key — the
// canonical (mask-major, key-ascending) dense-id order — independent of
// kernel variant, worker count, or which shard processed the mask.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/batch_kernel.h"

namespace vq {

/// OR of the packed value-field bit ranges of every dimension in `mask` —
/// the bits ClusterKey::project keeps besides the low 7 mask bits.
[[nodiscard]] std::uint64_t lattice_field_mask(std::uint8_t mask) noexcept;

/// Batch projection: out[i] = mask | (keys[i] & lattice_field_mask(mask)).
/// Equivalent to ClusterKey::from_raw(keys[i]).project(mask).raw() when
/// every key carries the dimensions in `mask` — true for full-arity leaf
/// keys and for head-projected keys of any superset head.  `out` must hold
/// `n` elements and may not alias `keys`.
void project_keys(const std::uint64_t* keys, std::size_t n,
                  std::uint8_t mask, std::uint64_t* out,
                  BatchKernel kernel = BatchKernel::kAuto);

/// The chain head of a mask: `mask` with every dimension bit below its
/// lowest set bit filled in.  Sorting leaf keys by the head's projection
/// makes the projection of every mask with that head contiguous (equal
/// keys adjacent, ascending), because the head's extra dimensions are all
/// strictly less significant than the member's own.  chain_head(m) == m
/// exactly when m already includes dimension 0; masks whose chain head is
/// kFullMask (top-aligned runs) need no sort at all — the canonical
/// ascending-leaf order already groups them.
[[nodiscard]] constexpr std::uint8_t chain_head(std::uint8_t mask) noexcept {
  return static_cast<std::uint8_t>(
      mask | ((1u << (mask == 0 ? 0 : __builtin_ctz(mask))) - 1u));
}

/// Digit schedule for the LSD radix sort of keys projected by `head_mask`:
/// right-shift amounts of the 8-bit digits covering the occupied bit span,
/// least significant first.  Digits whose window contains no value-field
/// bit of the head are constant across all keys and are skipped, so a
/// narrow head (few/low dimensions) sorts in 1-3 passes instead of 8.
struct RadixPlan {
  std::array<std::uint8_t, 8> shifts{};
  int passes = 0;
};
[[nodiscard]] RadixPlan radix_plan(std::uint8_t head_mask) noexcept;

/// Stable LSD radix sort of the parallel (keys[i], rows[i]) arrays by the
/// plan's digits, ascending.  All digit histograms are gathered in one
/// read pass, then each pass scatters both arrays through the scratch
/// buffers (grown as needed); the sorted data always ends up back in
/// `keys`/`rows` (buffers are swapped, never copied).  Planned passes whose
/// digit turns out constant across the actual keys are skipped (a stable
/// identity scatter — common for small attribute cardinalities).  Returns
/// the scatter traffic in bytes — n * executed passes * (key + row width) —
/// a pure function of the key multiset and the plan, so the
/// expand.radix_bytes counter it feeds is identical at any worker/shard
/// count.
std::uint64_t radix_sort_pairs(std::vector<std::uint64_t>& keys,
                               std::vector<std::uint32_t>& rows,
                               const RadixPlan& plan,
                               std::vector<std::uint64_t>& key_scratch,
                               std::vector<std::uint32_t>& row_scratch);

/// Reusable per-worker buffers for one shard of the mask-major expansion;
/// capacity is retained across masks and epochs.
struct ExpandScratch {
  std::vector<std::uint64_t> proj;         // mask-projected source keys
  std::vector<std::uint32_t> rows;         // source row permutation
  std::vector<std::uint64_t> key_scratch;  // radix double buffer
  std::vector<std::uint32_t> row_scratch;  // radix double buffer
};

}  // namespace vq

// Per-epoch cluster lattice aggregation (paper §3.1).
//
// A session belongs to one lattice cell per non-empty subset of its seven
// attribute values — up to 127 cells, fewer under an arity cap — and each
// cell carries the {total, per-metric problem} counters of its sessions.
// The result is one indexed cell store per epoch mapping packed ClusterKey
// -> dense cell id -> ClusterStats, plus the epoch's global counters (the
// lattice root).  Given the analysis floor (ProblemClusterParams::
// min_sessions), expand_fold materialises only the cells that reach it:
// every §3.2 test reads significant cells alone, and a cell below the
// floor has no descendant at or above it (see "pruned" below).
//
// Aggregation runs in two passes.  Pass 1 (fold_sessions) folds sessions
// onto their distinct full-arity leaves.  Pass 2 (expand_fold) expands each
// *distinct* leaf across its projections, adding the leaf's whole counter
// block per cell, so the expensive part shrinks by the sessions-per-leaf
// ratio.
//
// Pass 1 is a radix fold with no hash table.  Each session becomes one u64
// fold code (fold_code): its full-arity leaf key with the session's four
// problem bits in the seven mask bits, which every leaf key sets to
// kFullMask.  The kernel (fold_codes) sorts the codes by an LSD radix over
// the key digits that vary and writes each run of one leaf's codes as one
// leaf, so the leaves come out in the canonical order — ascending raw key
// — with no leaf sort after them.  The row fold, the columnar fold
// (columns.h) and the sketch admission tier (baseline/hhh.h) all end in it.
//
// Pass 2 builds the lattice's cells at the analysis floor with one engine
// at every floor: the iceberg cube, built bottom-up from the root as BUC
// does (Beyer & Ramakrishnan, SIGMOD 1999).  It splits a group's leaves by
// one more dimension and refines only the sub-groups whose session sum
// reaches the floor, because a refinement never holds more sessions than
// its parent.  A group of one row group (below) writes all its refinements
// out at once, as BUC writes a one-tuple partition's.  Above floor 1 the
// store holds exactly the full lattice's cells with sessions >= floor, and
// EpochClusterTable::floor records the floor so that an analysis at a
// lower min_sessions throws instead of silently missing cells.  At floor 0
// or 1 the cube runs at floor 0, so it builds every cell some leaf
// reaches: the full lattice.
//
// Before the cube, the engine drops infrequent items as FP-growth does
// (Han, Pei & Yin, SIGMOD 2000).  An attribute value is *kept* when its
// one-attribute cell reaches the floor.  Each leaf's *reduced key* clears
// the field and the mask bit of every dimension whose value is not kept,
// and leaves with equal reduced keys merge into one *row group*.  The cube
// splits groups, not leaves.  This is exact: a cell at or above the floor
// holds no more sessions than any of its one-attribute projections, so
// every value it fixes is kept, and whether a leaf belongs to it depends
// on the reduced key alone.  Leaves of one group therefore belong to the
// same cells.  On the e2ebench paper world 2.7 % of an epoch's attribute
// values are kept, and 57 % of its leaves remain as row groups (44 % on
// the bench world).  At floor 0 every value is kept and every leaf is its
// own group.
//
// The cube emits cells depth first, into one bucket per mask.  Dense ids
// follow the canonical (mask-major, key-ascending) order: the buckets in
// ascending mask order, each put in key order by an LSD radix sort over
// the key digits that vary, so ids never depend on the emission order.
//
// tests/test_oracle.cpp checks the engine against a brute-force
// aggregation of the raw sessions (tests/oracle.h).
//
// Cells are stored *indexed*: dense uint32 id -> ClusterStats in one
// contiguous vector, built sorted, so a key resolves by binary search
// within its mask group (no hash table at all).  As a byproduct of pass 2,
// expand_fold records a LeafCellIndex: the cube's member lists, one per
// cell, listing the row groups the cell holds.  Nothing transposes them
// into per-leaf rows (a paper-world leaf has 19.7 of its 127 projections
// at or above the floor).  The critical-cluster analysis
// (critical_cluster.h) scatters per-cell flag words over them instead of
// looking cells up per leaf.
//
// expand_fold takes the fold's leaves in their canonical order as they are.
// expand_fold_into rebuilds a caller's table in place and draws every
// scratch buffer from an ExpandWorkspace; EpochAnalyzer (epoch_analyzer.h)
// keeps both across epochs, so a stream of epochs allocates its large
// buffers once.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/session.h"

namespace vq {

class ThreadPool;

/// Counters for one cluster within one epoch.
struct ClusterStats {
  std::uint32_t sessions = 0;
  std::array<std::uint32_t, kNumMetrics> problems{};

  [[nodiscard]] double problem_ratio(Metric m) const noexcept {
    return sessions == 0
               ? 0.0
               : static_cast<double>(
                     problems[static_cast<std::uint8_t>(m)]) /
                     static_cast<double>(sessions);
  }

  ClusterStats& operator+=(const ClusterStats& o) noexcept {
    sessions += o.sessions;
    for (int m = 0; m < kNumMetrics; ++m) problems[m] += o.problems[m];
    return *this;
  }

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;

  /// Saturating subtraction (used by the critical-cluster removal test).
  [[nodiscard]] ClusterStats minus(const ClusterStats& o) const noexcept;
};

/// Dense-id cell store: raw ClusterKey -> uint32 id with the ClusterStats
/// in one contiguous vector keyed by id.  Iteration order is id order.
///
/// from_mask_major builds it (expand_fold does) with the keys laid out in
/// canonical (mask-major, key-ascending) id order; a lookup binary-searches
/// the key's mask group, so reads are hash-free, allocation-free, and safe
/// from concurrent threads.  A store never changes once built.  A
/// default-constructed store is empty and answers kNoCell (find: nullptr)
/// for every key, which is what a default EpochClusterTable holds.
class CellStore {
 public:
  /// Sentinel for "no cell" in id-typed contexts.
  static constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

  /// Builds a store from canonical arrays: keys/stats in (mask-major,
  /// key-ascending) dense-id order, with `mask_offsets[m] ..
  /// mask_offsets[m + 1]` delimiting mask m's id range (the final entry
  /// must equal keys.size()).  Throws std::invalid_argument on inconsistent
  /// array shapes.
  static CellStore from_mask_major(
      std::vector<std::uint64_t> keys, std::vector<ClusterStats> stats,
      const std::array<std::uint32_t, kFullMask + 2>& mask_offsets);

  [[nodiscard]] std::size_t size() const noexcept { return stats_.size(); }
  [[nodiscard]] bool empty() const noexcept { return stats_.empty(); }

  /// Dense id for `raw`, or kNoCell when absent.
  [[nodiscard]] std::uint32_t id_of(std::uint64_t raw) const noexcept;

  [[nodiscard]] const ClusterStats* find(std::uint64_t raw) const noexcept {
    const std::uint32_t id = id_of(raw);
    return id == kNoCell ? nullptr : &stats_[id];
  }

  [[nodiscard]] bool contains(std::uint64_t raw) const noexcept {
    return id_of(raw) != kNoCell;
  }

  [[nodiscard]] std::uint64_t key(std::uint32_t id) const noexcept {
    return keys_[id];
  }
  [[nodiscard]] const ClusterStats& cell(std::uint32_t id) const noexcept {
    return stats_[id];
  }
  [[nodiscard]] std::span<const std::uint64_t> keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] std::span<const ClusterStats> cells() const noexcept {
    return stats_;
  }

  /// Invokes fn(raw_key, stats) for every cell in dense-id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t id = 0; id < stats_.size(); ++id) {
      fn(keys_[id], stats_[id]);
    }
  }

 private:
  std::vector<std::uint64_t> keys_;
  std::vector<ClusterStats> stats_;
  /// The id range of mask m is [mask_offsets_[m], mask_offsets_[m + 1]);
  /// keys_ ascend within each range.
  std::array<std::uint32_t, kFullMask + 2> mask_offsets_{};
};

/// Byproduct of the pass-2 expansion: which materialised cells hold each
/// distinct leaf.  Leaves are sorted by ascending raw key — the canonical
/// order the critical sweep attributes them in (see critical_cluster.h).
///
/// Leaves are held in *row groups*: leaf i is in group leaf_group[i].  On a
/// table pruned above floor 1 a group is the set of leaves whose keys agree
/// once every attribute value below the floor is dropped (see the file
/// comment): no cell at or above the floor tells them apart, so they are
/// members of the same cells.  Groups are numbered in the order their first
/// leaf appears.  A full lattice, or a pruned one where every value reaches
/// the floor, has one group per leaf and leaf_group is the identity.
///
/// The group-cell membership relation is stored cell-major, as the iceberg
/// cube produces it: cell id c's member list, members(c), lists the groups
/// it holds in ascending order.  The lists lie in cell_rows in the order
/// the cube emitted the cells; member_bounds[c] delimits cell c's.
/// A group is a member of exactly its projections with sessions >=
/// EpochClusterTable::floor, and every entry names a present group.
struct LeafCellIndex {
  std::vector<std::uint64_t> leaf_keys;   // distinct leaves, ascending raw
  std::vector<ClusterStats> leaf_stats;   // parallel to leaf_keys
  std::vector<std::uint32_t> leaf_group;  // parallel to leaf_keys
  std::size_t groups = 0;                 // number of row groups
  std::vector<std::pair<std::size_t, std::size_t>>
      member_bounds;                      // per cell id
  std::vector<std::uint32_t> cell_rows;   // the member lists

  [[nodiscard]] bool empty() const noexcept { return leaf_keys.empty(); }
  [[nodiscard]] std::size_t num_leaves() const noexcept {
    return leaf_keys.size();
  }
  [[nodiscard]] std::size_t num_groups() const noexcept { return groups; }
  /// The groups cell `id` holds.
  [[nodiscard]] std::span<const std::uint32_t> members(
      std::uint32_t id) const noexcept {
    const auto [begin, end] = member_bounds[id];
    return std::span{cell_rows}.subspan(begin, end - begin);
  }
};

struct ClusterEngineConfig {
  /// Largest attribute-subset size to materialise. kNumDims materialises
  /// all 127 lattice masks (default, what the paper's method implies); lower
  /// caps trade fidelity for speed (explored in the perf benches).
  int max_arity = kNumDims;
};

/// All cluster statistics of one epoch.
struct EpochClusterTable {
  std::uint32_t epoch = 0;
  ClusterStats root;  // the epoch's global counters
  CellStore clusters;
  /// Each cell's member row groups, built by expand_fold.
  LeafCellIndex leaf_index;
  /// Session floor the lattice was pruned at: `clusters` holds exactly the
  /// cells with sessions >= floor.  0 for a full lattice.  Analyses throw
  /// std::invalid_argument when their min_sessions is below it.
  std::uint32_t floor = 0;

  [[nodiscard]] double global_ratio(Metric m) const noexcept {
    return root.problem_ratio(m);
  }

  /// Stats for a key; zeros when the cluster never appeared or fell below
  /// the floor.
  [[nodiscard]] ClusterStats stats(const ClusterKey& key) const noexcept;
};

/// One distinct leaf of a LeafFold: its full-arity key and the combined
/// counters of the sessions on it.
struct FoldLeaf {
  std::uint64_t key = 0;
  ClusterStats stats;

  friend bool operator==(const FoldLeaf&, const FoldLeaf&) = default;
};

/// Pass-1 output: sessions folded onto their distinct full-arity leaves.
/// `leaves` is canonical: one entry per distinct leaf key
/// ClusterKey::pack(kFullMask, attrs).raw(), in ascending key order, with
/// the combined counters of every session on that leaf.  `root` holds the
/// epoch's global counters, which is the leaves' sum except under a fold
/// provider that admits only some leaves (PipelineConfig::fold_provider).
/// expand_fold throws std::invalid_argument on a fold that is not
/// canonical.
struct LeafFold {
  std::uint32_t epoch = 0;
  ClusterStats root;
  std::vector<FoldLeaf> leaves;
  /// Scratch of fold_codes, not part of the fold: one fold_code per session
  /// and the radix sort's second buffer.  A fold refilled every epoch keeps
  /// their capacity.
  std::vector<std::uint64_t> codes;
  std::vector<std::uint64_t> code_scratch;

  /// Empties the fold for `e`, keeping its buffers' capacity (the
  /// streaming consumers refill one fold per epoch).  The scratch keeps its
  /// contents; a fold call sizes `codes` before it writes them.
  void reset(std::uint32_t e) noexcept {
    epoch = e;
    root = {};
    leaves.clear();
  }

  /// Frees the scratch, for a fold kept past its fold call.
  void release_scratch() noexcept {
    std::vector<std::uint64_t>().swap(codes);
    std::vector<std::uint64_t>().swap(code_scratch);
  }
};

/// A session's fold code: its full-arity leaf key with the session's
/// problem bits (ProblemThresholds::problem_bits) in the seven mask bits.
/// Every leaf key sets those bits to kFullMask, so they carry no
/// information, and `code | kFullMask` is the leaf key again.
[[nodiscard]] constexpr std::uint64_t fold_code(
    std::uint64_t leaf_key, std::uint8_t problem_bits) noexcept {
  return (leaf_key & ~std::uint64_t{kFullMask}) | problem_bits;
}

/// The kernel every fold ends in (see the file comment): folds
/// `fold.codes`, one fold_code per session in any order, into canonical
/// `fold.leaves` and sets `fold.root` to their sum.  Leaves fold.codes
/// permuted.  Throws std::length_error on 2^32 or more codes, which no
/// leaf's 32-bit counters could hold.
void fold_codes(LeafFold& fold);

/// Folds one epoch's sessions into their distinct leaves.  All sessions
/// must carry the same epoch id as `epoch`.  The returned fold holds no
/// scratch.
[[nodiscard]] LeafFold fold_sessions(std::span<const Session> sessions,
                                     const ProblemThresholds& thresholds,
                                     std::uint32_t epoch);

/// fold_sessions into `fold`, which is reset first (its capacity is kept).
void fold_sessions_into(std::span<const Session> sessions,
                        const ProblemThresholds& thresholds,
                        std::uint32_t epoch, LeafFold& fold);

/// Scratch buffers of expand_fold_into: the row groups (per-value session
/// totals, reduced keys, the group map and the groups' keys and stats),
/// the cube's per-depth group buffers and per-value tallies, its emitted
/// cells in one bucket per mask, and the canonical sort's pairs and second
/// buffers.  Keeping one across
/// epochs (EpochAnalyzer does) keeps those buffers' pages mapped: freed and
/// re-requested every epoch, a buffer above glibc's dynamic mmap threshold,
/// or one freed at the heap top past its trim threshold, comes back as
/// fresh zero pages that fault in again.
class ExpandWorkspace {
 public:
  ExpandWorkspace();
  ~ExpandWorkspace();

  struct Buffers;  // defined in cluster_engine.cpp
  [[nodiscard]] Buffers& buffers() noexcept { return *buffers_; }

 private:
  std::unique_ptr<Buffers> buffers_;
};

/// Expands a leaf fold into the cluster table and its LeafCellIndex
/// (pass 2).
///
/// `floor` is the analysis floor (ProblemClusterParams::min_sessions) the
/// table will be read at.  Above 1 only the cells with sessions >= floor
/// are built and the floor is recorded on the table; otherwise the full
/// lattice is built.  Every analysis at min_sessions >= floor reads the
/// same result from either table.  The pool and shard arguments are unused:
/// the expansion is serial.
///
/// The fold's leaves are taken as they are, in their canonical order.
/// Throws std::invalid_argument when they are not canonical: a key that is
/// not full-arity, or keys that do not strictly ascend.
[[nodiscard]] EpochClusterTable expand_fold(const LeafFold& fold,
                                            const ClusterEngineConfig& config,
                                            ThreadPool* /*unused*/ = nullptr,
                                            std::size_t /*unused*/ = 1,
                                            std::uint32_t floor = 0);

/// expand_fold into `table`, overwriting every field and reusing its
/// vectors' capacity, with scratch drawn from `workspace`.  The result is
/// identical to expand_fold's whatever the table and workspace last held.
/// Throws as expand_fold does, leaving `table` unspecified.
void expand_fold_into(const LeafFold& fold, const ClusterEngineConfig& config,
                      std::uint32_t floor, ExpandWorkspace& workspace,
                      EpochClusterTable& table);

/// Aggregates one epoch's sessions into the full cluster table
/// (fold_sessions, then expand_fold). All sessions must carry the same
/// epoch id as `epoch`.
[[nodiscard]] EpochClusterTable aggregate_epoch(
    std::span<const Session> sessions, const ProblemThresholds& thresholds,
    const ClusterEngineConfig& config, std::uint32_t epoch);

/// The non-empty attribute masks the engine materialises for a given cap,
/// in ascending mask order.
[[nodiscard]] std::vector<std::uint8_t> lattice_masks(int max_arity);

namespace detail {

/// Stable LSD radix sort of keys[0, n) by the key bits above the mask
/// bits, through `scratch` (n entries): fold codes by their leaf key (the
/// problem bits below are never sorted on), and cluster keys that arrive in
/// ascending mask order into ascending raw order.  One read pass gathers
/// every digit's histogram, and a digit that is constant across the keys is
/// skipped, as radix_sort_pairs skips one.  Returns the buffer holding the
/// sorted keys: `keys` or `scratch`.
const std::uint64_t* radix_sort_keys(std::uint64_t* keys,
                                     std::uint64_t* scratch,
                                     std::size_t n) noexcept;

/// Stable LSD radix sort of the pairs (keys[i], cells[i]), i < n, by the
/// key bits above the mask bits: the canonical order of cells that share a
/// mask, in which expand_fold_into sorts each mask's emitted cells.  It
/// runs through the scratch arrays (n entries each) on the fold's digits,
/// with one histogram pass for all of them first and every digit that is
/// constant across the keys skipped.  Returns the arrays holding the
/// sorted pairs: the inputs or the scratch.
std::pair<const std::uint64_t*, const std::uint32_t*> radix_sort_pairs(
    std::uint64_t* keys, std::uint32_t* cells, std::uint64_t* key_scratch,
    std::uint32_t* cell_scratch, std::size_t n) noexcept;

}  // namespace detail

}  // namespace vq

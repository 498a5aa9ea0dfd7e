#include "src/core/cluster_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/flat_hash_map.h"

namespace vq {

std::uint32_t CellStore::id_of(std::uint64_t raw) const noexcept {
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

}  // namespace

namespace detail {

// vq:hot
const std::uint64_t* radix_sort_keys(std::uint64_t* keys,
                                     std::uint64_t* scratch,
                                     std::size_t n) noexcept {
  if (n < 2) return keys;
  std::array<std::array<std::uint32_t, 256>, kCodeShifts.size()> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (std::size_t d = 0; d < kCodeShifts.size(); ++d) {
      ++hist[d][(k >> kCodeShifts[d]) & 0xFFu];
    }
  }
  std::uint64_t* src = keys;
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
      const std::uint64_t k = src[i];
      dst[h[(k >> shift) & 0xFFu]++] = k;
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace detail

namespace {

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
      detail::radix_sort_keys(fold.codes.data(), fold.code_scratch.data(), n);
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

struct ExpandMetrics {
  obs::Counter& leaves;
  obs::Counter& row_groups;
  obs::Counter& cells;
};

/// expand.row_groups counts the leaf index's row groups: one per leaf
/// below floor 2, one per group of leaves with equal reduced keys above it.
ExpandMetrics& expand_metrics() {
  static ExpandMetrics metrics{
      obs::Registry::global().counter("expand.leaves"),
      obs::Registry::global().counter("expand.row_groups"),
      obs::Registry::global().counter("expand.cells"),
  };
  return metrics;
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

/// Groups the canonical leaves into row groups for an expansion at `floor`
/// (see the file comment of cluster_engine.h): sums sessions per
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

/// A row group as the cube's splits see it: its reduced key and sessions
/// travel with it, so the passes over a cube group read one contiguous
/// array.
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

/// A cell as the cube emits it: its key and stats, and where its member
/// list lies in LeafCellIndex::cell_rows.
struct EmittedCell {
  std::uint64_t key;
  ClusterStats stats;
  std::uint32_t members;  // the list's length
  std::size_t begin;      // its first entry
};

/// The engine's buffers: the row groups, the recursion's state, its emitted
/// cells and the canonical sort's pairs.  The cells' member lists go
/// straight to the table's LeafCellIndex::cell_rows.
struct CubeBuffers {
  RowGroupBuffers row_groups;
  std::vector<ValueSlot> slots;  // indexed by attribute value, then one
                                 // slot for "dimension absent"; all zero
                                 // between splits
  std::vector<std::uint32_t> touched;
  std::vector<std::vector<CubeMember>> level;  // group buffer per depth
  std::vector<CubeSplit> split;
  std::array<std::vector<EmittedCell>, kFullMask + 1> emitted;  // by mask
  // One mask's (key, emitted index) pairs and the radix sort's second
  // buffers.
  std::vector<std::uint64_t> sort_keys;
  std::vector<std::uint32_t> sort_cells;
  std::vector<std::uint64_t> key_scratch;
  std::vector<std::uint32_t> cell_scratch;
};

/// The expansion engine: the iceberg cube of BUC (Beyer & Ramakrishnan,
/// SIGMOD 1999), run over the row groups of group_leaves.  Starting from
/// the root's group of all row groups, a group is split by one more
/// dimension and only the sub-groups whose session sum reaches the floor
/// become cells and are split further.  A refinement never holds more
/// sessions than its parent, so no cell below the floor has a descendant
/// at or above it and the recursion visits exactly the cells with sessions
/// >= floor.  A row group whose reduced key lacks the split's dimension
/// joins no sub-group: its leaves' value there is below the floor, and so
/// is every cell that fixes it.
///
/// Each cell is reached along one path, adding its dimensions in
/// kSplitOrder.  Following BUC, that order puts high-cardinality dimensions
/// first: their splits make small groups early, so the wide groups of the
/// low-cardinality dimensions come last and are split by few further
/// dimensions.  Splits scatter row groups stably and the root group holds
/// them in ascending number, so every cell's member list is ascending.
class IcebergCube {
 public:
  /// Emits cells into `b.emitted` and their member lists into `members`
  /// (the previous contents of both are dropped, their capacity kept).
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
    for (std::vector<EmittedCell>& cells : b_.emitted) cells.clear();
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
    if (hi - lo == 1) {
      emit_refinements(group[lo], key, from, max_arity_ - depth);
      return;
    }
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

  /// The refinements of a group of one row group `m`, keyed `key`, by every
  /// set of at most `arity` of the dimensions from kSplitOrder[from] on
  /// that m's key holds.  Each holds m alone, so each is a cell exactly when
  /// m reaches the floor, and split would reach each set once; BUC writes a
  /// one-tuple partition's cells out the same way.
  void emit_refinements(const CubeMember& m, std::uint64_t key,
                        std::size_t from, std::size_t arity) {
    if (m.sessions < floor_) return;  // only the root group can be below
    std::array<std::uint64_t, kNumDims> part{};  // a dimension's key bits
    std::size_t dims = 0;
    for (std::size_t p = from; p < kSplitOrder.size(); ++p) {
      const AttrDim d = kSplitOrder[p];
      if ((m.key & dim_bit(d)) == 0) continue;
      const DimField f = dim_field(d);
      const std::uint64_t field = ((std::uint64_t{1} << f.bits) - 1)
                                  << f.offset;
      part[dims++] = m.key & (field | dim_bit(d));
    }
    const ClusterStats& stats = row_stats_[m.row];
    // Entry `set` is written before it is read: set & (set - 1) < set.
    std::array<std::uint64_t, std::size_t{1} << kNumDims> refined;
    refined[0] = key;
    for (std::uint32_t set = 1; set < (std::uint32_t{1} << dims); ++set) {
      refined[set] = refined[set & (set - 1)] | part[std::countr_zero(set)];
      if (static_cast<std::size_t>(std::popcount(set)) > arity) continue;
      b_.emitted[refined[set] & kFullMask].push_back(
          {refined[set], stats, 1, members_.size()});
      members_.push_back(m.row);
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
    b_.emitted[key & kFullMask].push_back({key, sum, end - begin, at});
  }

  CubeBuffers& b_;
  std::vector<std::uint32_t>& members_;
  std::span<const ClusterStats> row_stats_;
  std::uint32_t floor_;
  std::size_t max_arity_;
};

/// Gives the emitted cells their dense ids in the canonical (mask-major,
/// key-ascending) order — the mask buckets in ascending mask order, each
/// radix-sorted by key — and writes the table's store and the index's
/// member bounds by id.
void assign_canonical_ids(CubeBuffers& b, EpochClusterTable& table) {
  VQ_SPAN("expand.merge");
  std::array<std::uint32_t, kFullMask + 2> offsets{};
  std::size_t n = 0;
  std::size_t widest = 0;
  for (std::size_t mask = 0; mask <= kFullMask; ++mask) {
    offsets[mask] = static_cast<std::uint32_t>(n);
    n += b.emitted[mask].size();
    widest = std::max(widest, b.emitted[mask].size());
  }
  assert(n < CellStore::kNoCell);
  offsets[kFullMask + 1] = static_cast<std::uint32_t>(n);
  if (b.sort_cells.size() < widest) {
    b.sort_keys.resize(widest);
    b.sort_cells.resize(widest);
    b.key_scratch.resize(widest);
    b.cell_scratch.resize(widest);
  }

  std::vector<std::uint64_t> keys(n);
  std::vector<ClusterStats> stats(n);
  std::vector<std::pair<std::size_t, std::size_t>>& bounds =
      table.leaf_index.member_bounds;
  bounds.resize(n);
  for (std::size_t mask = 0; mask <= kFullMask; ++mask) {
    const std::vector<EmittedCell>& cells = b.emitted[mask];
    const std::size_t count = cells.size();
    for (std::uint32_t c = 0; c < count; ++c) {
      b.sort_keys[c] = cells[c].key;
      b.sort_cells[c] = c;
    }
    const auto [sorted_keys, sorted_cells] = detail::radix_sort_pairs(
        b.sort_keys.data(), b.sort_cells.data(), b.key_scratch.data(),
        b.cell_scratch.data(), count);
    const std::size_t base = offsets[mask];
    for (std::size_t i = 0; i < count; ++i) {
      const EmittedCell& cell = cells[sorted_cells[i]];
      keys[base + i] = sorted_keys[i];
      stats[base + i] = cell.stats;
      bounds[base + i] = {cell.begin, cell.begin + cell.members};
    }
  }
  table.clusters =
      CellStore::from_mask_major(std::move(keys), std::move(stats), offsets);
}

}  // namespace

namespace detail {

// vq:hot
std::pair<const std::uint64_t*, const std::uint32_t*> radix_sort_pairs(
    std::uint64_t* keys, std::uint32_t* cells, std::uint64_t* key_scratch,
    std::uint32_t* cell_scratch, std::size_t n) noexcept {
  if (n < 2) return {keys, cells};
  std::array<std::array<std::uint32_t, 256>, kCodeShifts.size()> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (std::size_t d = 0; d < kCodeShifts.size(); ++d) {
      ++hist[d][(k >> kCodeShifts[d]) & 0xFFu];
    }
  }
  for (std::size_t d = 0; d < kCodeShifts.size(); ++d) {
    std::array<std::uint32_t, 256>& h = hist[d];
    const int shift = kCodeShifts[d];
    if (h[(keys[0] >> shift) & 0xFFu] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& bucket : h) {
      const std::uint32_t count = bucket;
      bucket = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = keys[i];
      const std::uint32_t at = h[(k >> shift) & 0xFFu]++;
      key_scratch[at] = k;
      cell_scratch[at] = cells[i];
    }
    std::swap(keys, key_scratch);
    std::swap(cells, cell_scratch);
  }
  return {keys, cells};
}

}  // namespace detail

struct ExpandWorkspace::Buffers {
  CubeBuffers cube;
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
                      std::uint32_t floor, ExpandWorkspace& workspace,
                      EpochClusterTable& table) {
  if (config.max_arity < 1 || config.max_arity > kNumDims) {
    throw std::invalid_argument{"expand_fold: max_arity out of range"};
  }
  CubeBuffers& b = workspace.buffers().cube;
  LeafCellIndex& index = table.leaf_index;
  // Floors 0 and 1 both build the full lattice: every cell some leaf
  // reaches, as the floor-0 cube does.
  const std::uint32_t cube_floor = floor > 1 ? floor : 0;

  table.epoch = fold.epoch;
  table.root = fold.root;
  table.floor = cube_floor;

  // Canonical leaf order, ascending raw key, as the fold delivers it.  It
  // fixes the iteration order of every downstream per-leaf sweep.  The
  // contiguous key/stat arrays stay on the table as the index.
  take_leaves(fold, index);
  RowGroupBuffers& groups = b.row_groups;
  group_leaves(index.leaf_keys, index.leaf_stats, cube_floor, groups,
               index.leaf_group);
  index.groups = groups.keys.size();

  IcebergCube cube{b,           index.cell_rows, groups.keys,
                   groups.stats, cube_floor,     config.max_arity};
  {
    VQ_SPAN("expand.prune");
    cube.build();
  }
  assign_canonical_ids(b, table);

  ExpandMetrics& metrics = expand_metrics();
  metrics.leaves.add(static_cast<std::uint64_t>(index.num_leaves()));
  metrics.row_groups.add(static_cast<std::uint64_t>(index.num_groups()));
  metrics.cells.add(static_cast<std::uint64_t>(table.clusters.size()));
}

EpochClusterTable expand_fold(const LeafFold& fold,
                              const ClusterEngineConfig& config,
                              ThreadPool* /*unused*/, std::size_t /*unused*/,
                              std::uint32_t floor) {
  ExpandWorkspace workspace;
  EpochClusterTable table;
  expand_fold_into(fold, config, floor, workspace, table);
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

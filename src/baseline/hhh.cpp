#include "src/baseline/hhh.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/util/flat_hash_map.h"

namespace vq {

std::vector<HhhCluster> find_hhh(std::span<const Session> sessions,
                                 const ProblemThresholds& thresholds,
                                 const HhhParams& params, Metric metric) {
  // Residual problem mass per distinct leaf.
  FlatMap64<double> residual;
  double total_problem = 0.0;
  for (const Session& s : sessions) {
    if (!thresholds.is_problem(metric, s.quality)) continue;
    residual[ClusterKey::pack(kFullMask, s.attrs).raw()] += 1.0;
    total_problem += 1.0;
  }
  std::vector<HhhCluster> result;
  if (total_problem <= 0.0) return result;
  const double threshold = params.phi * total_problem;

  // Masks grouped by arity, processed bottom-up (most specific first).
  for (int arity = kNumDims; arity >= 1; --arity) {
    std::vector<std::uint8_t> level_masks;
    for (unsigned mask = 1; mask <= kFullMask; ++mask) {
      if (std::popcount(mask) == arity) {
        level_masks.push_back(static_cast<std::uint8_t>(mask));
      }
    }

    // Aggregate residual leaf mass into this level's clusters.
    FlatMap64<double> level_mass;
    residual.for_each([&](std::uint64_t raw_leaf, double mass) {
      if (mass <= 0.0) return;
      const ClusterKey leaf = ClusterKey::from_raw(raw_leaf);
      for (const std::uint8_t mask : level_masks) {
        level_mass[leaf.project(mask).raw()] += mass;
      }
    });

    // Mark heavy clusters.
    FlatSet64 marked;
    level_mass.for_each([&](std::uint64_t raw, double mass) {
      if (mass >= threshold) {
        marked.insert(raw);
        result.push_back({ClusterKey::from_raw(raw), mass});
      }
    });
    if (marked.empty()) continue;

    // Claim the residual of every leaf under a marked cluster.
    residual.for_each([&](std::uint64_t raw_leaf, double& mass) {
      if (mass <= 0.0) return;
      const ClusterKey leaf = ClusterKey::from_raw(raw_leaf);
      for (const std::uint8_t mask : level_masks) {
        if (marked.contains(leaf.project(mask).raw())) {
          mass = 0.0;
          return;
        }
      }
    });
  }

  std::sort(result.begin(), result.end(),
            [](const HhhCluster& a, const HhhCluster& b) {
              if (a.residual_mass != b.residual_mass) {
                return a.residual_mass > b.residual_mass;
              }
              return a.key.raw() < b.key.raw();
            });
  return result;
}

// --- count-min ---------------------------------------------------------------

namespace {

/// splitmix64 finisher with a per-row salt: depth independent-enough hash
/// rows from one 64-bit key, no RNG state.
[[nodiscard]] std::uint64_t mix_row(std::uint64_t key,
                                    std::uint32_t row) noexcept {
  std::uint64_t x = key + (row + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct SketchMetrics {
  obs::Counter& epochs;
  obs::Counter& sessions_seen;
  obs::Counter& sessions_admitted;
  obs::Counter& leaves_admitted;
  obs::Counter& evictions;

  static SketchMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static SketchMetrics m{reg.counter("sketch.epochs"),
                           reg.counter("sketch.sessions_seen"),
                           reg.counter("sketch.sessions_admitted"),
                           reg.counter("sketch.leaves_admitted"),
                           reg.counter("sketch.evictions")};
    return m;
  }
};

}  // namespace

CountMinSketch::CountMinSketch(std::uint32_t width, std::uint32_t depth)
    : width_{width}, depth_{depth} {
  if (width == 0 || depth == 0) {
    throw std::invalid_argument{"CountMinSketch: width and depth must be > 0"};
  }
  rows_.assign(static_cast<std::size_t>(width_) * depth_, 0);
}

void CountMinSketch::add(std::uint64_t key, std::uint64_t weight) noexcept {
  for (std::uint32_t r = 0; r < depth_; ++r) {
    rows_[static_cast<std::size_t>(r) * width_ + mix_row(key, r) % width_] +=
        weight;
  }
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key) const noexcept {
  std::uint64_t best = ~std::uint64_t{0};
  for (std::uint32_t r = 0; r < depth_; ++r) {
    best = std::min(
        best,
        rows_[static_cast<std::size_t>(r) * width_ + mix_row(key, r) % width_]);
  }
  return best;
}

void CountMinSketch::clear() noexcept {
  std::fill(rows_.begin(), rows_.end(), 0);
}

// --- space-saving ------------------------------------------------------------

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_{capacity} {
  if (capacity == 0) {
    throw std::invalid_argument{"SpaceSaving: capacity must be > 0"};
  }
  slots_.reserve(capacity);
  heap_.reserve(capacity);
  pos_.reserve(capacity);
  index_.reserve(capacity * 2);
}

void SpaceSaving::sift_up(std::size_t heap_pos) noexcept {
  while (heap_pos > 0) {
    const std::size_t parent = (heap_pos - 1) / 2;
    if (slots_[heap_[parent]].count <= slots_[heap_[heap_pos]].count) break;
    std::swap(heap_[parent], heap_[heap_pos]);
    pos_[heap_[parent]] = static_cast<std::uint32_t>(parent);
    pos_[heap_[heap_pos]] = static_cast<std::uint32_t>(heap_pos);
    heap_pos = parent;
  }
}

void SpaceSaving::sift_down(std::size_t heap_pos) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t smallest = heap_pos;
    const std::size_t left = 2 * heap_pos + 1;
    const std::size_t right = left + 1;
    if (left < n && slots_[heap_[left]].count < slots_[heap_[smallest]].count) {
      smallest = left;
    }
    if (right < n &&
        slots_[heap_[right]].count < slots_[heap_[smallest]].count) {
      smallest = right;
    }
    if (smallest == heap_pos) break;
    std::swap(heap_[smallest], heap_[heap_pos]);
    pos_[heap_[smallest]] = static_cast<std::uint32_t>(smallest);
    pos_[heap_[heap_pos]] = static_cast<std::uint32_t>(heap_pos);
    heap_pos = smallest;
  }
}

void SpaceSaving::offer(std::uint64_t key, std::uint64_t weight) {
  if (const auto it = index_.find(key); it != index_.end()) {
    slots_[it->second].count += weight;
    sift_down(pos_[it->second]);  // count grew: moves away from the min root
    return;
  }
  if (slots_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({key, weight, 0});
    heap_.push_back(slot);
    pos_.push_back(static_cast<std::uint32_t>(heap_.size() - 1));
    index_.emplace(key, slot);
    sift_up(heap_.size() - 1);
    return;
  }
  // Evict the minimum-count entry: the newcomer inherits its count as the
  // overcount bound (the space-saving invariant).
  const std::uint32_t slot = heap_[0];
  SpaceSavingEntry& entry = slots_[slot];
  index_.erase(entry.key);
  entry.error = entry.count;
  entry.count += weight;
  entry.key = key;
  index_.emplace(key, slot);
  sift_down(0);
  ++evictions_;
}

std::vector<SpaceSavingEntry> SpaceSaving::entries() const {
  std::vector<SpaceSavingEntry> out = slots_;
  std::sort(out.begin(), out.end(),
            [](const SpaceSavingEntry& a, const SpaceSavingEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  return out;
}

void SpaceSaving::clear() noexcept {
  slots_.clear();
  heap_.clear();
  pos_.clear();
  index_.clear();
}

// --- sketch-bounded admission ------------------------------------------------

SketchAdmission::SketchAdmission(const SketchAdmissionParams& params)
    : params_{params},
      heavy_{params.max_cells == 0
                 ? 1
                 : std::max<std::size_t>(1, params.max_cells / kFullMask)},
      counts_{params.cm_width, params.cm_depth} {}

LeafFold SketchAdmission::fold(const SessionColumns& columns,
                               const ProblemThresholds& thresholds,
                               std::uint32_t epoch) {
  if (params_.max_cells == 0) {
    return fold_sessions_columns(columns, thresholds, epoch);
  }
  SketchMetrics& metrics = SketchMetrics::get();
  const std::size_t n = columns.size();
  keys_.resize(n);
  bits_.resize(n);
  pack_leaf_keys_columns(columns, keys_);
  problem_bits_columns(columns, thresholds, bits_);

  // Pass 1: exact root over every session; heavy-leaf identities into the
  // summary.  Admission is per epoch — the summary restarts so a leaf that
  // went quiet cannot squat on a slot.
  heavy_.clear();
  counts_.clear();
  ClusterStats root;
  const std::uint64_t evictions_before = heavy_.evictions();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = bits_[i];
    root.sessions += 1;
    for (int m = 0; m < kNumMetrics; ++m) {
      root.problems[m] += (b >> m) & 1u;
    }
    heavy_.offer(keys_[i]);
    counts_.add(keys_[i]);
  }

  // Pass 2: fold only the admitted sessions, through the exact fold's
  // kernel, so each admitted leaf's stats are exactly what the unbounded
  // fold would hold.
  FlatSet64 admitted{heavy_.size() * 2};
  for (const SpaceSavingEntry& entry : heavy_.entries()) {
    admitted.insert(entry.key);
  }
  LeafFold fold;
  fold.reset(epoch);
  for (std::size_t i = 0; i < n; ++i) {
    if (admitted.contains(keys_[i])) {
      fold.codes.push_back(fold_code(keys_[i], bits_[i]));
    }
  }
  const std::uint64_t admitted_sessions = fold.codes.size();
  fold_codes(fold);
  fold.release_scratch();
  fold.root = root;

  const std::uint64_t evicted = heavy_.evictions() - evictions_before;
  report_.epochs += 1;
  report_.sessions_seen += n;
  report_.sessions_admitted += admitted_sessions;
  report_.leaves_admitted += fold.leaves.size();
  report_.evictions += evicted;
  metrics.epochs.add(1);
  metrics.sessions_seen.add(n);
  metrics.sessions_admitted.add(admitted_sessions);
  metrics.leaves_admitted.add(fold.leaves.size());
  metrics.evictions.add(evicted);
  return fold;
}

}  // namespace vq

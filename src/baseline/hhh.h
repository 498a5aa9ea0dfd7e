// Hierarchical Heavy Hitters (HHH) baseline (Zhang et al., IMC'04 style,
// adapted to the session-attribute lattice).
//
// The paper's related work (§7) argues HHH is *not* directly applicable to
// root-causing quality problems because it counts volume rather than
// attributing problems to one specific parent.  We implement it as the
// baseline so that claim can be evaluated: `bench/abl1_hhh_vs_critical`
// compares both detectors against the planted ground-truth events.
//
// Algorithm: process lattice levels bottom-up (arity 7 -> 1).  Each leaf
// carries its problem-session count as residual mass.  At every level, a
// cluster whose residual mass (sum over leaves beneath it not yet claimed
// by a marked descendant) reaches phi * total problem sessions is marked an
// HHH, and the leaves beneath it are claimed.

// The same sketch machinery also powers the bounded-memory admission tier
// (SketchAdmission below): at paper scale the exact lattice is bounded by
// distinct leaves x 127 cells, and a hostile or very sparse trace can push
// that past any budget.  --max-cells caps it by admitting only the heavy
// leaves of each epoch into the exact fold — identities tracked by a
// space-saving summary (Metwally et al., every leaf with true count >
// sessions/capacity is guaranteed present), counts cross-checked by a
// count-min sketch (never underestimates).  The lattice over admitted
// leaves is exact, so planted events heavy enough to matter survive; the
// recall/precision cost of the cut is quantified against the exact fold in
// tests/test_sketch.cpp and recorded in EXPERIMENTS.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/session.h"

namespace vq {

struct HhhParams {
  /// Mass threshold as a fraction of the epoch's problem sessions.
  double phi = 0.02;
};

struct HhhCluster {
  ClusterKey key;
  double residual_mass = 0.0;  // problem sessions claimed by this HHH
};

/// Finds the HHH set of one epoch for one metric. `sessions` must be the
/// epoch's session span. Results are sorted by residual mass, descending.
[[nodiscard]] std::vector<HhhCluster> find_hhh(
    std::span<const Session> sessions, const ProblemThresholds& thresholds,
    const HhhParams& params, Metric metric);

/// Count-min sketch over 64-bit keys.  estimate() never underestimates the
/// true added weight; the expected overcount is bounded by
/// (2 / width) * total_weight per row, taken as the min over `depth`
/// independent rows.  Deterministic: fixed mixing constants, no RNG.
class CountMinSketch {
 public:
  CountMinSketch(std::uint32_t width, std::uint32_t depth);

  void add(std::uint64_t key, std::uint64_t weight = 1) noexcept;
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const noexcept;
  /// Zeroes every cell; capacity is retained for per-epoch reuse.
  void clear() noexcept;

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }

 private:
  std::uint32_t width_;
  std::uint32_t depth_;
  std::vector<std::uint64_t> rows_;  // depth_ x width_, row-major
};

struct SpaceSavingEntry {
  std::uint64_t key = 0;
  std::uint64_t count = 0;  // upper bound on the key's true weight
  std::uint64_t error = 0;  // overcount inherited from the evicted entry
};

/// Space-saving heavy-hitter summary (Metwally et al., ICDT'05) over 64-bit
/// keys with O(capacity) memory.  Guarantees: count is always an upper
/// bound on the key's true weight, count - error a lower bound, and any key
/// whose true weight exceeds total_weight / capacity is present.
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void offer(std::uint64_t key, std::uint64_t weight = 1);
  /// Entries sorted by count descending (key ascending on ties).
  [[nodiscard]] std::vector<SpaceSavingEntry> entries() const;
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  /// Forgets every entry; capacity is retained for per-epoch reuse.
  void clear() noexcept;

 private:
  void sift_up(std::size_t heap_pos) noexcept;
  void sift_down(std::size_t heap_pos) noexcept;

  std::size_t capacity_;
  std::vector<SpaceSavingEntry> slots_;
  std::vector<std::uint32_t> heap_;  // slot indices, min-heap by count
  std::vector<std::uint32_t> pos_;   // slot index -> heap position
  std::unordered_map<std::uint64_t, std::uint32_t> index_;  // key -> slot
  std::uint64_t evictions_ = 0;
};

struct SketchAdmissionParams {
  /// Lattice cell budget; each admitted leaf expands into at most 127
  /// cells, so the admitted-leaf capacity is max(1, max_cells / 127).
  /// 0 = unlimited: fold() degrades to the exact fold_sessions_columns.
  std::size_t max_cells = 0;
  std::uint32_t cm_width = 8192;
  std::uint32_t cm_depth = 4;
};

struct SketchAdmissionReport {
  std::uint64_t epochs = 0;
  std::uint64_t sessions_seen = 0;
  std::uint64_t sessions_admitted = 0;
  std::uint64_t leaves_admitted = 0;
  std::uint64_t evictions = 0;
};

/// Bounded-memory admission front end for the streaming pipeline: a
/// PipelineConfig::fold_provider that folds only each epoch's heavy leaves.
/// Per epoch: pass 1 streams every session's leaf key through the
/// space-saving summary (and the count-min cross-check) and accumulates the
/// exact root; pass 2 folds only sessions whose leaf survived, through the
/// exact fold's kernel (fold_codes), so the LeafFold is canonical, admitted
/// leaves carry their exact stats and downstream analyses (incremental or
/// from-scratch) see an exact sub-lattice.  The root is always exact —
/// global problem ratios, and therefore the flagging thresholds, are
/// unaffected by the cut.
/// Deterministic for a given input; not thread-safe (streaming epochs are
/// sequential).  Reusable across epochs; scratch capacity is retained.
class SketchAdmission {
 public:
  explicit SketchAdmission(const SketchAdmissionParams& params);

  [[nodiscard]] LeafFold fold(const SessionColumns& columns,
                              const ProblemThresholds& thresholds,
                              std::uint32_t epoch);

  [[nodiscard]] const SketchAdmissionReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::size_t leaf_capacity() const noexcept {
    return heavy_.capacity();
  }

 private:
  SketchAdmissionParams params_;
  SpaceSaving heavy_;
  CountMinSketch counts_;
  SketchAdmissionReport report_;
  std::vector<std::uint64_t> keys_;  // per-epoch scratch
  std::vector<std::uint8_t> bits_;   // per-epoch scratch
};

}  // namespace vq

// Shared fixtures/helpers for the vidqual test suite.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/core/attributes.h"
#include "src/core/cluster_engine.h"
#include "src/core/session.h"

namespace vq::test {

/// Quality presets relative to the default ProblemThresholds.
inline QualityMetrics good_quality() {
  return {.buffering_ratio = 0.01F,
          .bitrate_kbps = 3000.0F,
          .join_time_ms = 1500.0F,
          .join_failed = false};
}

inline QualityMetrics bad_buffering() {
  QualityMetrics q = good_quality();
  q.buffering_ratio = 0.20F;
  return q;
}

inline QualityMetrics bad_bitrate() {
  QualityMetrics q = good_quality();
  q.bitrate_kbps = 350.0F;
  return q;
}

inline QualityMetrics bad_join_time() {
  QualityMetrics q = good_quality();
  q.join_time_ms = 25'000.0F;
  return q;
}

inline QualityMetrics failed_join() {
  QualityMetrics q{};
  q.join_failed = true;
  q.join_time_ms = 30'000.0F;
  return q;
}

/// Compact attribute construction: unspecified dims default to value 0.
struct Attrs {
  std::uint16_t site = 0;
  std::uint16_t cdn = 0;
  std::uint16_t asn = 0;
  std::uint16_t conn = 0;
  std::uint16_t player = 0;
  std::uint16_t browser = 0;
  std::uint16_t vod = 0;

  [[nodiscard]] AttrVec vec() const {
    AttrVec v;
    v[AttrDim::kSite] = site;
    v[AttrDim::kCdn] = cdn;
    v[AttrDim::kAsn] = asn;
    v[AttrDim::kConnType] = conn;
    v[AttrDim::kPlayer] = player;
    v[AttrDim::kBrowser] = browser;
    v[AttrDim::kVodLive] = vod;
    return v;
  }
};

inline Session make_session(std::uint32_t epoch, const Attrs& attrs,
                            const QualityMetrics& quality) {
  return Session{.attrs = attrs.vec(), .epoch = epoch, .quality = quality};
}

/// n copies of the same session.
inline void add_sessions(std::vector<Session>& out, std::uint32_t epoch,
                         const Attrs& attrs, const QualityMetrics& quality,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_session(epoch, attrs, quality));
  }
}

/// Builds a canonical LeafFold by hand, as the fold kernel would emit it:
/// leaves may be added in any order and more than once (their counters
/// add up), and build() returns them in ascending key order with their sum
/// as the root.  No code of the fold kernel is involved.
class FoldBuilder {
 public:
  explicit FoldBuilder(std::uint32_t epoch = 0) : epoch_(epoch) {}

  FoldBuilder& add(std::uint64_t key, const ClusterStats& stats) {
    leaves_[key] += stats;
    return *this;
  }
  FoldBuilder& add(const AttrVec& attrs, const ClusterStats& stats) {
    return add(ClusterKey::pack(kFullMask, attrs).raw(), stats);
  }

  [[nodiscard]] LeafFold build() const {
    LeafFold fold;
    fold.epoch = epoch_;
    for (const auto& [key, stats] : leaves_) {
      fold.leaves.push_back({key, stats});
      fold.root += stats;
    }
    return fold;
  }

 private:
  std::uint32_t epoch_;
  std::map<std::uint64_t, ClusterStats> leaves_;
};

/// The reference fold of raw sessions: one std::map entry per leaf, each
/// session adding itself and its ProblemThresholds::is_problem verdicts.
[[nodiscard]] inline LeafFold map_fold(std::span<const Session> sessions,
                                       const ProblemThresholds& thresholds,
                                       std::uint32_t epoch) {
  FoldBuilder builder{epoch};
  for (const Session& s : sessions) {
    ClusterStats one;
    one.sessions = 1;
    for (const Metric m : kAllMetrics) {
      one.problems[static_cast<std::uint8_t>(m)] =
          thresholds.is_problem(m, s.quality) ? 1 : 0;
    }
    builder.add(s.attrs, one);
  }
  return builder.build();
}

/// The stats of leaf `key` in a canonical fold, or nullptr.
[[nodiscard]] inline const ClusterStats* find_leaf(const LeafFold& fold,
                                                   std::uint64_t key) {
  const auto it = std::lower_bound(
      fold.leaves.begin(), fold.leaves.end(), key,
      [](const FoldLeaf& leaf, std::uint64_t k) { return leaf.key < k; });
  return it == fold.leaves.end() || it->key != key ? nullptr : &it->stats;
}

/// Fold equality: epoch, root and the leaf arrays element by element (the
/// kernel's scratch is not part of a fold).
[[nodiscard]] inline ::testing::AssertionResult folds_equal(
    const LeafFold& want, const LeafFold& got) {
  if (want.epoch != got.epoch) {
    return ::testing::AssertionFailure()
           << "epoch " << got.epoch << ", want " << want.epoch;
  }
  if (!(want.root == got.root)) {
    return ::testing::AssertionFailure()
           << "root sessions " << got.root.sessions << ", want "
           << want.root.sessions;
  }
  if (want.leaves.size() != got.leaves.size()) {
    return ::testing::AssertionFailure()
           << got.leaves.size() << " leaves, want " << want.leaves.size();
  }
  for (std::size_t i = 0; i < want.leaves.size(); ++i) {
    if (!(want.leaves[i] == got.leaves[i])) {
      return ::testing::AssertionFailure()
             << "leaf " << i << " differs: key " << got.leaves[i].key
             << ", want " << want.leaves[i].key;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every leaf's row rebuilt from the member lists of the table's
/// LeafCellIndex: the ids of the cells holding the leaf, ascending (ids
/// are mask-major, so that is ascending mask order).
[[nodiscard]] inline std::vector<std::vector<std::uint32_t>> leaf_rows(
    const EpochClusterTable& table) {
  const LeafCellIndex& index = table.leaf_index;
  std::vector<std::vector<std::uint32_t>> group_rows(index.num_groups());
  for (std::uint32_t id = 0; id < table.clusters.size(); ++id) {
    for (const std::uint32_t g : index.members(id)) {
      group_rows[g].push_back(id);
    }
  }
  std::vector<std::vector<std::uint32_t>> rows;
  rows.reserve(index.num_leaves());
  for (const std::uint32_t g : index.leaf_group) {
    rows.push_back(group_rows[g]);
  }
  return rows;
}

}  // namespace vq::test

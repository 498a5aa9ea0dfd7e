// One epoch's rebuild path as one object: leaf fold -> the lattice's cells
// at the analysis floor (the iceberg cube, cluster_engine.h) -> the four
// §3.2 analyses in one fused sweep over the cube's member lists.
//
// EpochAnalyzer owns the epoch table and every expansion and sweep buffer
// (ExpandWorkspace, CriticalSweep) and keeps them from one analyze() to the
// next.  That matters to consumers that analyse many epochs in sequence —
// run_pipeline_streaming and StreamingDetector each keep one analyzer for
// their whole lifetime, and run_pipeline builds one per compute thread,
// which that thread keeps across the epochs it claims.  Freed and
// re-requested every epoch, the large buffers would be served by glibc
// from fresh mmap'd (or trimmed) pages whenever they cross its dynamic
// mmap and trim thresholds, and every page would fault in again; kept,
// they stay mapped.  Output never depends on what an earlier epoch left
// in the buffers.
//
// It is the one engine of every production path: run_pipeline,
// run_pipeline_streaming and StreamingDetector all analyse epochs through
// it.  The incremental lattice (incremental.h) is a bench-only module that
// none of them runs.

#pragma once

#include <array>

#include "src/core/cluster_engine.h"
#include "src/core/critical_cluster.h"
#include "src/core/problem_cluster.h"

namespace vq {

class EpochAnalyzer {
 public:
  EpochAnalyzer(const ClusterEngineConfig& engine,
                const ProblemClusterParams& params)
      : engine_(engine), params_(params) {}

  /// Expands `fold` at the analysis floor (params.min_sessions) and returns
  /// its four critical analyses — identical to expand_fold followed by
  /// find_critical_clusters.
  [[nodiscard]] std::array<CriticalAnalysis, kNumMetrics> analyze(
      const LeafFold& fold);

  /// The last analysed epoch's table.
  [[nodiscard]] const EpochClusterTable& table() const noexcept {
    return table_;
  }

 private:
  ClusterEngineConfig engine_;
  ProblemClusterParams params_;
  EpochClusterTable table_;
  ExpandWorkspace workspace_;
  CriticalSweep sweep_;
};

}  // namespace vq

#include "src/core/epoch_analyzer.h"

#include "src/obs/trace.h"

namespace vq {

std::array<CriticalAnalysis, kNumMetrics> EpochAnalyzer::analyze(
    const LeafFold& fold) {
  {
    VQ_SPAN_EPOCH("pipeline.expand_lattice", fold.epoch);
    expand_fold_into(fold, engine_, params_.min_sessions, workspace_, table_);
  }
  return sweep_.run(table_, params_, kAllMetricSet);
}

}  // namespace vq

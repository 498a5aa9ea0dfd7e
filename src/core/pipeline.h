// End-to-end analysis pipeline: epochs -> cluster lattice -> problem
// clusters -> critical clusters, per metric.
//
// This is the library's primary entry point.  It processes epochs one at a
// time (optionally in parallel) through an EpochAnalyzer
// (epoch_analyzer.h), keeps only what the longitudinal analyses need from
// each epoch's lattice table, and returns a PipelineResult the §4/§5
// analytics (prevalence, persistence, overlap, what-if) consume.  The
// analyzer is the one engine both pipelines run; ClusterEngineConfig
// selects just the arity cap.
//
// Batch run_pipeline runs one ThreadPool::parallel_for index per compute
// thread; each builds its own fold and analyzer and claims epochs, largest
// first, from one shared cursor, analysing each serially.  The streaming
// pipeline reads epochs in order and analyses each serially on the calling
// thread.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/critical_cluster.h"
#include "src/core/problem_cluster.h"
#include "src/core/session.h"

namespace vq {

struct PipelineConfig {
  ProblemThresholds thresholds;
  ProblemClusterParams cluster_params{.ratio_multiplier = 1.5,
                                      .min_sessions = 1000};
  ClusterEngineConfig engine;
  /// Worker threads of run_pipeline's pool, which analyses epochs on them
  /// and on the calling thread in parallel; 0 = hardware concurrency, 1 =
  /// every epoch on the calling thread.  The streaming pipeline does not
  /// read it.  Any value yields identical results.
  std::size_t workers = 1;
  /// Streaming only: optional replacement for the pass-1 fold, e.g. the
  /// sketch-bounded admission tier (src/baseline/hhh.h) that folds only
  /// heavy leaves under a --max-cells budget.  The returned fold must carry
  /// the requested epoch id and be canonical (cluster_engine.h, LeafFold:
  /// distinct full-arity leaf keys in ascending order; fold_codes produces
  /// such a fold), or the epoch's expansion throws std::invalid_argument.
  /// Its root is taken as the epoch's global counters.  Null uses
  /// fold_sessions_columns (exact).
  std::function<LeafFold(const SessionColumns&, const ProblemThresholds&,
                         std::uint32_t)>
      fold_provider;
};

/// Everything retained per (epoch, metric).  The problem-cluster keys that
/// prevalence/persistence consume live in analysis.problem_cluster_keys —
/// the critical extraction publishes them, so the per-cell predicate sweep
/// runs exactly once per (epoch, metric).
struct EpochMetricSummary {
  CriticalAnalysis analysis;
};

struct PipelineResult {
  PipelineConfig config;
  std::uint32_t num_epochs = 0;

  /// per_metric[m][e] summarises metric m in epoch e.
  std::array<std::vector<EpochMetricSummary>, kNumMetrics> per_metric;

  /// Epochs flagged degraded by the ingest layer (IngestReport, see
  /// gen/robust_io.h): rows were quarantined or the feed was truncated, so
  /// these epochs' counts understate reality. Sorted ascending; empty when
  /// the trace loaded cleanly.  The analytics still run over them — this is
  /// the explicit data-quality annotation consumers check before trusting a
  /// per-epoch number (e.g. the monitor suppresses kCleared there).
  std::vector<std::uint32_t> degraded_epochs;

  [[nodiscard]] bool is_degraded(std::uint32_t epoch) const noexcept {
    return std::binary_search(degraded_epochs.begin(), degraded_epochs.end(),
                              epoch);
  }

  [[nodiscard]] const EpochMetricSummary& at(Metric m,
                                             std::uint32_t epoch) const {
    return per_metric[static_cast<std::uint8_t>(m)].at(epoch);
  }

  /// Total problem sessions for a metric across an epoch range [begin, end).
  [[nodiscard]] std::uint64_t total_problem_sessions(
      Metric m, std::uint32_t begin, std::uint32_t end) const;

  /// Mean per-epoch counts/coverage for Table 1.
  struct MetricAggregates {
    double mean_problem_clusters = 0.0;
    double mean_critical_clusters = 0.0;
    double mean_problem_coverage = 0.0;   // of problem sessions, in clusters
    double mean_critical_coverage = 0.0;  // of problem sessions, attributed
  };
  [[nodiscard]] MetricAggregates aggregates(Metric m) const;
};

[[nodiscard]] PipelineResult run_pipeline(const SessionTable& table,
                                          const PipelineConfig& config);

/// As above, carrying the ingest layer's degraded-epoch annotation through
/// to the result.  `degraded` must be sorted ascending; otherwise throws
/// std::invalid_argument before analysing any epoch.
[[nodiscard]] PipelineResult run_pipeline(
    const SessionTable& table, const PipelineConfig& config,
    std::span<const std::uint32_t> degraded);

/// Out-of-core variant: pulls epochs one at a time from `source` (e.g. a
/// gen/columnar.h ColumnarReader) into one reused SessionColumns buffer, so
/// peak memory is O(largest epoch) instead of O(whole trace).  Epochs run
/// sequentially on the calling thread, each read, folded and analysed in
/// turn.  The result is identical to run_pipeline over the same sessions —
/// the column-batch fold is bit-identical to the row-wise fold.
/// Epochs whose read_epoch reported damage land in
/// PipelineResult::degraded_epochs.  The pipeline.stream_epoch_sessions_max
/// gauge records the largest batch held, making the memory claim
/// observable.
[[nodiscard]] PipelineResult run_pipeline_streaming(
    EpochColumnsSource& source, const PipelineConfig& config);

}  // namespace vq

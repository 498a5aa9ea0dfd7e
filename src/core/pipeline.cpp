#include "src/core/pipeline.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/core/epoch_analyzer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/mutex.h"
#include "src/util/thread_pool.h"

namespace vq {

std::uint64_t PipelineResult::total_problem_sessions(Metric m,
                                                     std::uint32_t begin,
                                                     std::uint32_t end) const {
  const auto& summaries = per_metric[static_cast<std::uint8_t>(m)];
  std::uint64_t total = 0;
  for (std::uint32_t e = begin; e < end && e < summaries.size(); ++e) {
    total += summaries[e].analysis.problem_sessions;
  }
  return total;
}

PipelineResult::MetricAggregates PipelineResult::aggregates(Metric m) const {
  MetricAggregates agg;
  const auto& summaries = per_metric[static_cast<std::uint8_t>(m)];
  if (summaries.empty()) return agg;
  for (const auto& s : summaries) {
    agg.mean_problem_clusters += s.analysis.num_problem_clusters;
    agg.mean_critical_clusters +=
        static_cast<double>(s.analysis.criticals.size());
    agg.mean_problem_coverage += s.analysis.problem_cluster_coverage();
    agg.mean_critical_coverage += s.analysis.critical_cluster_coverage();
  }
  const auto n = static_cast<double>(summaries.size());
  agg.mean_problem_clusters /= n;
  agg.mean_critical_clusters /= n;
  agg.mean_problem_coverage /= n;
  agg.mean_critical_coverage /= n;
  return agg;
}

namespace {

/// Moves one epoch's analyses into the result and counts them.  The
/// counts are properties of the analysis, not the schedule, so they are
/// kStable: totals match for any workers setting.
struct EpochCounters {
  obs::Counter& epochs = obs::Registry::global().counter("pipeline.epochs");
  obs::Counter& sessions =
      obs::Registry::global().counter("pipeline.sessions");
  obs::Counter& problem_clusters =
      obs::Registry::global().counter("pipeline.problem_clusters");
  obs::Counter& critical_clusters =
      obs::Registry::global().counter("pipeline.critical_clusters");

  void record(PipelineResult& result, std::uint32_t epoch,
              std::array<CriticalAnalysis, kNumMetrics>& analyses,
              std::size_t num_sessions) {
    for (const Metric m : kAllMetrics) {
      const auto mi = static_cast<std::uint8_t>(m);
      CriticalAnalysis& analysis = result.per_metric[mi][epoch].analysis;
      analysis = std::move(analyses[mi]);
      problem_clusters.add(analysis.num_problem_clusters);
      critical_clusters.add(analysis.criticals.size());
    }
    epochs.add(1);
    sessions.add(num_sessions);
  }
};

/// run_pipeline's per-thread epoch state: one fold and one analyzer per
/// compute thread, each kept across the epochs it serves so its buffers'
/// pages stay mapped.  An epoch task checks a slot out for its duration.
/// A pool thread runs one epoch task at a time, so the pool's workers and
/// the calling thread never need more slots than there are threads.
class EpochSlots {
 public:
  struct Slot {
    explicit Slot(const PipelineConfig& config)
        : analyzer{config.engine, config.cluster_params} {}
    LeafFold fold;
    EpochAnalyzer analyzer;
  };

  /// A slot held by one epoch task, returned when the lease ends, also
  /// when the task throws.
  class Lease {
   public:
    explicit Lease(EpochSlots& slots) : slots_(slots), slot_(slots.take()) {}
    ~Lease() { slots_.give_back(slot_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Slot* operator->() const noexcept { return slot_; }

   private:
    EpochSlots& slots_;
    Slot* slot_;
  };

  EpochSlots(std::size_t threads, const PipelineConfig& config) {
    slots_.reserve(threads);
    const MutexLock lock{mutex_};
    free_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      slots_.push_back(std::make_unique<Slot>(config));
      free_.push_back(slots_.back().get());
    }
  }

 private:
  Slot* take() {
    const MutexLock lock{mutex_};
    if (free_.empty()) {
      throw std::logic_error{"run_pipeline: more epoch tasks than threads"};
    }
    Slot* slot = free_.back();
    free_.pop_back();
    return slot;
  }
  void give_back(Slot* slot) noexcept {
    const MutexLock lock{mutex_};
    free_.push_back(slot);  // within the capacity reserved for every slot
  }

  std::vector<std::unique_ptr<Slot>> slots_;
  Mutex mutex_;
  std::vector<Slot*> free_ VQ_GUARDED_BY(mutex_);
};

}  // namespace

PipelineResult run_pipeline(const SessionTable& table,
                            const PipelineConfig& config,
                            std::span<const std::uint32_t> degraded) {
  if (!std::is_sorted(degraded.begin(), degraded.end())) {
    throw std::invalid_argument{
        "run_pipeline: degraded epochs must be sorted ascending"};
  }
  PipelineResult result = run_pipeline(table, config);
  result.degraded_epochs.assign(degraded.begin(), degraded.end());
  return result;
}

PipelineResult run_pipeline(const SessionTable& table,
                            const PipelineConfig& config) {
  PipelineResult result;
  result.config = config;
  result.num_epochs = table.num_epochs();
  for (auto& v : result.per_metric) v.resize(result.num_epochs);

  const std::size_t workers =
      config.workers == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : config.workers;
  std::optional<ThreadPool> pool;
  if (workers > 1 && result.num_epochs > 0) pool.emplace(workers);
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  EpochCounters counters;
  EpochSlots slots{pool_ptr == nullptr ? 1 : pool_ptr->worker_count() + 1,
                   config};

  const auto process_epoch = [&](std::size_t e) {
    const auto epoch = static_cast<std::uint32_t>(e);
    VQ_SPAN_EPOCH("pipeline.epoch", epoch);
    const std::span<const Session> sessions = table.epoch(epoch);
    const EpochSlots::Lease slot{slots};
    // One leaf fold per epoch feeds both the lattice expansion and all four
    // critical analyses.
    {
      VQ_SPAN_EPOCH("pipeline.fold_sessions", epoch);
      fold_sessions_into(sessions, config.thresholds, epoch, slot->fold);
    }
    // The analyses publish problem_cluster_keys as a byproduct, so no
    // separate find_problem_clusters pass is needed per metric.
    std::array<CriticalAnalysis, kNumMetrics> analyses =
        slot->analyzer.analyze(slot->fold);
    counters.record(result, epoch, analyses, sessions.size());
  };

  if (pool_ptr == nullptr) {
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) process_epoch(e);
  } else {
    // Largest epochs first (ties by index): the pool hands out iterations
    // in order, so a large epoch never starts last and leaves the pass
    // ending on one thread.  Results land in per-epoch slots and the
    // counters are sums, so the order changes no output.
    std::vector<std::uint32_t> order(result.num_epochs);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return table.epoch(a).size() > table.epoch(b).size();
                     });
    // A throwing epoch (e.g. an epoch mismatch in fold_sessions_into)
    // surfaces here rather than terminating the process.
    pool_ptr->parallel_for(0, order.size(), [&](std::size_t i) {
      process_epoch(order[i]);
    });
  }
  return result;
}

PipelineResult run_pipeline_streaming(EpochColumnsSource& source,
                                      const PipelineConfig& config) {
  PipelineResult result;
  result.config = config;
  result.num_epochs = source.num_epochs();
  for (auto& v : result.per_metric) v.resize(result.num_epochs);

  EpochCounters counters;
  obs::Registry& reg = obs::Registry::global();
  // Largest batch ever held: the structural O(one epoch) memory witness.
  obs::Gauge& held_max = reg.gauge("pipeline.stream_epoch_sessions_max");

  // Epochs stream sequentially (that is the memory bound).  Reused across
  // epochs, capacity retained: the column batch, the fold and the
  // analyzer's table and buffers.
  SessionColumns columns;
  LeafFold fold;
  EpochAnalyzer analyzer{config.engine, config.cluster_params};
  for (std::uint32_t epoch = 0; epoch < result.num_epochs; ++epoch) {
    VQ_SPAN_EPOCH("pipeline.epoch", epoch);
    const bool degraded = [&] {
      VQ_SPAN_EPOCH("pipeline.read_epoch", epoch);
      return source.read_epoch(epoch, columns);
    }();
    if (degraded) result.degraded_epochs.push_back(epoch);
    held_max.update_max(static_cast<std::int64_t>(columns.size()));

    {
      VQ_SPAN_EPOCH("pipeline.fold_sessions", epoch);
      if (config.fold_provider) {
        fold = config.fold_provider(columns, config.thresholds, epoch);
      } else {
        fold_sessions_columns_into(columns, config.thresholds, epoch, fold);
      }
    }

    std::array<CriticalAnalysis, kNumMetrics> analyses =
        analyzer.analyze(fold);
    counters.record(result, epoch, analyses, columns.size());
  }
  return result;
}

}  // namespace vq

// The batch and streaming workloads, and the incremental side pass of the
// stream's traced run.
//
// Untraced runs time the public entry points only.  Traced runs make one
// untraced pass (for the overhead estimate and the equality check) and then
// the same layer calls the entry point makes, in the same order, each inside
// a span.

#include <sched.h>

#include <optional>
#include <string>

#include "common.h"
#include "spans.h"
#include "src/core/columns.h"
#include "src/core/incremental.h"
#include "src/gen/columnar.h"
#include "src/util/thread_pool.h"

namespace e2e {

namespace {

/// Bytes per session in the VQTC columns (seven u16 attributes, three f32
/// metrics, one join byte) and per leaf/cell record (u64 key + counters).
constexpr double kColumnRecordBytes = 7 * 2 + 3 * 4 + 1;
constexpr double kCellRecordBytes = 8 + sizeof(vq::ClusterStats);

/// Moves the calling thread round robin over the CPUs this process may run
/// on, one step per epoch, and restores its CPU mask when destroyed.  On a
/// shared VM each vCPU runs at its own, slowly changing speed (set by what
/// else runs on its physical core), so a single-threaded epoch loop left on
/// one vCPU times that vCPU.  Moved every epoch, it samples all of them, as
/// the multi-threaded batch workload does by construction.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void move(std::uint32_t step) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

/// Decorating source: presents epochs [0, limit) of `inner`, moves the
/// thread to the next CPU and stamps the start of every read_epoch call.
class TimedSource final : public vq::EpochColumnsSource {
 public:
  TimedSource(vq::EpochColumnsSource& inner, std::uint32_t limit)
      : inner_(inner), stamps_(limit, 0) {}

  [[nodiscard]] std::uint32_t num_epochs() const override {
    return static_cast<std::uint32_t>(stamps_.size());
  }
  bool read_epoch(std::uint32_t e, vq::SessionColumns& out) override {
    rotation_.move(e);
    stamps_.at(e) = now_ns();
    return inner_.read_epoch(e, out);
  }
  [[nodiscard]] const std::vector<std::int64_t>& stamps() const noexcept {
    return stamps_;
  }

 private:
  vq::EpochColumnsSource& inner_;
  std::vector<std::int64_t> stamps_;
  CpuRotation rotation_;
};

/// One run_pipeline_streaming call over epochs [0, limit).  With limit past
/// the warm-up day, the timed region runs from read_epoch(kWarmupEpochs) to
/// the return; everything before it is set-up.
struct Round {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::vector<double> epoch_ms;
  std::uint64_t timed_sessions = 0;
  std::vector<std::uint64_t> digests;  // per epoch
};

Round stream_round(const std::filesystem::path& trace,
                   const vq::PipelineConfig& config, std::uint32_t limit) {
  Round r;
  const std::int64_t t0 = now_ns();
  vq::ColumnarReader reader{trace};
  TimedSource source{reader, limit};
  const vq::PipelineResult result = vq::run_pipeline_streaming(source, config);
  const std::int64_t end = now_ns();
  const auto& st = source.stamps();
  if (limit <= kWarmupEpochs) {
    r.setup_s = static_cast<double>(end - t0) * 1e-9;
  } else {
    r.setup_s = static_cast<double>(st[kWarmupEpochs] - t0) * 1e-9;
    r.timed_s = static_cast<double>(end - st[kWarmupEpochs]) * 1e-9;
    for (std::uint32_t e = kWarmupEpochs; e < limit; ++e) {
      const std::int64_t next = e + 1 < limit ? st[e + 1] : end;
      r.epoch_ms.push_back(static_cast<double>(next - st[e]) * 1e-6);
      r.timed_sessions += result.at(vq::Metric::kBufRatio, e).analysis.sessions;
    }
  }
  for (std::uint32_t e = 0; e < limit; ++e) {
    r.digests.push_back(epoch_digest(result, e));
  }
  return r;
}

/// Compares per-epoch digests [0, n) against the reference.
void check_against_reference(RunResult& out, const std::string& what,
                             const std::vector<std::uint64_t>& got,
                             const Reference& ref) {
  std::size_t bad = 0;
  for (std::size_t e = 0; e < got.size(); ++e) {
    if (e >= ref.analysis.size() || got[e] != ref.analysis[e]) ++bad;
  }
  out.check(what, bad == 0,
            bad == 0 ? std::to_string(got.size()) + " epochs equal"
                     : std::to_string(bad) + " epochs differ");
}

}  // namespace

void check_expected(RunResult& out, const std::vector<std::uint64_t>& digests,
                    const std::string& expect) {
  if (expect.empty()) return;
  const std::string got = hex(chain(digests));
  out.check("output digest equals the one recorded for this seed",
            got == expect, got);
}

namespace {

/// Sequential-scan ceiling: best of three read passes over a buffer far
/// larger than the last-level cache, in GB/s.
double scan_ceiling_gb_per_s() {
  constexpr std::size_t kWords = (128u << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(kWords);
  for (std::size_t i = 0; i < kWords; ++i) buf[i] = i;
  double best = 0.0;
  volatile std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    for (std::size_t i = 0; i < kWords; i += 4) {
      a += buf[i];
      b += buf[i + 1];
      c += buf[i + 2];
      d += buf[i + 3];
    }
    sink = sink + a + b + c + d;
    const double s = seconds_between(t0, Clock::now());
    best = std::max(best, static_cast<double>(kWords * 8) / s * 1e-9);
  }
  return best;
}

}  // namespace

void report_setup(RunResult& out, const std::vector<double>& setup_s) {
  out.info["setup_samples"] = static_cast<double>(setup_s.size());
  out.info["setup_s_min"] = *std::min_element(setup_s.begin(), setup_s.end());
  out.info["setup_s_max"] = *std::max_element(setup_s.begin(), setup_s.end());
  out.metrics["setup_s"] = median(setup_s);
}

void finish_env(RunResult& out, const CpuTimes& before, bool traced) {
  const CpuTimes after = read_cpu_times();
  const auto total = static_cast<double>(after.total - before.total);
  out.info["env.steal_frac"] =
      total > 0 ? static_cast<double>(after.steal - before.steal) / total : 0.0;
  out.info["env.scan_gb_per_s"] = scan_ceiling_gb_per_s();
  if (traced) {
    out.metrics["env.steal_frac"] = out.info["env.steal_frac"];
    out.metrics["env.scan_gb_per_s"] = out.info["env.scan_gb_per_s"];
  }
}

namespace {

/// Fold / expand / critical counters accumulated over traced epochs.
struct LayerCounts {
  std::uint64_t epochs = 0;
  std::uint64_t sessions = 0;
  std::uint64_t leaves = 0;
  std::uint64_t cells = 0;
  std::uint64_t index_ids = 0;
  std::uint64_t problem_clusters = 0;
  std::uint64_t criticals = 0;

  void add_fold(std::uint64_t n_sessions, const vq::LeafFold& fold) {
    epochs += 1;
    sessions += n_sessions;
    leaves += fold.leaves.size();
  }
  void add_table(const vq::EpochClusterTable& table) {
    cells += table.clusters.size();
    index_ids += table.leaf_index.cell_rows.size();
  }
  void add_analysis(const vq::CriticalAnalysis& a) {
    problem_clusters += a.num_problem_clusters;
    criticals += a.criticals.size();
  }
  LayerCounts& operator+=(const LayerCounts& o) {
    epochs += o.epochs;
    sessions += o.sessions;
    leaves += o.leaves;
    cells += o.cells;
    index_ids += o.index_ids;
    problem_clusters += o.problem_clusters;
    criticals += o.criticals;
    return *this;
  }
};

}  // namespace

void zero_layer_metrics(RunResult& out) {
  for (const char* name :
       {"gen.read_s", "gen.load_s", "gen.read_gb_per_s", "gen.share",
        "fold.s", "fold.share", "fold.leaves", "fold.sessions_per_leaf",
        "fold.gb_per_s", "expand.s", "expand.share", "expand.cells",
        "expand.gb_per_s", "critical.s", "critical.share",
        "critical.problem_clusters", "critical.criticals",
        "incremental.advance_s", "incremental.share",
        "incremental.retained_cells", "incremental.cells_touched",
        "incremental.cache_hit_frac", "incremental.full_flag_passes",
        "detector.ingest_ms_p50", "detector.share", "detector.events",
        "detector.busy_frac", "serve.share", "serve.detect_ms_p50",
        "serve.detect_ms_p90", "serve.seal_wait_ms_p50", "serve.queue_highwater",
        "serve.frames", "serve.producer_late_ms_p95", "serve.send_blocked_s",
        "pool.threads", "pool.busy_frac", "pool.speedup_vs_1",
        "obs.trace_overhead_frac"}) {
    out.metrics[name] = 0.0;
  }
}

namespace {

/// Fills the per-layer metrics from span totals and counters.
void layer_metrics(RunResult& out, const std::map<std::string, LayerTotals>& t,
                   const LayerCounts& c, double region_s, double passes,
                   double fold_record_bytes) {
  const auto self = [&](const char* layer) {
    const auto it = t.find(layer);
    return it == t.end() ? 0.0 : it->second.self_s / passes;
  };
  const auto rate = [](double bytes, double s) {
    return s > 0 ? bytes / s * 1e-9 : 0.0;
  };
  const double epochs = std::max<double>(1.0, static_cast<double>(c.epochs));
  const double region = region_s / passes;
  const double sessions = static_cast<double>(c.sessions) / passes;
  const double leaves = static_cast<double>(c.leaves) / passes;
  const double cells = static_cast<double>(c.cells) / passes;

  out.metrics["gen.read_s"] = self("gen");
  out.metrics["gen.read_gb_per_s"] =
      rate(sessions * kColumnRecordBytes, self("gen"));
  out.metrics["fold.s"] = self("fold");
  out.metrics["fold.leaves"] = static_cast<double>(c.leaves) / epochs;
  out.metrics["fold.sessions_per_leaf"] =
      c.leaves == 0 ? 0.0 : static_cast<double>(c.sessions) /
                                static_cast<double>(c.leaves);
  out.metrics["fold.gb_per_s"] = rate(
      sessions * fold_record_bytes + leaves * kCellRecordBytes, self("fold"));
  out.metrics["expand.s"] = self("expand");
  out.metrics["expand.cells"] = static_cast<double>(c.cells) / epochs;
  out.metrics["expand.gb_per_s"] =
      rate(cells * kCellRecordBytes +
               static_cast<double>(c.index_ids) / passes * 4.0,
           self("expand"));
  out.metrics["critical.s"] = self("critical");
  out.metrics["critical.problem_clusters"] =
      static_cast<double>(c.problem_clusters) / epochs;
  out.metrics["critical.criticals"] = static_cast<double>(c.criticals) / epochs;
  out.metrics["incremental.advance_s"] = self("incremental");
  for (const char* layer :
       {"gen", "fold", "expand", "critical", "incremental", "detector",
        "serve"}) {
    out.metrics[std::string{layer} + ".share"] =
        region > 0 ? self(layer) / region : 0.0;
  }
  double self_sum = 0.0;
  for (const auto& [layer, totals] : t) self_sum += totals.self_s / passes;
  out.info["traced_region_s"] = region;
  out.info["self_time_sum_s"] = self_sum;
}

}  // namespace

// --- batch -------------------------------------------------------------------

RunResult run_batch(const RunOptions& opt) {
  const WorldSpec& world = kBenchWorld;
  const CachePaths paths = cache_paths(opt.cache_dir, world, opt.seed);
  const Reference ref = load_reference(paths.reference);
  vq::PipelineConfig config = pipeline_config(world);
  config.workers = 2;  // + the calling thread = 3 compute threads

  RunResult out;
  out.compute_threads = 3;
  const CpuTimes cpu0 = read_cpu_times();

  // Set-up, kSetupSamples times: load the table, then one untimed warm-up
  // pass.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  vq::SessionTable table;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    table = vq::SessionTable{};
    const auto t0 = Clock::now();
    table = vq::read_trace_columnar(paths.trace).table;
    const auto t1 = Clock::now();
    const vq::PipelineResult warm = vq::run_pipeline(table, config);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    load_s.push_back(seconds_between(t0, t1));
  }
  const std::uint64_t sessions = table.size();

  const auto pass_digests = [&](const vq::PipelineResult& r) {
    std::vector<std::uint64_t> d;
    for (std::uint32_t e = 0; e < r.num_epochs; ++e) {
      d.push_back(epoch_digest(r, e));
    }
    return d;
  };

  // Timed passes; the traced variant needs three untimed-by-spans passes as
  // its overhead baseline.
  std::vector<double> pass_s;
  std::vector<std::vector<std::uint64_t>> digests;
  double timed = 0.0;
  const std::size_t passes =
      opt.trace ? 3 : units_for(opt.seconds, kBatchPassNominalS);
  while (pass_s.size() < passes) {
    const auto t0 = Clock::now();
    const vq::PipelineResult r = vq::run_pipeline(table, config);
    const double s = seconds_between(t0, Clock::now());
    pass_s.push_back(s);
    timed += s;
    digests.push_back(pass_digests(r));
  }
  const double rss = peak_rss_mb();

  bool all_equal = true;
  for (const auto& d : digests) {
    all_equal = all_equal && d.size() == ref.analysis.size() &&
                std::equal(d.begin(), d.end(), ref.analysis.begin());
  }
  out.check("run_pipeline output equals the streaming reference", all_equal,
            std::to_string(digests.size()) + " passes");
  check_expected(out, digests.front(), opt.expect);
  out.attempted = sessions * pass_s.size();

  out.info["passes"] = static_cast<double>(pass_s.size());
  out.info["sessions_per_pass"] = static_cast<double>(sessions);
  if (!opt.trace) {
    out.metrics["sessions_per_s"] =
        static_cast<double>(sessions * pass_s.size()) / timed;
    out.metrics["latency_ms_p50"] = 1e3 * median(pass_s);
    out.metrics["latency_ms_p90"] = 1e3 * percentile(pass_s, 0.90);
    out.metrics["peak_rss_mb"] = rss;
    report_setup(out, setup_s);
    finish_env(out, cpu0, opt.trace);
    return out;
  }

  // Traced: run_pipeline's per-epoch calls on the same pool shape, three
  // passes, spans from every thread.
  zero_layer_metrics(out);
  SpanRecorder rec;
  LayerCounts counts;
  std::vector<double> traced_s;
  std::vector<double> busy;
  const std::uint32_t epochs = table.num_epochs();
  for (int pass = 0; pass < 3; ++pass) {
    vq::PipelineResult result;
    result.num_epochs = epochs;
    for (auto& v : result.per_metric) v.resize(epochs);
    std::vector<LayerCounts> per_epoch(epochs);
    const std::int64_t from = now_ns();
    const auto t0 = Clock::now();
    {
      vq::ThreadPool pool{config.workers};
      pool.parallel_for(0, epochs, [&](std::size_t i) {
        const auto e = static_cast<std::uint32_t>(i);
        const SpanRecorder::Scope epoch_span{rec, "pipeline", e};
        const std::span<const vq::Session> rows = table.epoch(e);
        const vq::LeafFold fold = [&] {
          const SpanRecorder::Scope s{rec, "fold", e};
          return vq::fold_sessions(rows, config.thresholds, e);
        }();
        const vq::EpochClusterTable lattice = [&] {
          const SpanRecorder::Scope s{rec, "expand", e};
          return vq::expand_fold(fold, config.engine, &pool, 1);
        }();
        per_epoch[e].add_fold(rows.size(), fold);
        per_epoch[e].add_table(lattice);
        for (const vq::Metric m : vq::kAllMetrics) {
          const SpanRecorder::Scope s{rec, "critical", e};
          vq::CriticalAnalysis& a =
              result.per_metric[static_cast<std::uint8_t>(m)][e].analysis;
          a = vq::find_critical_clusters(fold, lattice, config.cluster_params,
                                         m, &pool, 1);
          per_epoch[e].add_analysis(a);
        }
      });
    }
    const double s = seconds_between(t0, Clock::now());
    traced_s.push_back(s);
    double epoch_busy = 0.0;
    for (const double d : rec.durations("pipeline", from)) epoch_busy += d;
    busy.push_back(epoch_busy / (3.0 * s));
    for (const LayerCounts& c : per_epoch) counts += c;
    out.check("traced pass " + std::to_string(pass) + " equals untraced",
              pass_digests(result) == digests.front());
  }
  double traced_total = 0.0;
  for (const double s : traced_s) traced_total += s;

  // One pass on a single compute thread, for the pool's speed-up.
  vq::PipelineConfig serial = config;
  serial.workers = 1;
  const auto t1 = Clock::now();
  const vq::PipelineResult one = vq::run_pipeline(table, serial);
  const double one_s = seconds_between(t1, Clock::now());
  out.check("single-thread pass equals untraced",
            pass_digests(one) == digests.front());

  // Self times are summed over three threads; the share is of thread time.
  // Thread time no epoch span covers: the pool's idle tail, which the
  // slowest thread of each pass sets.
  std::map<std::string, LayerTotals> totals = rec.totals();
  double epoch_thread_s = 0.0;
  for (const double d : rec.durations("pipeline")) epoch_thread_s += d;
  LayerTotals& idle = totals["pool.idle"];
  idle.self_s = idle.total_s = 3.0 * traced_total - epoch_thread_s;
  layer_metrics(out, totals, counts, 3.0 * traced_total, 3.0,
                sizeof(vq::Session));
  out.metrics["gen.load_s"] = median(load_s);
  out.metrics["gen.read_gb_per_s"] =
      static_cast<double>(std::filesystem::file_size(paths.trace)) /
      median(load_s) * 1e-9;
  out.metrics["pool.threads"] = 3.0;
  out.metrics["pool.busy_frac"] = median(busy);
  out.metrics["pool.speedup_vs_1"] = one_s / median(pass_s);
  out.metrics["obs.trace_overhead_frac"] =
      median(traced_s) / median(pass_s) - 1.0;
  out.layer_table = layer_table(totals, 3.0 * traced_total);
  rec.write_tsv(opt.work_dir / ("spans_batch_" + std::to_string(opt.seed) +
                                ".tsv"));
  finish_env(out, cpu0, opt.trace);
  return out;
}

// --- streaming -----------------------------------------------------------------

namespace {

/// Side pass of the stream's traced run: the paper world's first
/// kIncrementalEpochs epochs through the calls run_pipeline_streaming makes
/// with incremental = true, the second day under spans.  It is not part of
/// the stream's timed region; it keeps the incremental layer measured.
void incremental_side_pass(RunResult& out, const CachePaths& paths,
                           const Reference& ref,
                           const vq::PipelineConfig& config) {
  SpanRecorder rec;
  vq::ColumnarReader reader{paths.trace};
  vq::IncrementalLattice lattice{config.cluster_params,
                                 config.engine.max_arity};
  vq::SessionColumns columns;
  std::vector<std::uint64_t> digests;
  std::uint64_t epochs = 0, touched = 0, hits = 0, misses = 0, full = 0;
  std::size_t retained = 0;
  std::int64_t from = 0;
  Clock::time_point start;
  CpuRotation rotation;
  for (std::uint32_t e = 0; e < kIncrementalEpochs; ++e) {
    rotation.move(e);
    if (e == kWarmupEpochs) {
      from = now_ns();
      start = Clock::now();
    }
    const SpanRecorder::Scope epoch_span{rec, "pipeline", e};
    {
      const SpanRecorder::Scope s{rec, "gen", e};
      reader.read_epoch(e, columns);
    }
    const vq::LeafFold fold = [&] {
      const SpanRecorder::Scope s{rec, "fold", e};
      return vq::fold_sessions_columns(columns, config.thresholds, e);
    }();
    const std::array<vq::CriticalAnalysis, vq::kNumMetrics> analyses = [&] {
      const SpanRecorder::Scope s{rec, "incremental", e};
      return lattice.advance(fold, nullptr, 1);
    }();
    digests.push_back(epoch_digest(analyses));
    if (e < kWarmupEpochs) continue;
    const vq::IncrementalDeltaStats& d = lattice.last_delta();
    epochs += 1;
    touched += d.cells_touched;
    hits += d.cache_hits;
    misses += d.cache_misses;
    for (const bool f : d.full_flag_pass) full += f ? 1 : 0;
    retained = d.cells;
  }
  const double region_s = seconds_between(start, Clock::now());
  check_against_reference(out, "incremental analyses equal the rebuild's",
                          digests, ref);

  const std::map<std::string, LayerTotals> totals = rec.totals(from);
  const double advance_s = totals.at("incremental").self_s;
  out.metrics["incremental.advance_s"] = advance_s;
  out.metrics["incremental.share"] = advance_s / region_s;
  out.metrics["incremental.retained_cells"] = static_cast<double>(retained);
  out.metrics["incremental.cells_touched"] =
      static_cast<double>(touched) / static_cast<double>(epochs);
  out.metrics["incremental.cache_hit_frac"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  out.metrics["incremental.full_flag_passes"] = static_cast<double>(full);
  out.layer_table += "\nIncremental lattice, epochs " +
                     std::to_string(kWarmupEpochs) + "-" +
                     std::to_string(kIncrementalEpochs - 1) +
                     " after a first-day warm-up (side pass, untimed):\n" +
                     layer_table(totals, region_s);
}

}  // namespace

RunResult run_stream(const RunOptions& opt) {
  const WorldSpec& world = kPaperWorld;
  const CachePaths paths = cache_paths(opt.cache_dir, world, opt.seed);
  const Reference ref = load_reference(paths.reference);
  vq::PipelineConfig config = pipeline_config(world);
  config.workers = 1;

  RunResult out;
  out.compute_threads = 1;
  const CpuTimes cpu0 = read_cpu_times();

  // Set-up-only rounds (the warm-up day alone), then timed rounds, each of
  // which starts with its own warm-up day: kSetupSamples set-ups at least.
  const std::size_t units =
      opt.trace ? 1 : units_for(opt.seconds, kStreamRoundNominalS);
  std::vector<double> setup_s;
  while (setup_s.size() + units < kSetupSamples) {
    setup_s.push_back(stream_round(paths.trace, config, kWarmupEpochs).setup_s);
  }
  std::vector<Round> rounds;
  double timed = 0.0;
  while (rounds.size() < units) {
    rounds.push_back(stream_round(paths.trace, config, world.epochs));
    setup_s.push_back(rounds.back().setup_s);
    timed += rounds.back().timed_s;
  }
  const double rss = peak_rss_mb();

  std::vector<double> epoch_ms;
  std::uint64_t sessions = 0;
  for (const Round& r : rounds) {
    epoch_ms.insert(epoch_ms.end(), r.epoch_ms.begin(), r.epoch_ms.end());
    sessions += r.timed_sessions;
    check_against_reference(out, "streaming analyses equal run_pipeline's",
                            r.digests, ref);
  }
  check_expected(out, rounds.front().digests, opt.expect);
  out.attempted = sessions;
  out.info["rounds"] = static_cast<double>(rounds.size());
  out.info["timed_epochs"] = static_cast<double>(epoch_ms.size());

  if (!opt.trace) {
    out.metrics["sessions_per_s"] = static_cast<double>(sessions) / timed;
    out.metrics["latency_ms_p50"] = median(epoch_ms);
    out.metrics["latency_ms_p90"] = percentile(epoch_ms, 0.90);
    out.metrics["peak_rss_mb"] = rss;
    report_setup(out, setup_s);
    finish_env(out, cpu0, opt.trace);
    return out;
  }

  // Traced: run_pipeline_streaming's calls, epoch by epoch.
  zero_layer_metrics(out);
  SpanRecorder rec;
  LayerCounts counts;
  std::vector<std::uint64_t> digests;
  const auto open0 = Clock::now();
  vq::ColumnarReader reader{paths.trace};
  const double open_s = seconds_between(open0, Clock::now());
  vq::SessionColumns columns;
  std::int64_t from = 0;
  Clock::time_point timed_start;
  std::optional<CpuRotation> rotation{std::in_place};
  for (std::uint32_t e = 0; e < world.epochs; ++e) {
    rotation->move(e);
    if (e == kWarmupEpochs) {
      from = now_ns();
      timed_start = Clock::now();
    }
    const bool counted = e >= kWarmupEpochs;
    const SpanRecorder::Scope epoch_span{rec, "pipeline", e};
    {
      const SpanRecorder::Scope s{rec, "gen", e};
      reader.read_epoch(e, columns);
    }
    const vq::LeafFold fold = [&] {
      const SpanRecorder::Scope s{rec, "fold", e};
      return vq::fold_sessions_columns(columns, config.thresholds, e);
    }();
    const vq::EpochClusterTable table = [&] {
      const SpanRecorder::Scope s{rec, "expand", e};
      return vq::expand_fold(fold, config.engine, nullptr, 1);
    }();
    std::array<vq::CriticalAnalysis, vq::kNumMetrics> analyses;
    for (const vq::Metric m : vq::kAllMetrics) {
      const SpanRecorder::Scope s{rec, "critical", e};
      analyses[static_cast<std::uint8_t>(m)] = vq::find_critical_clusters(
          fold, table, config.cluster_params, m, nullptr, 1);
    }
    if (counted) {
      counts.add_fold(columns.size(), fold);
      counts.add_table(table);
      for (const auto& a : analyses) counts.add_analysis(a);
    }
    digests.push_back(epoch_digest(analyses));
  }
  const double traced_s = seconds_between(timed_start, Clock::now());
  rotation.reset();
  out.check("traced analyses equal untraced", digests == rounds.front().digests);

  const double untraced_s = rounds.front().timed_s;
  layer_metrics(out, rec.totals(from), counts, traced_s, 1.0,
                kColumnRecordBytes);
  out.metrics["gen.load_s"] = open_s;
  double busy = 0.0;
  for (const double d : rec.durations("pipeline", from)) busy += d;
  out.metrics["pool.threads"] = 1.0;
  out.metrics["pool.busy_frac"] = busy / traced_s;
  out.metrics["pool.speedup_vs_1"] = 1.0;
  out.metrics["obs.trace_overhead_frac"] = traced_s / untraced_s - 1.0;
  out.layer_table = layer_table(rec.totals(from), traced_s);
  rec.write_tsv(opt.work_dir /
                ("spans_stream_" + std::to_string(opt.seed) + ".tsv"));
  incremental_side_pass(out, paths, ref, config);
  serve_side_pass(out, opt);
  finish_env(out, cpu0, opt.trace);
  return out;
}

}  // namespace e2e

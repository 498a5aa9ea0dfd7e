// Shared pieces of the end-to-end benchmark harness: the two generated
// worlds, the cached-input layout, output digests, timing helpers and the
// result record every workload fills in.
//
// The harness drives vidqual only through its public entry points
// (run_pipeline, run_pipeline_streaming, serve::Server + serve::Producer);
// the traced runs additionally call the layer functions those entry points
// call, in the same order, with a span around each call (spans.h).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/critical_cluster.h"
#include "src/core/monitor.h"
#include "src/core/pipeline.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds on the steady clock.  On Linux this is CLOCK_MONOTONIC,
/// which every process on the host shares, so the serve producer and the
/// server can compare schedules across the process boundary.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- worlds ------------------------------------------------------------------

/// A generated world: the gen-layer knobs plus the analysis floor used on it.
/// The world model itself (sites, CDNs, ASNs and their properties) is part
/// of the workload's definition and always built from kWorldSeed; the
/// workload seed draws the planted events (seed + 1) and the sessions
/// (seed + 2), as the CLI's `generate --seed` does.  The default seed
/// therefore reproduces the CLI's and bench_common.h's traces exactly.
struct WorldSpec {
  std::string_view name;
  std::uint32_t sites;
  std::uint32_t cdns;
  std::uint32_t asns;
  std::uint32_t epochs;
  std::uint32_t sessions_per_epoch;
  std::uint32_t min_sessions;
};

/// `vidqual generate --epochs 8 --sessions 300000 --sites 20 --cdns 3
/// --asns 50`, analysed with the CLI's automatic floor (~2 % of a mean
/// epoch): wide epochs of ~5 sessions per leaf.
inline constexpr WorldSpec kBenchWorld{"bench", 20, 3, 50, 8, 300'000, 4'500};

/// bench/bench_common.h's default experiment: two weeks of hourly epochs
/// with diurnal load and planted events; leaves are near-unique.
inline constexpr WorldSpec kPaperWorld{"paper", 379, 19, 2000, 336, 8'000,
                                       150};

/// Epochs of the first simulated day: the warm-up of the streaming
/// workloads and of the served detector.
inline constexpr std::uint32_t kWarmupEpochs = 24;

/// The stream's traced run also advances the incremental lattice over the
/// paper world's leading epochs only: the warm-up day plus one timed day
/// (its per-epoch cost grows with the retained lattice, so the epoch count
/// is part of the measurement's definition).
inline constexpr std::uint32_t kIncrementalEpochs = 48;

/// Open-loop period of one served epoch: ~8 K rows per 70 ms is ~115 K
/// rows/s, about half of what the streaming workload sustains.
inline constexpr std::int64_t kServePeriodMs = 70;

/// Epochs served by the stream's traced run after the warm-up day: world
/// epochs 24-165, ~10 s at one per kServePeriodMs.
inline constexpr std::uint32_t kServedEpochs = 142;

inline constexpr std::uint64_t kDefaultSeed = 2013;
inline constexpr std::uint64_t kWorldSeed = 2013;

const WorldSpec& world_by_name(std::string_view name);

vq::PipelineConfig pipeline_config(const WorldSpec& world);
vq::MonitorConfig monitor_config(const WorldSpec& world);

// --- cached inputs -----------------------------------------------------------

struct CachePaths {
  std::filesystem::path trace;      // VQTC columnar trace
  std::filesystem::path reference;  // per-epoch reference digests
};

CachePaths cache_paths(const std::filesystem::path& cache_dir,
                       const WorldSpec& world, std::uint64_t seed);

/// Per-epoch reference digests computed when the inputs are generated, by
/// paths independent of the ones the workloads time (see inputs.cpp).
struct Reference {
  std::vector<std::uint64_t> analysis;  // per epoch: four CriticalAnalysis
  std::vector<std::uint64_t> events;    // per epoch: detector events (paper)
  std::vector<std::uint64_t> sessions;  // per epoch: session count
};

/// Generates the world's trace for `seed` and its reference digests unless
/// both are already cached.  Output-neutral: inputs depend only on
/// (world, seed).
void prepare_inputs(const std::filesystem::path& cache_dir,
                    const WorldSpec& world, std::uint64_t seed);

Reference load_reference(const std::filesystem::path& path);

// --- digests -----------------------------------------------------------------

/// FNV-1a over a canonical byte image of every output field, doubles by bit
/// pattern: equal digests mean bit-identical analyses.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void digest_analysis(Digest& d, const vq::CriticalAnalysis& a);
void digest_event(Digest& d, const vq::IncidentEvent& ev);

/// Digest of one epoch's four analyses in metric order.
std::uint64_t epoch_digest(const vq::PipelineResult& result,
                           std::uint32_t epoch);
std::uint64_t epoch_digest(
    const std::array<vq::CriticalAnalysis, vq::kNumMetrics>& analyses);

/// Chains per-epoch digests into one output digest.
std::uint64_t chain(const std::vector<std::uint64_t>& per_epoch);

std::string hex(std::uint64_t v);

// --- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// CPUs this process may run on, as `nproc` counts them.
unsigned available_cpus();

/// Resident-set high-water mark of this process, MB (VmHWM).
double peak_rss_mb();

/// Aggregate CPU jiffies from /proc/stat, for the host steal share.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();

// --- results -----------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run reports.  `metrics` holds the end-to-end
/// metrics of an untraced run or the per-layer metrics of a traced one;
/// `info` carries descriptive values (sample counts, environment) that are
/// printed but are not benchmark metrics.
struct RunResult {
  std::map<std::string, double> metrics;
  std::map<std::string, double> info;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  // sessions offered to the timed region
  std::uint64_t failed = 0;     // sessions not analysed
  std::uint32_t compute_threads = 1;
  std::string layer_table;      // traced runs: per-layer breakdown

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
  [[nodiscard]] bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

/// Closed-loop workloads repeat a fixed unit of work (a batch pass, a
/// streaming round).  The number of units is the requested seconds over the
/// unit's nominal duration on the reference host, at least one, so the work
/// a run does never depends on how fast the host happens to be: counting
/// units until a deadline made faster runs do an extra, warmer unit.
inline std::size_t units_for(double seconds, double nominal_unit_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / nominal_unit_s + 0.5));
}

/// Nominal unit durations on the reference host (4-vCPU Xeon VM).
inline constexpr double kBatchPassNominalS = 0.4;
inline constexpr double kStreamRoundNominalS = 10.0;

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupSamples = 7;

/// Records the set-up samples: their median is the setup_s metric of an
/// untraced run; the count and range go to `out.info`.
void report_setup(RunResult& out, const std::vector<double>& setup_s);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path cache_dir;
  std::filesystem::path work_dir;  // sockets, span dumps
  std::filesystem::path self_exe;  // for spawning the serve producer
  std::string expect;  // output digest recorded for this seed, if any
  std::string expect_served;  // the served side pass's, likewise
};

/// Adds a check that the chained output digest equals `expect`, the digest
/// recorded for this seed in expected_digests.json (no-op when `expect` is
/// empty: no digest was recorded for the seed).
void check_expected(RunResult& out, const std::vector<std::uint64_t>& digests,
                    const std::string& expect);

/// Host steal share since `before` and the sequential-scan ceiling, into
/// `out.info` (and `out.metrics` for traced runs).
void finish_env(RunResult& out, const CpuTimes& before, bool traced);

/// Zeroes every per-layer metric, so a traced run reports all of them;
/// layers a workload does not exercise stay zero.
void zero_layer_metrics(RunResult& out);

RunResult run_batch(const RunOptions& opt);
RunResult run_stream(const RunOptions& opt);

/// Side pass of the stream's traced run: serves epochs [kWarmupEpochs,
/// kWarmupEpochs + kServedEpochs) of the paper world through serve::Server
/// from a producer process and adds the detector.* and serve.* metrics, the
/// serve checks and the per-layer table to `out`.
void serve_side_pass(RunResult& out, const RunOptions& opt);

/// The serve producer's process entry (`e2e_harness produce ...`).
int produce_main(int argc, char** argv);

}  // namespace e2e

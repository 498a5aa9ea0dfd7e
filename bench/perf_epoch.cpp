// Standalone whole-epoch benchmark: times one epoch of the production
// rebuild path — the leaf fold plus EpochAnalyzer::analyze at the CLI's
// automatic floor (~2 % of the epoch's sessions, at least 30) — on two
// generated epochs, and writes the numbers to BENCH_epoch.json:
//
//   bench world  one wide epoch over a compact attribute universe (20
//                sites, 3 CDNs, 50 ASNs; ~4 sessions per leaf), folded
//                from rows as run_pipeline folds it
//   paper world  one hourly epoch of the paper-scale world (379 sites, 19
//                CDNs, 2000 ASNs; near-unique leaves), folded from columns
//                as run_pipeline_streaming folds it
//
// It also times the paper-world epoch at floor 1 (`paper_full_*`), where
// the iceberg cube builds the full lattice and the sweep scatters all of
// its member lists.  No CI gate tracks that figure; it keeps the cost of
// the full lattice in view.
//
// Each repeat times both inputs in turn, so a burst of host noise lands on
// both, and each figure is the median repeat; the JSON also records the
// spread (interquartile range over median).  Like the other perf_* gates
// this is a plain main() so CI can run it in smoke mode and diff it
// against bench/baselines/epoch_smoke.json with tools/bench_check.
//
//   usage: perf_epoch [--smoke] [output.json]
//
// Smoke mode shrinks the bench-world epoch and the repeat count so the
// binary finishes in seconds.  Before it reports anything, every timed
// analysis must equal the reference path — a fresh expand_fold of the full
// lattice followed by find_critical_clusters at the same floor — or the
// binary exits 1 without writing numbers.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/core/critical_cluster.h"
#include "src/core/epoch_analyzer.h"
#include "src/gen/tracegen.h"

namespace {

using Clock = std::chrono::steady_clock;
using Analyses = std::array<vq::CriticalAnalysis, vq::kNumMetrics>;

/// One generated single-epoch input and everything timed on it.
struct EpochInput {
  std::string name;
  vq::SessionTable trace;
  vq::SessionColumns columns;  // filled for the columnar input only
  bool rows = true;
  vq::ProblemClusterParams params;
  std::vector<double> seconds;

  /// One timed run: the fold, then the analyzer's expansion and sweep.
  Analyses run(vq::LeafFold& fold, vq::EpochAnalyzer& analyzer) const {
    const vq::ProblemThresholds thresholds;
    if (rows) {
      vq::fold_sessions_into(trace.epoch(0), thresholds, 0, fold);
    } else {
      vq::fold_sessions_columns_into(columns, thresholds, 0, fold);
    }
    return analyzer.analyze(fold);
  }
};

EpochInput make_input(std::string name, std::uint32_t sites,
                      std::uint32_t cdns, std::uint32_t asns,
                      std::uint32_t sessions, bool rows) {
  vq::WorldConfig world_config;
  world_config.num_sites = sites;
  world_config.num_cdns = cdns;
  world_config.num_asns = asns;
  const vq::World world = vq::World::build(world_config);
  vq::EventScheduleConfig event_config;
  event_config.num_epochs = 1;
  const vq::EventSchedule events =
      vq::EventSchedule::generate(world, event_config);
  vq::TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = sessions;
  trace_config.diurnal_amplitude = 0.0;  // epoch 0 gets every session

  EpochInput input;
  input.name = std::move(name);
  input.trace = vq::generate_trace(world, events, trace_config);
  input.rows = rows;
  if (!rows) {
    input.columns = vq::SessionColumns::from_sessions(input.trace.epoch(0), 0);
  }
  // The CLI's automatic floor for a one-epoch trace.
  input.params.min_sessions = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(30, input.trace.size() / 50));
  return input;
}

/// The reference analyses: a row fold, a fresh full-lattice expansion and
/// the per-metric sweep at the input's floor.
Analyses reference(const EpochInput& input) {
  const vq::LeafFold fold =
      vq::fold_sessions(input.trace.epoch(0), vq::ProblemThresholds{}, 0);
  const vq::EpochClusterTable table = vq::expand_fold(fold, {});
  Analyses out;
  for (const vq::Metric m : vq::kAllMetrics) {
    out[static_cast<std::uint8_t>(m)] =
        vq::find_critical_clusters(fold, table, input.params, m);
  }
  return out;
}

/// Value at quantile q of sorted `v` (nearest rank).
double quantile(const std::vector<double>& sorted, double q) {
  const auto at = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[at];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vq;

  bool smoke = false;
  std::string out_path = "BENCH_epoch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }
  const std::uint32_t bench_sessions = smoke ? 40'000 : 300'000;
  const std::size_t reps = smoke ? 15 : 31;

  std::vector<EpochInput> inputs;
  inputs.push_back(make_input("bench", 20, 3, 50, bench_sessions, true));
  inputs.push_back(make_input("paper", 379, 19, 2000, 8'000, false));
  EpochInput full = inputs.back();
  full.name = "paper_full";
  full.params.min_sessions = 1;
  inputs.push_back(std::move(full));

  // Correctness before the numbers mean anything.  One analyzer and one
  // fold per input are kept across every run, as the streaming consumers
  // keep theirs.
  std::vector<LeafFold> folds(inputs.size());
  std::deque<EpochAnalyzer> analyzers;  // not movable: no vector
  for (const EpochInput& input : inputs) {
    analyzers.emplace_back(ClusterEngineConfig{}, input.params);
  }
  std::size_t criticals = 0;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const Analyses got = inputs[k].run(folds[k], analyzers[k]);
    if (got != reference(inputs[k])) {
      std::fprintf(stderr,
                   "FATAL: %s epoch: the analyzer disagrees with expand_fold "
                   "+ find_critical_clusters\n",
                   inputs[k].name.c_str());
      return 1;
    }
    for (const CriticalAnalysis& a : got) criticals += a.criticals.size();
  }
  if (criticals == 0) {
    std::fprintf(stderr, "FATAL: no critical clusters; the check is vacuous\n");
    return 1;
  }

  std::printf("perf_epoch: %zu reps, kernel %s\n", reps,
              std::string{batch_kernel_name()}.c_str());
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const auto start = Clock::now();
      const Analyses got = inputs[k].run(folds[k], analyzers[k]);
      const auto stop = Clock::now();
      if (got[0].sessions != inputs[k].trace.size()) return 1;
      inputs[k].seconds.push_back(
          std::chrono::duration<double>(stop - start).count());
    }
  }

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"epoch\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"kernel\": \"" << batch_kernel_name() << "\",\n"
      << "  \"reps\": " << reps << ",\n";
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EpochInput& input = inputs[k];
    std::sort(input.seconds.begin(), input.seconds.end());
    const double median = quantile(input.seconds, 0.5);
    const double spread = (quantile(input.seconds, 0.75) -
                           quantile(input.seconds, 0.25)) /
                          median;
    const double sessions = static_cast<double>(input.trace.size());
    std::printf("  %s epoch: %zu sessions, %zu leaves, floor %u: median "
                "%.2f ms (%.1fM sess/s, spread %.1f %%)\n",
                input.name.c_str(), input.trace.size(),
                folds[k].leaves.size(), input.params.min_sessions,
                median * 1e3, sessions / median / 1e6, spread * 100.0);
    const std::string& p = input.name;
    out << "  \"" << p << "_sessions\": " << input.trace.size() << ",\n"
        << "  \"" << p << "_leaves\": " << folds[k].leaves.size() << ",\n"
        << "  \"" << p << "_floor\": " << input.params.min_sessions << ",\n"
        << "  \"" << p << "_epoch_ms\": " << median * 1e3 << ",\n"
        << "  \"" << p << "_spread\": " << spread << ",\n"
        << "  \"" << p << "_epochs_per_sec\": " << 1.0 / median
        << (k + 1 < inputs.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// Standalone leaf-fold benchmark: times the row-wise fold_sessions hot
// loop against the column-batch fold on one realistic epoch and writes the
// numbers to BENCH_fold.json.
//
// Like perf_critical, this is a plain main() so CI can run it in smoke
// mode (the bench-smoke gate diffs it against bench/baselines/
// fold_smoke.json via tools/bench_check) and the JSON can be checked in as
// the PR's perf evidence.
//
//   usage: perf_fold [--smoke] [output.json]
//
//   VIDQUAL_FOLD_SESSIONS  sessions in the benchmarked epoch (default 400000)
//   VIDQUAL_FOLD_REPS      timed repetitions per variant     (default 20)
//
// Smoke mode shrinks both knobs so the whole binary finishes in seconds;
// it still exercises every variant and the bit-identity check.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "src/core/cluster_engine.h"
#include "src/core/columns.h"
#include "src/gen/tracegen.h"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

/// Seconds for `reps` runs of `body` (one warmup run first).
template <typename F>
double time_reps(std::size_t reps, F&& body) {
  body();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Exact equality of two leaf folds: root, and the canonical leaf arrays
/// element by element.
bool folds_identical(const vq::LeafFold& a, const vq::LeafFold& b) {
  return a.root == b.root && a.leaves == b.leaves;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vq;

  bool smoke = false;
  std::string out_path = "BENCH_fold.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const auto sessions_n = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_FOLD_SESSIONS", smoke ? 40'000 : 400'000));
  const auto reps =
      static_cast<std::size_t>(env_u64("VIDQUAL_FOLD_REPS", smoke ? 3 : 20));

  // One epoch over a compact attribute universe: leaves repeat heavily, the
  // regime the fold compresses and the columnar format targets.
  WorldConfig world_config;
  world_config.num_sites = 20;
  world_config.num_cdns = 3;
  world_config.num_asns = 50;
  const World world = World::build(world_config);
  EventScheduleConfig event_config;
  event_config.num_epochs = 1;
  const EventSchedule events = EventSchedule::generate(world, event_config);
  TraceConfig trace_config;
  trace_config.num_epochs = 1;
  trace_config.sessions_per_epoch = sessions_n;
  trace_config.diurnal_amplitude = 0.0;
  const SessionTable trace = generate_trace(world, events, trace_config);

  const ProblemThresholds thresholds;
  const SessionColumns columns =
      SessionColumns::from_sessions(trace.epoch(0), 0);

  std::printf("perf_fold: %zu sessions, %zu reps, kernel %s\n", trace.size(),
              reps, std::string{batch_kernel_name()}.c_str());

  // A "rep" is one full pass-1 fold of the epoch, so reps/sec is directly
  // fold epochs/sec — the unit the streaming pipeline consumes.
  const double row_s = time_reps(reps, [&] {
    const LeafFold fold = fold_sessions(trace.epoch(0), thresholds, 0);
    if (fold.root.sessions != trace.size()) std::abort();
  });
  const double columnar_s = time_reps(reps, [&] {
    const LeafFold fold = fold_sessions_columns(columns, thresholds, 0);
    if (fold.root.sessions != trace.size()) std::abort();
  });

  // Bit-identity before the numbers mean anything (the full differential
  // lives in tests/test_columns_fold.cpp).
  const LeafFold row_fold = fold_sessions(trace.epoch(0), thresholds, 0);
  const LeafFold columnar_fold = fold_sessions_columns(columns, thresholds, 0);
  if (!folds_identical(row_fold, columnar_fold)) {
    std::fprintf(stderr, "FATAL: fold variants disagree\n");
    return 1;
  }

  const double n = static_cast<double>(reps);
  const double row_eps = n / row_s;
  const double columnar_eps = n / columnar_s;
  const double sessions_per_sec =
      columnar_eps * static_cast<double>(trace.size());

  std::printf("  row-wise : %8.2f folds/sec\n", row_eps);
  std::printf("  columnar : %8.2f folds/sec  (%.2fx, %.1fM sess/s)\n",
              columnar_eps, columnar_eps / row_eps, sessions_per_sec / 1e6);

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"columnar_fold\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"kernel\": \"" << batch_kernel_name() << "\",\n"
      << "  \"sessions\": " << trace.size() << ",\n"
      << "  \"distinct_leaves\": " << row_fold.leaves.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"row_folds_per_sec\": " << row_eps << ",\n"
      << "  \"columnar_folds_per_sec\": " << columnar_eps << ",\n"
      << "  \"columnar_sessions_per_sec\": " << sessions_per_sec << ",\n"
      << "  \"speedup_columnar_vs_row\": " << columnar_eps / row_eps << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// Shared setup for the per-figure/table bench harnesses.
//
// Every harness runs against the same "default experiment": a two-week
// synthetic world scaled for a laptop (overridable through environment
// variables).  Each binary prints the paper's reported numbers next to the
// measured ones; absolute values differ (synthetic substrate, ~150x fewer
// sessions) — the reproduction target is the SHAPE of every series.
//
// The default significance floor of 150 sessions follows the paper's own
// calibration rule: its 1.5x multiplier "roughly represents two standard
// deviations" of the per-cluster ratio distribution, which at a global
// problem ratio around 0.1 requires n >= 16*(1-p)/p ~= 150 sessions.
//
//   VIDQUAL_EPOCHS              number of hourly epochs   (default 336)
//   VIDQUAL_SESSIONS_PER_EPOCH  mean sessions per epoch   (default 8000)
//   VIDQUAL_MIN_SESSIONS        problem-cluster floor     (default 150)
//   VIDQUAL_SEED                master seed               (default 2013)

#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "src/core/pipeline.h"
#include "src/gen/events.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "src/gen/world.h"

namespace vq::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::strtoull(value, nullptr, 10);
}

struct Experiment {
  World world;
  EventSchedule events;
  SessionTable trace;
  PipelineConfig config;
  PipelineResult result;
};

/// Builds the default experiment once per process.
inline const Experiment& default_experiment() {
  static const Experiment experiment = [] {
    const auto epochs =
        static_cast<std::uint32_t>(env_u64("VIDQUAL_EPOCHS", 336));
    const auto per_epoch = static_cast<std::uint32_t>(
        env_u64("VIDQUAL_SESSIONS_PER_EPOCH", 8000));
    const auto min_sessions = static_cast<std::uint32_t>(
        env_u64("VIDQUAL_MIN_SESSIONS", 150));
    const std::uint64_t seed = env_u64("VIDQUAL_SEED", 2013);

    WorldConfig world_config;
    world_config.num_asns = 2000;
    world_config.seed = seed;
    World world = World::build(world_config);

    EventScheduleConfig event_config;
    event_config.num_epochs = epochs;
    event_config.seed = seed + 1;
    EventSchedule events = EventSchedule::generate(world, event_config);

    TraceConfig trace_config;
    trace_config.num_epochs = epochs;
    trace_config.sessions_per_epoch = per_epoch;
    trace_config.seed = seed + 2;

    // Generation is deterministic in the knobs, so a binary on-disk cache
    // is output-neutral: each bench binary in a `for b in bench/*` sweep
    // loads the identical trace instead of re-simulating it.
    const std::filesystem::path cache =
        std::filesystem::temp_directory_path() /
        ("vidqual_bench_" + std::to_string(epochs) + "_" +
         std::to_string(per_epoch) + "_" + std::to_string(seed) + ".vqtr");
    SessionTable trace;
    bool loaded = false;
    if (std::filesystem::exists(cache)) {
      try {
        std::fprintf(stderr, "[bench] loading cached trace %s...\n",
                     cache.string().c_str());
        trace = read_trace_binary(cache).table;
        loaded = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[bench] cache unusable (%s); regenerating\n",
                     e.what());
      }
    }
    if (!loaded) {
      std::fprintf(stderr, "[bench] generating trace: %u epochs x ~%u...\n",
                   epochs, per_epoch);
      trace = generate_trace(world, events, trace_config);
      try {
        write_trace_binary(cache, trace, world.schema());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[bench] could not cache trace: %s\n", e.what());
      }
    }

    PipelineConfig config;
    config.cluster_params.min_sessions = min_sessions;

    std::fprintf(stderr, "[bench] running pipeline on %zu sessions...\n",
                 trace.size());
    PipelineResult result = run_pipeline(trace, config);

    return Experiment{std::move(world), std::move(events), std::move(trace),
                      config, std::move(result)};
  }();
  return experiment;
}

inline void print_header(const char* experiment_id, const char* paper_claim) {
  std::printf("== %s ==\n", experiment_id);
  std::printf("paper: %s\n\n", paper_claim);
}

}  // namespace vq::bench

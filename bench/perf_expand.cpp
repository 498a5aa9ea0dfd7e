// Standalone lattice-expansion benchmark: times pass 2 (expand_fold, the
// iceberg cube) on one realistic epoch fold at floor 1, where it builds
// the full lattice, and at the CLI's automatic floor (~2 % of the epoch's
// sessions), where it builds the significance-pruned lattice the
// production pipelines run, and writes the numbers to BENCH_expand.json.
//
// Like perf_fold, this is a plain main() so CI can run it in smoke mode
// (the bench-smoke gate diffs it against bench/baselines/expand_smoke.json
// via tools/bench_check) and the JSON can be checked in as the PR's perf
// evidence.
//
//   usage: perf_expand [--smoke] [output.json]
//
//   VIDQUAL_EXPAND_SESSIONS  sessions folded into the epoch (default 400000)
//   VIDQUAL_EXPAND_REPS      timed repetitions per floor     (default 10)
//
// Smoke mode shrinks the knobs so the whole binary finishes in seconds; it
// still runs the check, which refuses to report numbers when the pruned
// table is not the full one filtered to the floor, cell for cell.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cluster_engine.h"
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

/// The pruned table against the full one: the full table's cells with
/// sessions >= floor, in id order, and every pruned cell's member groups,
/// expanded to their leaves, exactly the full cell's members (one group
/// per leaf there), each list ascending.
bool pruned_matches_full(const vq::EpochClusterTable& full,
                         const vq::EpochClusterTable& pruned,
                         std::uint32_t floor) {
  if (!(full.root == pruned.root) || pruned.floor != floor ||
      full.leaf_index.leaf_keys != pruned.leaf_index.leaf_keys) {
    return false;
  }
  std::uint32_t next = 0;
  for (std::uint32_t id = 0; id < full.clusters.size(); ++id) {
    if (full.clusters.cell(id).sessions < floor) continue;
    if (next >= pruned.clusters.size() ||
        pruned.clusters.key(next) != full.clusters.key(id) ||
        !(pruned.clusters.cell(next) == full.clusters.cell(id))) {
      return false;
    }
    ++next;
  }
  if (next != pruned.clusters.size()) return false;

  const vq::LeafCellIndex& index = pruned.leaf_index;
  std::vector<std::vector<std::uint32_t>> want(pruned.clusters.size());
  for (std::uint32_t id = 0; id < full.clusters.size(); ++id) {
    if (full.clusters.cell(id).sessions < floor) continue;
    const auto members = full.leaf_index.members(id);
    want[pruned.clusters.id_of(full.clusters.key(id))].assign(
        members.begin(), members.end());
  }
  std::vector<std::vector<std::uint32_t>> group_leaves(index.num_groups());
  for (std::uint32_t i = 0; i < index.num_leaves(); ++i) {
    group_leaves[index.leaf_group[i]].push_back(i);
  }
  std::vector<std::uint32_t> got;
  for (std::uint32_t id = 0; id < pruned.clusters.size(); ++id) {
    const auto members = index.members(id);
    if (!std::is_sorted(members.begin(), members.end()) ||
        std::adjacent_find(members.begin(), members.end()) != members.end()) {
      return false;
    }
    got.clear();
    for (const std::uint32_t g : members) {
      got.insert(got.end(), group_leaves[g].begin(), group_leaves[g].end());
    }
    std::sort(got.begin(), got.end());
    if (got != want[id]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vq;

  bool smoke = false;
  std::string out_path = "BENCH_expand.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  const auto sessions_n = static_cast<std::uint32_t>(
      env_u64("VIDQUAL_EXPAND_SESSIONS", smoke ? 40'000 : 400'000));
  const auto reps = static_cast<std::size_t>(
      env_u64("VIDQUAL_EXPAND_REPS", smoke ? 3 : 10));

  // Same default bench world as perf_fold: one epoch over a compact
  // attribute universe, so leaves repeat heavily and the expansion — not
  // the fold — dominates.
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
  const LeafFold fold = fold_sessions(trace.epoch(0), thresholds, 0);
  const ClusterEngineConfig config;

  std::printf("perf_expand: %zu sessions, %zu leaves, %zu reps\n",
              trace.size(), fold.leaves.size(), reps);

  // A "rep" is one pass-2 expansion of the epoch fold, so reps/sec is
  // directly expand epochs/sec.
  const auto check = [&](const EpochClusterTable& table) {
    if (table.root.sessions != trace.size()) std::abort();
  };
  const double full_s = time_reps(
      reps, [&] { check(expand_fold(fold, config, nullptr, 1, 1)); });
  // The CLI's automatic floor: ~2 % of a mean epoch, at least 30.
  const auto floor = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(30, trace.size() / 50));
  const double pruned_s = time_reps(
      reps, [&] { check(expand_fold(fold, config, nullptr, 1, floor)); });

  // The pruned table must be the full one at the floor before the numbers
  // mean anything (the check against a brute-force aggregation lives in
  // tests/test_expand_differential.cpp and tests/test_oracle.cpp).
  const EpochClusterTable table = expand_fold(fold, config, nullptr, 1, 1);
  const EpochClusterTable pruned =
      expand_fold(fold, config, nullptr, 1, floor);
  if (!pruned_matches_full(table, pruned, floor)) {
    std::fprintf(stderr,
                 "FATAL: pruned table is not the full one at the floor\n");
    return 1;
  }

  const double n = static_cast<double>(reps);
  const double full_eps = n / full_s;
  const double pruned_eps = n / pruned_s;

  std::printf("  full at 1         : %8.2f expands/sec  (%zu cells)\n",
              full_eps, table.clusters.size());
  std::printf("  pruned at %-7u : %8.2f expands/sec  (%zu row groups, "
              "%zu cells)\n",
              floor, pruned_eps, pruned.leaf_index.num_groups(),
              pruned.clusters.size());

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"expand\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"sessions\": " << trace.size() << ",\n"
      << "  \"leaves\": " << fold.leaves.size() << ",\n"
      << "  \"cells\": " << table.clusters.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"full_expands_per_sec\": " << full_eps << ",\n"
      << "  \"floor\": " << floor << ",\n"
      << "  \"row_groups\": " << pruned.leaf_index.num_groups() << ",\n"
      << "  \"pruned_cells\": " << pruned.clusters.size() << ",\n"
      << "  \"pruned_expands_per_sec\": " << pruned_eps << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

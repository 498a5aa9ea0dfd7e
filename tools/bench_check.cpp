// bench_check — the CI perf-regression gate.
//
//   usage: bench_check <current.json> <baseline.json>
//                      [--max-regress F=0.30] [--track KEY]...
//                      [--allow-missing-baseline] [--summary-md FILE]
//
// Compares a perf harness run (typically `perf_critical --smoke` or
// `perf_fold --smoke` in CI) against the checked-in baseline
// (bench/baselines/*.json) and exits nonzero when any tracked throughput
// metric regressed by more than the threshold:
// current < baseline * (1 - F).  Improvements and small fluctuations pass;
// the default 30 % floor absorbs runner-to-runner noise while still
// catching a genuine 2x slowdown (a 50 % regression).
//
// With no --track flags the perf_critical keys are checked (the original
// behaviour); each --track KEY replaces that default with an explicit
// higher-is-better key list, so one binary gates every harness.
//
// --allow-missing-baseline makes an absent/unreadable baseline file a
// clean pass (exit 0) instead of a usage error — the bootstrap case when a
// new harness lands before its baseline has been recorded on the CI
// runner class.  --summary-md FILE appends a markdown throughput table to
// FILE (CI points it at $GITHUB_STEP_SUMMARY), one row per tracked key.
//
// Only the flat numeric keys it tracks are read — the JSON "parser" is a
// deliberate 30-line key scanner, same dependency budget as the rest of
// tools/ (none).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::optional<std::string> slurp(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Value of `"key": <number>` in a flat JSON object; nullopt when absent.
std::optional<double> number_field(const std::string& json,
                                   const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = json.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  const char* start = json.c_str() + pos + 1;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

/// Default tracked metrics — perf_critical's keys (higher is better).
constexpr const char* kDefaultTracked[] = {
    "indexed_epochs_per_sec",
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: bench_check <current.json> <baseline.json> "
                 "[--max-regress F=0.30] [--track KEY]... "
                 "[--allow-missing-baseline] [--summary-md FILE]\n");
    return 2;
  }
  double max_regress = 0.30;
  bool allow_missing_baseline = false;
  std::string summary_md;
  std::vector<std::string> tracked;
  for (int i = 3; i < argc; ++i) {
    const std::string arg{argv[i]};
    if (arg == "--max-regress" && i + 1 < argc) {
      max_regress = std::atof(argv[++i]);
    } else if (arg == "--track" && i + 1 < argc) {
      tracked.emplace_back(argv[++i]);
    } else if (arg == "--allow-missing-baseline") {
      allow_missing_baseline = true;
    } else if (arg == "--summary-md" && i + 1 < argc) {
      summary_md = argv[++i];
    } else {
      std::fprintf(stderr, "bench_check: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (tracked.empty()) {
    for (const char* key : kDefaultTracked) tracked.emplace_back(key);
  }

  const auto current = slurp(argv[1]);
  const auto baseline = slurp(argv[2]);
  if (!current.has_value()) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", argv[1]);
    return 2;
  }
  if (!baseline.has_value()) {
    if (allow_missing_baseline) {
      std::fprintf(stderr,
                   "bench_check: baseline %s missing — passing "
                   "(--allow-missing-baseline); record one to arm the "
                   "gate\n",
                   argv[2]);
      return 0;
    }
    std::fprintf(stderr, "bench_check: cannot read %s\n", argv[2]);
    return 2;
  }

  int failures = 0;
  int checked = 0;
  std::vector<std::string> summary_rows;
  for (const std::string& key : tracked) {
    const auto cur = number_field(*current, key);
    const auto base = number_field(*baseline, key);
    if (!base.has_value()) {
      std::fprintf(stderr, "bench_check: baseline lacks '%s' — skipping\n",
                   key.c_str());
      continue;
    }
    if (!cur.has_value()) {
      std::fprintf(stderr, "bench_check: FAIL %s missing from current run\n",
                   key.c_str());
      summary_rows.push_back("| `" + key + "` | missing | — | — | FAIL |");
      ++failures;
      continue;
    }
    ++checked;
    const double floor = *base * (1.0 - max_regress);
    const double delta = *base > 0.0 ? (*cur - *base) / *base * 100.0 : 0.0;
    const bool regressed = *cur < floor;
    if (regressed) {
      std::fprintf(stderr,
                   "bench_check: FAIL %s = %.4g vs baseline %.4g "
                   "(%+.1f%%, floor %.4g at -%.0f%%)\n",
                   key.c_str(), *cur, *base, delta, floor,
                   max_regress * 100.0);
      ++failures;
    } else {
      std::fprintf(stderr, "bench_check: ok   %s = %.4g vs baseline %.4g "
                   "(%+.1f%%)\n",
                   key.c_str(), *cur, *base, delta);
    }
    char row[256];
    std::snprintf(row, sizeof(row),
                  "| `%s` | %.4g | %.4g | %+.1f%% | %s |", key.c_str(), *cur,
                  *base, delta, regressed ? "FAIL" : "ok");
    summary_rows.emplace_back(row);
  }
  if (!summary_md.empty()) {
    std::ofstream out{summary_md, std::ios::app};
    if (out) {
      out << "### bench_check: " << argv[1] << "\n\n"
          << "| metric | current | baseline | delta | status |\n"
          << "| --- | ---: | ---: | ---: | --- |\n";
      for (const std::string& row : summary_rows) out << row << "\n";
      out << "\n";
    } else {
      std::fprintf(stderr, "bench_check: cannot append to %s\n",
                   summary_md.c_str());
    }
  }
  if (checked == 0 && failures == 0) {
    std::fprintf(stderr,
                 "bench_check: no tracked metrics found in baseline\n");
    return 2;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_check: %d metric(s) regressed beyond %.0f%%\n",
                 failures, max_regress * 100.0);
    return 1;
  }
  std::fprintf(stderr, "bench_check: all %d tracked metric(s) within "
               "threshold\n", checked);
  return 0;
}

// Standalone trace ingest benchmark: times the trace readers on generated
// traces held in memory (a std::stringstream), so the figures are decode
// cost, not disk, and writes them to BENCH_ingest.json:
//
//   paper  hourly epochs of the paper-scale world (379 sites, 19 CDNs,
//          2000 ASNs, ~8K sessions each), read one epoch at a time through
//          ColumnarReader::read_epoch into one reused batch, as
//          run_pipeline_streaming reads them (epochs/s)
//   bench  the wide-epoch world (20 sites, 3 CDNs, 50 ASNs; e2ebench's
//          bench world) loaded whole by read_trace_columnar_robust into a
//          SessionTable, as the batch commands load it (MB/s of container)
//   bench_vqtr  the same sessions as a row-wise VQTR container, loaded
//          whole by read_trace_binary_robust (MB/s of container).  Reported
//          only: no CI gate tracks it.
//
// Each repeat times the paper stream and the bench load in turn, so a
// burst of host noise lands on both; the VQTR loads follow in a loop of
// their own.  Each figure is the median repeat, and the JSON records the
// spread (interquartile range over median).  A plain main() like the other
// perf_* gates, so CI runs it in smoke mode and diffs it against
// bench/baselines/ingest_smoke.json with tools/bench_check.
//
//   usage: perf_ingest [--smoke] [output.json]
//
// Smoke mode shrinks the traces and the repeat count so the binary
// finishes in seconds.  Before it reports anything, every epoch read and
// both whole loads must equal the generated sessions, with a clean
// IngestReport, or the binary exits 1 without writing numbers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/gen/columnar.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Trace {
  vq::SessionTable table;
  std::string bytes;       // the VQTC container
  std::string vqtr_bytes;  // the same sessions as a VQTR container
};

Trace make_trace(std::uint32_t sites, std::uint32_t cdns, std::uint32_t asns,
                 std::uint32_t epochs, std::uint32_t sessions) {
  vq::WorldConfig world_config;
  world_config.num_sites = sites;
  world_config.num_cdns = cdns;
  world_config.num_asns = asns;
  const vq::World world = vq::World::build(world_config);
  vq::EventScheduleConfig event_config;
  event_config.num_epochs = epochs;
  event_config.seed = world_config.seed + 1;
  const vq::EventSchedule events =
      vq::EventSchedule::generate(world, event_config);
  vq::TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch = sessions;
  trace_config.seed = world_config.seed + 2;

  Trace out;
  out.table = vq::generate_trace(world, events, trace_config);
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  vq::write_trace_columnar(buffer, out.table, world.schema());
  out.bytes = buffer.str();
  std::stringstream rows{std::ios::in | std::ios::out | std::ios::binary};
  vq::write_trace_binary(rows, out.table, world.schema());
  out.vqtr_bytes = rows.str();
  return out;
}

bool same_rows(std::span<const vq::Session> a,
               std::span<const vq::Session> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const vq::Session& x, const vq::Session& y) {
                      return x.epoch == y.epoch && x.attrs == y.attrs &&
                             x.quality == y.quality;
                    });
}

/// Reads every epoch of `trace` into one reused batch and returns the
/// seconds the epoch loop took (the reader is opened before the clock
/// starts).  With `check` set, each epoch must equal the table's; `ok`
/// turns false on a mismatch, a degraded epoch or a lost row.
double stream_epochs(const Trace& trace, bool check, bool& ok) {
  std::stringstream in{trace.bytes, std::ios::in | std::ios::binary};
  vq::ColumnarReader reader{in};
  vq::SessionColumns columns;
  std::vector<vq::Session> rows;
  std::size_t total = 0;
  const auto start = Clock::now();
  for (std::uint32_t e = 0; e < reader.num_epochs(); ++e) {
    ok = !reader.read_epoch(e, columns) && ok;
    total += columns.size();
    if (check) {
      rows.clear();
      columns.append_rows(e, rows);
      ok = ok && same_rows(rows, trace.table.epoch(e));
    }
  }
  const auto stop = Clock::now();
  ok = ok && total == trace.table.size() && !reader.report().degraded();
  return std::chrono::duration<double>(stop - start).count();
}

/// Value at quantile q of sorted `v` (nearest rank).
double quantile(const std::vector<double>& sorted, double q) {
  const auto at = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[at];
}

struct Figure {
  double median = 0.0;
  double spread = 0.0;
};

Figure summarize(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  Figure f;
  f.median = quantile(seconds, 0.5);
  f.spread =
      (quantile(seconds, 0.75) - quantile(seconds, 0.25)) / f.median;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }
  const std::uint32_t paper_epochs = smoke ? 48 : 96;
  const std::uint32_t bench_sessions = smoke ? 40'000 : 300'000;
  const std::size_t reps = smoke ? 21 : 31;

  const Trace paper = make_trace(379, 19, 2000, paper_epochs, 8'000);
  const Trace bench = make_trace(20, 3, 50, 8, bench_sessions);

  // Correctness before the numbers mean anything.
  bool ok = true;
  (void)stream_epochs(paper, true, ok);
  for (const bool vqtr : {false, true}) {
    std::stringstream in{vqtr ? bench.vqtr_bytes : bench.bytes,
                         std::ios::in | std::ios::binary};
    const vq::RobustLoadedTrace loaded =
        vqtr ? vq::read_trace_binary_robust(in)
             : vq::read_trace_columnar_robust(in);
    ok = ok && !loaded.report.degraded() &&
         loaded.table.num_epochs() == bench.table.num_epochs() &&
         same_rows(loaded.table.sessions(), bench.table.sessions());
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FATAL: a read disagrees with the generated sessions\n");
    return 1;
  }

  std::vector<double> paper_s;
  std::vector<double> bench_s;
  for (std::size_t r = 0; r < reps; ++r) {
    paper_s.push_back(stream_epochs(paper, false, ok));
    if (!ok) return 1;

    std::stringstream in{bench.bytes, std::ios::in | std::ios::binary};
    const auto start = Clock::now();
    const vq::RobustLoadedTrace loaded = vq::read_trace_columnar_robust(in);
    const auto stop = Clock::now();
    if (loaded.table.size() != bench.table.size()) return 1;
    bench_s.push_back(std::chrono::duration<double>(stop - start).count());
  }
  // The ungated VQTR load runs after the gated figures, so it changes
  // nothing of the conditions they are measured under.
  std::vector<double> vqtr_s;
  for (std::size_t r = 0; r < reps; ++r) {
    std::stringstream in{bench.vqtr_bytes, std::ios::in | std::ios::binary};
    const auto start = Clock::now();
    const vq::RobustLoadedTrace loaded = vq::read_trace_binary_robust(in);
    const auto stop = Clock::now();
    if (loaded.table.size() != bench.table.size()) return 1;
    vqtr_s.push_back(std::chrono::duration<double>(stop - start).count());
  }

  const Figure p = summarize(paper_s);
  const Figure b = summarize(bench_s);
  const Figure v = summarize(vqtr_s);
  const double epochs = static_cast<double>(paper.table.num_epochs());
  const double bench_mb = static_cast<double>(bench.bytes.size()) / 1e6;
  const double vqtr_mb = static_cast<double>(bench.vqtr_bytes.size()) / 1e6;
  std::printf("perf_ingest: %zu reps\n", reps);
  std::printf("  paper stream: %u epochs, %zu sessions: median %.1f us per "
              "epoch (%.0f epochs/s, spread %.1f %%)\n",
              paper.table.num_epochs(), paper.table.size(),
              p.median / epochs * 1e6, epochs / p.median, p.spread * 100.0);
  std::printf("  bench load: %zu sessions, %.1f MB: median %.2f ms (%.0f "
              "MB/s, spread %.1f %%)\n",
              bench.table.size(), bench_mb, b.median * 1e3,
              bench_mb / b.median, b.spread * 100.0);
  std::printf("  bench .vqtr load: %.1f MB: median %.2f ms (%.0f MB/s, "
              "spread %.1f %%)\n",
              vqtr_mb, v.median * 1e3, vqtr_mb / v.median, v.spread * 100.0);

  std::ofstream out{out_path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"ingest\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"paper_epochs\": " << paper.table.num_epochs() << ",\n"
      << "  \"paper_sessions\": " << paper.table.size() << ",\n"
      << "  \"paper_epoch_us\": " << p.median / epochs * 1e6 << ",\n"
      << "  \"paper_spread\": " << p.spread << ",\n"
      << "  \"paper_epochs_per_sec\": " << epochs / p.median << ",\n"
      << "  \"bench_sessions\": " << bench.table.size() << ",\n"
      << "  \"bench_mb\": " << bench_mb << ",\n"
      << "  \"bench_load_ms\": " << b.median * 1e3 << ",\n"
      << "  \"bench_spread\": " << b.spread << ",\n"
      << "  \"bench_load_mb_per_sec\": " << bench_mb / b.median << ",\n"
      << "  \"bench_vqtr_mb\": " << vqtr_mb << ",\n"
      << "  \"bench_vqtr_load_ms\": " << v.median * 1e3 << ",\n"
      << "  \"bench_vqtr_spread\": " << v.spread << ",\n"
      << "  \"bench_vqtr_load_mb_per_sec\": " << vqtr_mb / v.median << "\n"
      << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

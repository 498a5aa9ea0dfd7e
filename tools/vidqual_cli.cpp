// vidqual — command-line front end.
//
//   vidqual generate --epochs 48 --sessions 3000 --out trace.csv
//   vidqual analyze  --in trace.csv [--min-sessions 100] [--top 5]
//   vidqual convert  --in trace.csv --out trace.vqtc
//   vidqual whatif   --in trace.csv --metric JoinFailure --top-frac 0.01
//   vidqual monitor  --in trace.csv [--delay 1]
//
// Trace files ending in .vqtr use the row-wise binary container, .vqtc the
// out-of-core columnar container (src/gen/columnar.h); anything else is
// treated as CSV.  --format csv|binary|columnar overrides the extension.
// analyze and monitor stream .vqtc inputs one epoch at a time instead of
// materializing the trace.

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <algorithm>

#include "src/baseline/hhh.h"
#include "src/core/anomaly.h"
#include "src/core/monitor.h"
#include "src/core/report.h"
#include "src/core/overlap.h"
#include "src/core/pipeline.h"
#include "src/core/prevalence.h"
#include "src/core/whatif.h"
#include "src/gen/columnar.h"
#include "src/gen/robust_io.h"
#include "src/gen/trace_io.h"
#include "src/gen/tracegen.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/producer.h"
#include "src/serve/server.h"
#include "src/util/args.h"

namespace {

using namespace vq;

/// Set by the SIGINT/SIGTERM handler; both the file-mode epoch loop and the
/// socket server poll it, so drain semantics are uniform: seal the current
/// epoch, write the checkpoint, exit 0.
volatile std::sig_atomic_t g_drain_requested = 0;

extern "C" void handle_drain_signal(int) { g_drain_requested = 1; }

void install_drain_handlers() {
  std::signal(SIGINT, handle_drain_signal);
  std::signal(SIGTERM, handle_drain_signal);
  // A producer that vanishes mid-write must surface as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  vidqual generate --out FILE [--epochs N=48] [--sessions N=3000]\n"
      "                   [--seed S=2013] [--sites N=379] [--cdns N=19]\n"
      "                   [--asns N=2000] [--no-events]\n"
      "  vidqual analyze  --in FILE [--min-sessions N=auto] [--top K=5]\n"
      "                   [--on-error strict|quarantine|best-effort]\n"
      "                   [--workers N=auto] [--max-cells N]\n"
      "                   [--stats-out FILE] [--trace-out FILE]\n"
      "  vidqual convert  --in FILE --out FILE [--format csv|binary|"
      "columnar]\n"
      "                   [--on-error strict|quarantine|best-effort]\n"
      "  vidqual whatif   --in FILE [--metric NAME=JoinFailure]\n"
      "                   [--top-frac F=0.01] [--rank coverage|prevalence|"
      "persistence]\n"
      "                   [--min-sessions N=auto] [--reactive-delay H]\n"
      "  vidqual monitor  --in FILE [--delay H=1] [--min-sessions N=auto]\n"
      "                   [--checkpoint FILE] [--on-error strict|quarantine|"
      "best-effort]\n"
      "                   [--stop-after N] [--stats-out FILE] "
      "[--trace-out FILE]\n"
      "  vidqual monitor  --serve ADDR [--delay H=1] [--min-sessions N=1000]\n"
      "                   [--checkpoint FILE] [--on-error strict|quarantine|"
      "best-effort]\n"
      "                   [--queue-rows N=65536] [--overload block|shed]\n"
      "                   [--push-deadline-ms N=200] [--idle-timeout-ms "
      "N=30000]\n"
      "                   [--read-timeout-ms N=10000] [--max-frame-bytes N]\n"
      "                   [--max-conns N=64] [--serve-drain]\n"
      "  vidqual feed     --in FILE --connect ADDR [--rows-per-frame N=4096]\n"
      "                   [--on-error strict|quarantine|best-effort]\n"
      "  vidqual timeline --in FILE [--min-sessions N=auto] [--z 3.0]\n"
      "  vidqual report   --in FILE [--min-sessions N=auto] [--top K=5]\n"
      "\nFILEs ending in .vqtr are binary, .vqtc columnar; anything else is\n"
      "CSV (--format overrides the extension on generate/convert output).\n"
      "analyze/monitor stream .vqtc inputs at O(one epoch) memory.\n"
      "monitor --checkpoint saves detector state after every epoch (atomic\n"
      "temp-then-rename) and resumes from it when the file exists, so a\n"
      "killed monitor replays no epoch and re-raises no incident.\n"
      "monitor --serve ADDR listens on \"unix:<path>\" or \"<ipv4>:<port>\"\n"
      "for live producers (vidqual feed) instead of reading a file; SIGTERM\n"
      "or SIGINT drains: seal pending epochs, checkpoint, exit 0.\n"
      "--stats-out writes the deterministic metric snapshot (byte-identical\n"
      "for any --workers); --trace-out writes per-stage spans as\n"
      "chrome://tracing / Perfetto JSON.\n"
      "analyze runs epochs in parallel on --workers threads, except where\n"
      "epochs stream (.vqtc inputs, or --max-cells): there, as in monitor,\n"
      "each epoch is analysed in order on one thread.\n"
      "An option a command does not know exits 2 and names the option.\n"
      "Accepted but read by nothing: --incremental on analyze and monitor\n"
      "(every epoch is analysed from its own sessions; a note says so),\n"
      "--shards on analyze and monitor, and --workers on monitor.\n"
      "--max-cells N bounds the lattice by sketch-based admission: only\n"
      "each epoch's heavy leaves (space-saving summary, N/127 leaf budget)\n"
      "enter the exact lattice; global ratios stay exact.\n");
  return 2;
}

enum class TraceFormat { kCsv, kBinary, kColumnar };

bool ends_with(std::string_view path, std::string_view suffix) {
  return path.size() > suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

TraceFormat format_for_path(std::string_view path) {
  if (ends_with(path, ".vqtr")) return TraceFormat::kBinary;
  if (ends_with(path, ".vqtc")) return TraceFormat::kColumnar;
  return TraceFormat::kCsv;
}

const char* format_name(TraceFormat f) {
  switch (f) {
    case TraceFormat::kCsv: return "csv";
    case TraceFormat::kBinary: return "binary";
    case TraceFormat::kColumnar: return "columnar";
  }
  return "?";
}

/// Output format: explicit --format wins, otherwise the path's extension.
/// nullopt (after a message) on an unknown --format name.
std::optional<TraceFormat> resolve_format(const ArgParser& args,
                                          std::string_view path) {
  const auto name = args.option("format");
  if (!name.has_value()) return format_for_path(path);
  if (*name == "csv") return TraceFormat::kCsv;
  if (*name == "binary") return TraceFormat::kBinary;
  if (*name == "columnar") return TraceFormat::kColumnar;
  std::fprintf(stderr,
               "unknown --format '%s' (use csv, binary, or columnar)\n",
               std::string{*name}.c_str());
  return std::nullopt;
}

void write_trace_as(TraceFormat format, const std::filesystem::path& path,
                    const SessionTable& table, const AttributeSchema& schema) {
  switch (format) {
    case TraceFormat::kCsv: write_trace_csv(path, table, schema); return;
    case TraceFormat::kBinary: write_trace_binary(path, table, schema); return;
    case TraceFormat::kColumnar:
      write_trace_columnar(path, table, schema);
      return;
  }
}

/// --on-error POLICY (default strict); exits via usage() on a bad name, so
/// callers receive a valid policy or the process is already done.
std::optional<ErrorPolicy> on_error_policy(const ArgParser& args) {
  const auto name = args.option("on-error").value_or("strict");
  const auto policy = parse_error_policy(name);
  if (!policy.has_value()) {
    std::fprintf(stderr,
                 "unknown --on-error '%s' (use strict, quarantine, or "
                 "best-effort)\n",
                 std::string{name}.c_str());
  }
  return policy;
}

/// True, after naming each one on stderr, when an option outside `allowed`
/// was given: a misspelled option must fail the command, not leave a
/// default silently in force.  Callers exit 2.
bool has_unknown_options(const ArgParser& args, const char* command,
                         std::initializer_list<std::string_view> allowed) {
  const std::vector<std::string> unknown = args.unknown_options(allowed);
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "vidqual %s: unknown option --%s\n", command,
                 name.c_str());
  }
  return !unknown.empty();
}

/// --incremental is accepted on analyze and monitor and ignored, with one
/// notice on stderr: every command analyses each epoch from its own
/// sessions, and the incremental lattice (incremental.h) is bench-only.
void note_ignored_incremental(const ArgParser& args) {
  if (args.flag("incremental")) {
    std::fprintf(stderr,
                 "note: --incremental is ignored; every epoch is analysed "
                 "from its own sessions\n");
  }
}

/// Reports an ingest pass's data quality on stderr when it lost rows,
/// was truncated, or repaired fields under best-effort.
void print_ingest_line(const IngestReport& report, ErrorPolicy policy) {
  if (!report.degraded() && report.fields_clamped == 0) return;
  std::fprintf(stderr, "ingest (%s): %s\n",
               std::string{error_policy_name(policy)}.c_str(),
               report.summary().c_str());
}

/// Loads with the row-error policy and reports data quality on stderr.
RobustLoadedTrace load_robust(std::string_view path, ErrorPolicy policy) {
  const std::filesystem::path p{std::string{path}};
  const RobustReadOptions options{.policy = policy};
  RobustLoadedTrace loaded = [&] {
    switch (format_for_path(path)) {
      case TraceFormat::kBinary: return read_trace_binary_robust(p, options);
      case TraceFormat::kColumnar:
        return read_trace_columnar_robust(p, options);
      case TraceFormat::kCsv: break;
    }
    return read_trace_csv_robust(p, options);
  }();
  print_ingest_line(loaded.report, policy);
  return loaded;
}

/// --stats-out / --trace-out plumbing shared by analyze and monitor.
struct ObsRequest {
  std::optional<std::string> stats_path;
  std::optional<std::string> trace_path;
};

/// Parses the flags and flips the observability kill switch on when either
/// output was requested, so spans and timing histograms record for the run.
ObsRequest obs_request(const ArgParser& args) {
  ObsRequest req;
  if (const auto s = args.option("stats-out")) req.stats_path = std::string{*s};
  if (const auto t = args.option("trace-out")) req.trace_path = std::string{*t};
  if (req.stats_path.has_value() || req.trace_path.has_value()) {
    obs::set_enabled(true);
  }
  return req;
}

/// Writes the requested observability outputs; returns 0 on success. The
/// stats snapshot contains deterministic (kStable) metrics only, so it is
/// byte-identical across --workers settings on the same input.
int write_obs_outputs(const ObsRequest& req) {
  if (req.stats_path.has_value()) {
    std::ofstream out{*req.stats_path, std::ios::trunc};
    out << obs::Registry::global().snapshot_json();
    if (!out) {
      std::fprintf(stderr, "error: cannot write --stats-out %s\n",
                   req.stats_path->c_str());
      return 1;
    }
  }
  if (req.trace_path.has_value()) {
    std::ofstream out{*req.trace_path, std::ios::trunc};
    obs::TraceRecorder::global().write_chrome_trace(out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write --trace-out %s\n",
                   req.trace_path->c_str());
      return 1;
    }
  }
  return 0;
}

std::uint32_t auto_min_sessions_from(std::uint64_t total_sessions,
                                     std::uint32_t num_epochs,
                                     const ArgParser& args) {
  const auto explicit_value = args.option_u64("min-sessions", 0);
  if (explicit_value > 0) {
    return static_cast<std::uint32_t>(explicit_value);
  }
  // ~2% of a mean epoch, floored: the statistical calibration DESIGN.md
  // derives from the paper's 1.5x ~= 2 sigma rule.
  const std::uint64_t per_epoch =
      num_epochs == 0 ? 0 : total_sessions / num_epochs;
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(
      30, per_epoch / 50));
}

std::uint32_t auto_min_sessions(const SessionTable& table,
                                const ArgParser& args) {
  return auto_min_sessions_from(table.size(), table.num_epochs(), args);
}

std::optional<Metric> parse_metric(std::string_view name) {
  for (const Metric m : kAllMetrics) {
    if (metric_name(m) == name) return m;
  }
  return std::nullopt;
}

int cmd_generate(const ArgParser& args) {
  if (has_unknown_options(args, "generate",
                          {"out", "epochs", "sessions", "seed", "sites",
                           "cdns", "asns", "no-events", "format"})) {
    return 2;
  }
  const auto out = args.option("out");
  if (!out.has_value()) return usage();

  WorldConfig world_config;
  world_config.num_sites =
      static_cast<std::uint32_t>(args.option_u64("sites", 379));
  world_config.num_cdns =
      static_cast<std::uint32_t>(args.option_u64("cdns", 19));
  world_config.num_asns =
      static_cast<std::uint32_t>(args.option_u64("asns", 2000));
  world_config.seed = args.option_u64("seed", 2013);
  const World world = World::build(world_config);

  const auto epochs =
      static_cast<std::uint32_t>(args.option_u64("epochs", 48));
  EventSchedule events = EventSchedule::none(epochs);
  if (!args.flag("no-events")) {
    EventScheduleConfig event_config;
    event_config.num_epochs = epochs;
    event_config.seed = world_config.seed + 1;
    events = EventSchedule::generate(world, event_config);
  }

  TraceConfig trace_config;
  trace_config.num_epochs = epochs;
  trace_config.sessions_per_epoch =
      static_cast<std::uint32_t>(args.option_u64("sessions", 3000));
  trace_config.seed = world_config.seed + 2;
  const SessionTable trace = generate_trace(world, events, trace_config);

  const auto format = resolve_format(args, *out);
  if (!format.has_value()) return 2;
  const std::filesystem::path path{std::string{*out}};
  write_trace_as(*format, path, trace, world.schema());
  std::printf("wrote %zu sessions over %u epochs to %s (%ju bytes)\n",
              trace.size(), trace.num_epochs(), path.string().c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));
  return 0;
}

/// convert: re-encode a trace between the three containers.  Reads with the
/// row-error policy (so a damaged input can still be rescued into a clean
/// output) and writes the resolved output format.
int cmd_convert(const ArgParser& args) {
  if (has_unknown_options(args, "convert",
                          {"in", "out", "format", "on-error"})) {
    return 2;
  }
  const auto in = args.option("in");
  const auto out = args.option("out");
  if (!in.has_value() || !out.has_value()) return usage();
  const auto policy = on_error_policy(args);
  if (!policy.has_value()) return 2;
  const auto format = resolve_format(args, *out);
  if (!format.has_value()) return 2;
  const RobustLoadedTrace loaded = load_robust(*in, *policy);
  const std::filesystem::path path{std::string{*out}};
  write_trace_as(*format, path, loaded.table, loaded.schema);
  std::printf("converted %zu sessions over %u epochs to %s (%s, %ju bytes)\n",
              loaded.table.size(), loaded.table.num_epochs(),
              path.string().c_str(), format_name(*format),
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));
  return 0;
}

/// In-memory EpochColumnsSource over a loaded SessionTable, so the
/// streaming-only --max-cells also applies to csv/binary inputs.
class TableColumnsSource final : public EpochColumnsSource {
 public:
  TableColumnsSource(const SessionTable& table,
                     std::vector<std::uint32_t> degraded)
      : table_{table}, degraded_{std::move(degraded)} {}

  [[nodiscard]] std::uint32_t num_epochs() const override {
    return table_.num_epochs();
  }

  bool read_epoch(std::uint32_t e, SessionColumns& out) override {
    out.clear();
    for (const Session& s : table_.epoch(e)) out.push_back(s);
    return std::binary_search(degraded_.begin(), degraded_.end(), e);
  }

 private:
  const SessionTable& table_;
  std::vector<std::uint32_t> degraded_;
};

int cmd_analyze(const ArgParser& args) {
  if (has_unknown_options(args, "analyze",
                          {"in", "min-sessions", "top", "on-error",
                           "workers", "max-cells", "stats-out", "trace-out",
                           "incremental", "shards"})) {
    return 2;
  }
  const auto in = args.option("in");
  if (!in.has_value()) return usage();
  const auto policy = on_error_policy(args);
  if (!policy.has_value()) return 2;
  const ObsRequest obs_req = obs_request(args);  // before ingest spans start
  note_ignored_incremental(args);
  PipelineConfig config;
  config.workers = static_cast<std::size_t>(args.option_u64("workers", 0));

  // --max-cells: sketch-bounded admission replaces the exact pass-1 fold.
  const auto max_cells =
      static_cast<std::size_t>(args.option_u64("max-cells", 0));
  std::optional<SketchAdmission> sketch;
  if (max_cells > 0) {
    sketch.emplace(SketchAdmissionParams{.max_cells = max_cells});
    config.fold_provider = [&sketch](const SessionColumns& columns,
                                     const ProblemThresholds& thresholds,
                                     std::uint32_t epoch) {
      return sketch->fold(columns, thresholds, epoch);
    };
  }
  // fold_provider is streaming-only (pipeline.h); non-columnar inputs go
  // through the in-memory adapter above when --max-cells is set.
  const bool force_streaming = max_cells > 0;

  // Columnar inputs stream epoch-by-epoch (O(one epoch) memory); the other
  // formats materialize.  Both paths produce identical reports on the same
  // sessions — the streaming fold is bit-identical to the row-wise one.
  PipelineResult result;
  AttributeSchema schema;
  if (format_for_path(*in) == TraceFormat::kColumnar) {
    ColumnarReader reader{std::filesystem::path{std::string{*in}},
                          RobustReadOptions{.policy = *policy}};
    config.cluster_params.min_sessions = auto_min_sessions_from(
        reader.total_sessions(), reader.num_epochs(), args);
    std::fprintf(stderr, "analyzing %zu sessions over %u epochs "
                 "(min_sessions=%u)...\n",
                 static_cast<std::size_t>(reader.total_sessions()),
                 reader.num_epochs(), config.cluster_params.min_sessions);
    result = run_pipeline_streaming(reader, config);
    const IngestReport report = reader.report();
    publish_ingest_metrics(report);
    print_ingest_line(report, *policy);
    schema = reader.take_schema();
  } else {
    RobustLoadedTrace loaded = load_robust(*in, *policy);
    const std::vector<std::uint32_t> degraded =
        loaded.report.degraded_epochs();
    config.cluster_params.min_sessions = auto_min_sessions(loaded.table, args);
    std::fprintf(stderr, "analyzing %zu sessions over %u epochs "
                 "(min_sessions=%u)...\n",
                 loaded.table.size(), loaded.table.num_epochs(),
                 config.cluster_params.min_sessions);
    if (force_streaming) {
      TableColumnsSource source{loaded.table, degraded};
      result = run_pipeline_streaming(source, config);
    } else {
      result = run_pipeline(loaded.table, config, degraded);
    }
    schema = std::move(loaded.schema);
  }
  if (sketch.has_value()) {
    const SketchAdmissionReport& rep = sketch->report();
    std::fprintf(stderr,
                 "sketch admission: %ju of %ju sessions admitted over %ju "
                 "epochs (budget %zu leaves/epoch, %ju admitted leaves, %ju "
                 "evictions)\n",
                 static_cast<std::uintmax_t>(rep.sessions_admitted),
                 static_cast<std::uintmax_t>(rep.sessions_seen),
                 static_cast<std::uintmax_t>(rep.epochs),
                 sketch->leaf_capacity(),
                 static_cast<std::uintmax_t>(rep.leaves_admitted),
                 static_cast<std::uintmax_t>(rep.evictions));
  }
  if (!result.degraded_epochs.empty()) {
    std::printf("data quality: %zu epoch(s) degraded by quarantined rows:",
                result.degraded_epochs.size());
    for (const std::uint32_t e : result.degraded_epochs) {
      std::printf(" %u", e);
    }
    std::printf("\n");
  }
  const auto top_k = args.option_u64("top", 5);

  for (const Metric m : kAllMetrics) {
    const auto agg = result.aggregates(m);
    double prob_ratio = 0.0;
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& a = result.at(m, e).analysis;
      prob_ratio += a.sessions == 0
                        ? 0.0
                        : static_cast<double>(a.problem_sessions) /
                              static_cast<double>(a.sessions);
    }
    prob_ratio /= std::max(1u, result.num_epochs);
    std::printf("\n%s: problem ratio %.3f | %.1f problem clusters/epoch | "
                "%.1f critical | coverage %.2f\n",
                std::string(metric_name(m)).c_str(), prob_ratio,
                agg.mean_problem_clusters, agg.mean_critical_clusters,
                agg.mean_critical_coverage);
    for (const std::uint64_t raw :
         top_critical_keys(result, m, top_k)) {
      std::printf("  %s\n",
                  schema.describe(ClusterKey::from_raw(raw)).c_str());
    }
  }
  return write_obs_outputs(obs_req);
}

int cmd_whatif(const ArgParser& args) {
  if (has_unknown_options(args, "whatif",
                          {"in", "metric", "top-frac", "rank", "min-sessions",
                           "reactive-delay"})) {
    return 2;
  }
  const auto in = args.option("in");
  if (!in.has_value()) return usage();
  const auto metric =
      parse_metric(args.option("metric").value_or("JoinFailure"));
  if (!metric.has_value()) {
    std::fprintf(stderr, "unknown metric (use BufRatio, Bitrate, JoinTime, "
                         "JoinFailure)\n");
    return 2;
  }
  RankBy rank = RankBy::kCoverage;
  const auto rank_name = args.option("rank").value_or("coverage");
  if (rank_name == "prevalence") rank = RankBy::kPrevalence;
  else if (rank_name == "persistence") rank = RankBy::kPersistence;
  else if (rank_name != "coverage") {
    std::fprintf(stderr, "unknown --rank\n");
    return 2;
  }

  const RobustLoadedTrace loaded = load_robust(*in, ErrorPolicy::kStrict);
  PipelineConfig config;
  config.cluster_params.min_sessions = auto_min_sessions(loaded.table, args);
  const PipelineResult result = run_pipeline(loaded.table, config);
  const WhatIfAnalyzer whatif{result};

  const double top_frac = args.option_double("top-frac", 0.01);
  const double fractions[] = {top_frac};
  const auto sweep = whatif.topk_sweep(*metric, rank, fractions);
  std::printf("fixing the top %.2f%% of %zu distinct critical clusters "
              "(%s-ranked) alleviates %.1f%% of %s problem sessions\n",
              100.0 * top_frac, whatif.distinct_critical_count(*metric),
              std::string(rank_by_name(rank)).c_str(),
              100.0 * sweep[0].alleviated_fraction,
              std::string(metric_name(*metric)).c_str());

  if (args.flag("reactive-delay")) {
    const auto delay =
        static_cast<std::uint32_t>(args.option_u64("reactive-delay", 1));
    const auto outcome = whatif.reactive(*metric, delay);
    std::printf("reactive strategy (fix after %u h): %.1f%% alleviated "
                "(potential %.1f%%)\n",
                delay, 100.0 * outcome.alleviated_fraction,
                100.0 * outcome.potential_fraction);
  }
  return 0;
}

/// monitor --serve ADDR: the live-socket form of cmd_monitor.  Same
/// detector, same checkpoint container, same incident print format — the
/// only difference is where the rows come from, which is what the
/// file-vs-socket differential test pins.
int cmd_monitor_serve(const ArgParser& args, std::string_view address) {
  if (has_unknown_options(
          args, "monitor --serve",
          {"serve", "delay", "min-sessions", "checkpoint", "on-error",
           "queue-rows", "overload", "push-deadline-ms", "idle-timeout-ms",
           "read-timeout-ms", "max-frame-bytes", "max-conns", "serve-drain",
           "stats-out", "trace-out", "incremental", "shards", "workers"})) {
    return 2;
  }
  const auto policy = on_error_policy(args);
  if (!policy.has_value()) return 2;
  const ObsRequest obs_req = obs_request(args);
  note_ignored_incremental(args);

  MonitorConfig config;
  // No trace to auto-derive from on a live socket: --min-sessions or the
  // library default.  Differential runs pass the same explicit value to
  // both modes.
  const auto min_sessions = args.option_u64("min-sessions", 0);
  if (min_sessions > 0) {
    config.cluster_params.min_sessions =
        static_cast<std::uint32_t>(min_sessions);
  }
  config.escalate_after =
      static_cast<std::uint32_t>(args.option_u64("delay", 1));
  // A live feed cannot take the kThrow arm; stale rows are counted and
  // dropped (server.h).
  config.order_policy = EpochOrderPolicy::kSkipStale;
  StreamingDetector detector{config};

  serve::ServeConfig serve_config;
  serve_config.address = std::string{address};
  serve_config.row_policy = *policy;
  serve_config.queue_capacity_rows =
      static_cast<std::size_t>(args.option_u64("queue-rows", 1u << 16));
  const auto overload = args.option("overload").value_or("block");
  if (overload == "shed") {
    serve_config.overload = serve::OverloadPolicy::kShedOldest;
  } else if (overload != "block") {
    std::fprintf(stderr, "unknown --overload '%s' (use block or shed)\n",
                 std::string{overload}.c_str());
    return 2;
  }
  serve_config.push_deadline =
      std::chrono::milliseconds{args.option_u64("push-deadline-ms", 200)};
  serve_config.idle_timeout =
      std::chrono::milliseconds{args.option_u64("idle-timeout-ms", 30'000)};
  serve_config.read_timeout =
      std::chrono::milliseconds{args.option_u64("read-timeout-ms", 10'000)};
  serve_config.max_frame_bytes = static_cast<std::size_t>(
      args.option_u64("max-frame-bytes", serve::kDefaultMaxFrameBytes));
  serve_config.max_connections =
      static_cast<std::size_t>(args.option_u64("max-conns", 64));
  serve_config.drain_on_idle = args.flag("serve-drain");
  serve_config.drain_signal = &g_drain_requested;

  const auto checkpoint = args.option("checkpoint");
  if (checkpoint.has_value()) {
    serve_config.checkpoint_path = std::string{*checkpoint};
    if (std::filesystem::exists(serve_config.checkpoint_path)) {
      detector.load_checkpoint(serve_config.checkpoint_path);
      std::fprintf(stderr, "resuming from %s at epoch %u\n",
                   serve_config.checkpoint_path.string().c_str(),
                   detector.has_ingested() ? detector.last_epoch() + 1 : 0);
    }
  }

  AttributeSchema schema;
  serve::Server server{serve_config, detector, schema};
  server.set_event_callback(
      [](const IncidentEvent& event, const std::string& description) {
        if (event.update == IncidentUpdate::kNew) return;  // alert on action
        std::printf("%02u:00 %-9s %-11s %s (streak %u h, %.0f sessions)\n",
                    event.epoch,
                    std::string(incident_update_name(event.update)).c_str(),
                    std::string(metric_name(event.incident.metric)).c_str(),
                    description.c_str(), event.incident.streak,
                    event.incident.attributed);
        std::fflush(stdout);
      });
  install_drain_handlers();
  if (server.port() != 0) {
    std::fprintf(stderr, "serving on port %u\n", server.port());
  } else {
    std::fprintf(stderr, "serving on %s\n",
                 std::string{address}.c_str());
  }
  const int rc = server.run();

  std::printf("total incidents opened:");
  for (const Metric m : kAllMetrics) {
    std::printf(" %s=%ju", std::string(metric_name(m)).c_str(),
                static_cast<std::uintmax_t>(detector.total_opened(m)));
  }
  std::printf("\n");
  if (detector.suppressed_clears() > 0) {
    std::fprintf(stderr, "suppressed %ju clear(s) on degraded epochs\n",
                 static_cast<std::uintmax_t>(detector.suppressed_clears()));
  }
  const serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "serve: %ju conns, rows received=%ju admitted=%ju "
               "quarantined=%ju shed=%ju stale=%ju, %ju epochs sealed, "
               "queue highwater=%ju%s\n",
               static_cast<std::uintmax_t>(stats.connections_accepted),
               static_cast<std::uintmax_t>(stats.rows_received),
               static_cast<std::uintmax_t>(stats.rows_admitted),
               static_cast<std::uintmax_t>(stats.rows_quarantined),
               static_cast<std::uintmax_t>(stats.rows_shed),
               static_cast<std::uintmax_t>(stats.rows_stale),
               static_cast<std::uintmax_t>(stats.epochs_sealed),
               static_cast<std::uintmax_t>(stats.queue_highwater),
               stats.accounting_exact() ? "" : " [ACCOUNTING MISMATCH]");
  const int obs_rc = write_obs_outputs(obs_req);
  return rc != 0 ? rc : obs_rc;
}

int cmd_monitor(const ArgParser& args) {
  if (const auto serve_addr = args.option("serve")) {
    return cmd_monitor_serve(args, *serve_addr);
  }
  if (has_unknown_options(args, "monitor",
                          {"in", "serve", "delay", "min-sessions",
                           "checkpoint", "on-error", "stop-after",
                           "stats-out", "trace-out", "incremental", "shards",
                           "workers"})) {
    return 2;
  }
  const auto in = args.option("in");
  if (!in.has_value()) return usage();
  const auto policy = on_error_policy(args);
  if (!policy.has_value()) return 2;
  const ObsRequest obs_req = obs_request(args);  // before ingest spans start
  note_ignored_incremental(args);

  // Columnar inputs stream: one epoch's rows are materialized per detector
  // ingest instead of the whole trace.
  const bool streaming = format_for_path(*in) == TraceFormat::kColumnar;
  std::optional<ColumnarReader> reader;
  std::optional<RobustLoadedTrace> loaded;
  std::vector<std::uint32_t> degraded;
  std::uint32_t num_epochs = 0;
  std::uint64_t total_sessions = 0;
  if (streaming) {
    reader.emplace(std::filesystem::path{std::string{*in}},
                   RobustReadOptions{.policy = *policy});
    num_epochs = reader->num_epochs();
    total_sessions = reader->total_sessions();
  } else {
    loaded.emplace(load_robust(*in, *policy));
    degraded = loaded->report.degraded_epochs();
    num_epochs = loaded->table.num_epochs();
    total_sessions = loaded->table.size();
  }
  const AttributeSchema& schema = streaming ? reader->schema()
                                            : loaded->schema;

  MonitorConfig config;
  config.cluster_params.min_sessions =
      auto_min_sessions_from(total_sessions, num_epochs, args);
  config.escalate_after =
      static_cast<std::uint32_t>(args.option_u64("delay", 1));
  StreamingDetector detector{config};

  // Resume: an existing checkpoint restores the registry/counters and skips
  // every epoch it already processed, so the resumed run's event stream
  // continues exactly where the killed run's left off.
  const auto checkpoint = args.option("checkpoint");
  std::filesystem::path checkpoint_path;
  std::uint32_t start = 0;
  if (checkpoint.has_value()) {
    checkpoint_path = std::string{*checkpoint};
    if (std::filesystem::exists(checkpoint_path)) {
      detector.load_checkpoint(checkpoint_path);
      if (detector.has_ingested()) start = detector.last_epoch() + 1;
      std::fprintf(stderr, "resuming from %s at epoch %u\n",
                   checkpoint_path.string().c_str(), start);
    }
  }
  // --stop-after N: process N epochs then exit without the summary line (a
  // deterministic stand-in for a mid-stream kill; CI diffs the concatenated
  // partial outputs against an uninterrupted run).
  const auto stop_after = args.option_u64("stop-after", 0);

  // Same drain semantics as serve mode (DESIGN.md §4.11): SIGINT/SIGTERM
  // finishes the epoch in flight, checkpoints it, and exits 0.
  install_drain_handlers();

  std::uint64_t processed = 0;
  SessionColumns columns;  // streaming scratch, reused across epochs
  std::vector<Session> rows;
  for (std::uint32_t e = start; e < num_epochs; ++e) {
    bool degraded_epoch = false;
    std::span<const Session> sessions;
    if (streaming) {
      degraded_epoch = reader->read_epoch(e, columns);
      rows.clear();
      columns.append_rows(e, rows);
      sessions = rows;
    } else {
      degraded_epoch =
          std::binary_search(degraded.begin(), degraded.end(), e);
      sessions = loaded->table.epoch(e);
    }
    const EpochDataQuality quality{.degraded = degraded_epoch};
    for (const IncidentEvent& event : detector.ingest(sessions, e, quality)) {
      if (event.update == IncidentUpdate::kNew) continue;  // alert on action
      std::printf("%02u:00 %-9s %-11s %s (streak %u h, %.0f sessions)\n", e,
                  std::string(incident_update_name(event.update)).c_str(),
                  std::string(metric_name(event.incident.metric)).c_str(),
                  schema.describe(event.incident.key).c_str(),
                  event.incident.streak, event.incident.attributed);
    }
    if (checkpoint.has_value()) detector.save_checkpoint(checkpoint_path);
    if (g_drain_requested != 0) {
      std::fprintf(stderr, "drain: sealed epoch %u%s, exiting\n", e,
                   checkpoint.has_value() ? " (checkpointed)" : "");
      return write_obs_outputs(obs_req);
    }
    if (stop_after != 0 && ++processed >= stop_after) {
      return write_obs_outputs(obs_req);
    }
  }
  if (streaming) {
    const IngestReport report = reader->report();
    publish_ingest_metrics(report);
    print_ingest_line(report, *policy);
  }
  std::printf("total incidents opened:");
  for (const Metric m : kAllMetrics) {
    std::printf(" %s=%ju", std::string(metric_name(m)).c_str(),
                static_cast<std::uintmax_t>(detector.total_opened(m)));
  }
  std::printf("\n");
  if (detector.suppressed_clears() > 0) {
    std::fprintf(stderr, "suppressed %ju clear(s) on degraded epochs\n",
                 static_cast<std::uintmax_t>(detector.suppressed_clears()));
  }
  return write_obs_outputs(obs_req);
}

/// feed: stream a trace file into a `monitor --serve` instance.  The table
/// is epoch-sorted after finalize, so send_rows naturally satisfies the
/// server's non-decreasing-epoch contract.
int cmd_feed(const ArgParser& args) {
  if (has_unknown_options(args, "feed",
                          {"in", "connect", "rows-per-frame", "on-error"})) {
    return 2;
  }
  const auto in = args.option("in");
  const auto addr = args.option("connect");
  if (!in.has_value() || !addr.has_value()) return usage();
  const auto policy = on_error_policy(args);
  if (!policy.has_value()) return 2;
  std::signal(SIGPIPE, SIG_IGN);  // a dying server should EPIPE, not kill us

  const RobustLoadedTrace loaded = load_robust(*in, *policy);
  serve::Producer producer{std::string{*addr}};
  producer.send_hello(loaded.schema);
  const auto rows_per_frame = static_cast<std::size_t>(
      args.option_u64("rows-per-frame", 4096));
  producer.send_rows(loaded.table.sessions(), rows_per_frame);
  producer.close();
  std::printf("fed %zu rows over %u epochs to %s\n", loaded.table.size(),
              loaded.table.num_epochs(), std::string{*addr}.c_str());
  return 0;
}

int cmd_timeline(const ArgParser& args) {
  if (has_unknown_options(args, "timeline", {"in", "min-sessions", "z"})) {
    return 2;
  }
  const auto in = args.option("in");
  if (!in.has_value()) return usage();
  const RobustLoadedTrace loaded = load_robust(*in, ErrorPolicy::kStrict);
  PipelineConfig config;
  config.cluster_params.min_sessions = auto_min_sessions(loaded.table, args);
  const PipelineResult result = run_pipeline(loaded.table, config);

  // Hourly problem-ratio sparklines.
  static constexpr const char* kBlocks[] = {" ", ".", ":", "-", "=",
                                            "+", "*", "#"};
  for (const Metric m : kAllMetrics) {
    std::vector<double> series;
    double peak = 1e-9;
    for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
      const auto& a = result.at(m, e).analysis;
      const double ratio = a.sessions == 0
                               ? 0.0
                               : static_cast<double>(a.problem_sessions) /
                                     static_cast<double>(a.sessions);
      series.push_back(ratio);
      peak = std::max(peak, ratio);
    }
    std::printf("%-12s peak %.3f |", std::string(metric_name(m)).c_str(),
                peak);
    for (const double ratio : series) {
      const auto level = static_cast<std::size_t>(ratio / peak * 7.0);
      std::printf("%s", kBlocks[std::min<std::size_t>(level, 7)]);
    }
    std::printf("|\n");
  }

  // Anomalous epochs with suspects.
  AnomalyParams anomaly_params;
  anomaly_params.z_threshold = args.option_double("z", 3.0);
  const auto anomalies = detect_ratio_anomalies(result, anomaly_params);
  std::printf("\nanomalous epochs (z >= %.1f):\n", anomaly_params.z_threshold);
  if (anomalies.empty()) std::printf("  none\n");
  for (const RatioAnomaly& a : anomalies) {
    std::printf("  epoch %3u %-12s ratio %.3f (expected %.3f, z=%.1f)\n",
                a.anomaly.index, std::string(metric_name(a.metric)).c_str(),
                a.anomaly.value, a.anomaly.expected, a.anomaly.zscore);
    for (const ClusterKey& suspect : a.suspects) {
      std::printf("      suspect: %s\n",
                  loaded.schema.describe(suspect).c_str());
    }
  }

  // Longest-lived critical clusters.
  std::printf("\nlongest critical-cluster streaks:\n");
  for (const Metric m : kAllMetrics) {
    const auto report = build_prevalence(critical_cluster_keys(result, m),
                                         result.num_epochs);
    const ClusterTimeline* longest = nullptr;
    for (const auto& t : report.timelines) {
      if (longest == nullptr || t.max_persistence > longest->max_persistence) {
        longest = &t;
      }
    }
    if (longest != nullptr) {
      std::printf("  %-12s %-36s %u h (prevalence %.0f%%)\n",
                  std::string(metric_name(m)).c_str(),
                  loaded.schema.describe(longest->key).c_str(),
                  longest->max_persistence, 100.0 * longest->prevalence);
    }
  }
  return 0;
}

int cmd_report(const ArgParser& args) {
  if (has_unknown_options(args, "report", {"in", "min-sessions", "top"})) {
    return 2;
  }
  const auto in = args.option("in");
  if (!in.has_value()) return usage();
  const RobustLoadedTrace loaded = load_robust(*in, ErrorPolicy::kStrict);
  PipelineConfig config;
  config.cluster_params.min_sessions = auto_min_sessions(loaded.table, args);
  const PipelineResult result = run_pipeline(loaded.table, config);
  ReportOptions options;
  options.top_clusters = args.option_u64("top", 5);
  std::fputs(
      render_report(loaded.table, result, loaded.schema, options).c_str(),
      stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args{argc, argv};
  const std::string_view command = args.positional(0);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "whatif") return cmd_whatif(args);
    if (command == "monitor") return cmd_monitor(args);
    if (command == "feed") return cmd_feed(args);
    if (command == "timeline") return cmd_timeline(args);
    if (command == "report") return cmd_report(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

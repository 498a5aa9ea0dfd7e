// The served side pass of the stream workload's traced run: the paper world
// sent over a Unix socket into serve::Server + StreamingDetector by a
// serve::Producer in its own process, on an open-loop schedule.
//
// Schedule: served epoch k (world epoch kWarmupEpochs + k) owns the period
// [t0 + k P, t0 + (k + 1) P); its rows go out in 4096-row frames spread
// evenly over that period.  An epoch's scheduled close is the due time of
// the next epoch's first frame; after the last epoch the producer waits for
// its close and then disconnects, which releases the watermark.  The
// detection delay of epoch e is the time from its scheduled close to its
// first incident event reaching the server's event callback.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "spans.h"
#include "src/gen/columnar.h"
#include "src/serve/producer.h"
#include "src/serve/server.h"

extern char** environ;

namespace e2e {

namespace {

constexpr std::size_t kRowsPerFrame = 4096;  // the `feed` default

/// Reads epochs [begin, end) of the trace as rows.
std::vector<std::vector<vq::Session>> read_rows(vq::ColumnarReader& reader,
                                                std::uint32_t begin,
                                                std::uint32_t end) {
  std::vector<std::vector<vq::Session>> out;
  vq::SessionColumns columns;
  for (std::uint32_t e = begin; e < end; ++e) {
    reader.read_epoch(e, columns);
    out.emplace_back();
    columns.append_rows(e, out.back());
  }
  return out;
}

struct ProducerReport {
  std::int64_t t0_ns = 0;
  std::uint64_t rows = 0;
  std::uint64_t frames = 0;
  double late_ms_p95 = 0.0;
  double blocked_s = 0.0;
  bool ok = false;
};

ProducerReport parse_report(const std::string& text) {
  ProducerReport r;
  std::istringstream in{text};
  std::string key;
  while (in >> key) {
    if (key == "t0_ns") in >> r.t0_ns;
    else if (key == "rows") in >> r.rows;
    else if (key == "frames") in >> r.frames;
    else if (key == "late_ms_p95") in >> r.late_ms_p95;
    else if (key == "blocked_s") in >> r.blocked_s;
    else if (key == "done") r.ok = true;
  }
  return r;
}

/// A direct StreamingDetector replay of epochs [0, end) under spans:
/// per-epoch event digests and, from `from` on, per-epoch ingest times.
struct Replay {
  std::vector<std::uint64_t> digests;
  std::vector<double> ingest_ms;  // epochs [from, end)
};

Replay replay(const std::filesystem::path& trace, const vq::MonitorConfig& mc,
              std::uint32_t from, std::uint32_t end, SpanRecorder& rec) {
  Replay r;
  vq::StreamingDetector detector{mc};
  vq::ColumnarReader reader{trace};
  vq::SessionColumns columns;
  std::vector<vq::Session> rows;
  for (std::uint32_t e = 0; e < end; ++e) {
    const SpanRecorder::Scope epoch_span{rec, "pipeline", e};
    {
      const SpanRecorder::Scope s{rec, "gen", e};
      reader.read_epoch(e, columns);
      rows.clear();
      columns.append_rows(e, rows);
    }
    const SpanRecorder::Scope s{rec, "detector", e};
    const auto t0 = Clock::now();
    const std::vector<vq::IncidentEvent> events = detector.ingest(rows, e);
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    Digest d;
    for (const vq::IncidentEvent& ev : events) digest_event(d, ev);
    r.digests.push_back(d.get());
    if (e >= from) r.ingest_ms.push_back(ms);
  }
  return r;
}

}  // namespace

void serve_side_pass(RunResult& out, const RunOptions& opt) {
  const WorldSpec& world = kPaperWorld;
  const CachePaths paths = cache_paths(opt.cache_dir, world, opt.seed);
  const Reference ref = load_reference(paths.reference);
  const std::uint32_t first = kWarmupEpochs;
  const std::uint32_t n = kServedEpochs;
  const std::uint32_t end = first + n;
  vq::MonitorConfig mc = monitor_config(world);
  mc.workers = 1;

  std::filesystem::create_directories(opt.work_dir);
  const std::filesystem::path socket =
      opt.work_dir / ("serve_" + std::to_string(::getpid()) + ".sock");
  vq::serve::ServeConfig sc;
  sc.address = "unix:" + socket.string();
  sc.drain_on_idle = true;

  // A detector warmed on the first day by direct ingest (the state a
  // restored service resumes from), then the bind.
  vq::StreamingDetector detector{mc};
  std::vector<std::uint64_t> event_digests;
  {
    vq::ColumnarReader reader{paths.trace};
    vq::SessionColumns columns;
    std::vector<vq::Session> rows;
    for (std::uint32_t e = 0; e < first; ++e) {
      reader.read_epoch(e, columns);
      rows.clear();
      columns.append_rows(e, rows);
      Digest d;
      for (const vq::IncidentEvent& ev : detector.ingest(rows, e)) {
        digest_event(d, ev);
      }
      event_digests.push_back(d.get());
    }
  }
  vq::AttributeSchema schema;
  std::optional<vq::serve::Server> server;
  server.emplace(sc, detector, schema);

  // Served epochs: first event time and running digest per epoch.
  std::vector<std::int64_t> first_event_ns(n, 0);
  std::vector<Digest> served(n);
  std::uint64_t served_events = 0;
  bool out_of_range = false;
  server->set_event_callback(
      [&](const vq::IncidentEvent& ev, const std::string&) {
        const std::int64_t t = now_ns();
        if (ev.epoch < first || ev.epoch >= end) {
          out_of_range = true;
          return;
        }
        const std::uint32_t k = ev.epoch - first;
        if (first_event_ns[k] == 0) first_event_ns[k] = t;
        digest_event(served[k], ev);
        served_events += 1;
      });

  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error{"pipe() failed"};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipefd[0]);
  posix_spawn_file_actions_addclose(&actions, pipefd[1]);
  const std::vector<std::string> args = {
      opt.self_exe.string(), "produce",
      "--cache", opt.cache_dir.string(),
      "--seed", std::to_string(opt.seed),
      "--socket", socket.string(),
      "--first", std::to_string(first),
      "--epochs", std::to_string(n)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawn_err = posix_spawn(&pid, opt.self_exe.c_str(), &actions,
                                    nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  if (spawn_err != 0) {
    ::close(pipefd[0]);
    throw std::runtime_error{std::string{"posix_spawn: "} +
                             std::strerror(spawn_err)};
  }

  // The producer's report arrives on the pipe when it is done; a producer
  // that dies before connecting must not leave the server waiting forever.
  std::string report_text;
  int status = 0;
  std::atomic<bool> run_returned{false};
  std::thread watchdog{[&] {
    char buf[4096];
    for (;;) {
      const ssize_t got = ::read(pipefd[0], buf, sizeof buf);
      if (got > 0) {
        report_text.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      break;
    }
    ::close(pipefd[0]);
    ::waitpid(pid, &status, 0);
    for (int i = 0; i < 200 && !run_returned.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    server->request_drain();
  }};
  server->run();
  run_returned.store(true);
  const std::int64_t run_end = now_ns();
  watchdog.join();
  const ProducerReport producer = parse_report(report_text);
  const vq::serve::ServeStats stats = server->stats();
  server.reset();

  // Checks.
  std::uint64_t offered = 0;
  for (std::uint32_t e = first; e < end; ++e) offered += ref.sessions[e];
  out.check("serve: producer finished its schedule",
            producer.ok && WIFEXITED(status) && WEXITSTATUS(status) == 0);
  out.check("serve: accounting identity holds", stats.accounting_exact());
  out.check("serve: rows received and admitted equal rows offered",
            stats.rows_received == offered && producer.rows == offered &&
                stats.rows_admitted == offered,
            std::to_string(stats.rows_admitted) + " of " +
                std::to_string(offered));
  std::uint64_t frames = 0;
  for (const auto& c : stats.connections) frames += c.frames_decoded;
  out.check("serve: frames decoded equal the hello plus the data frames sent",
            frames == producer.frames + 1,
            std::to_string(frames) + " of 1 + " +
                std::to_string(producer.frames));
  out.check("serve: no events outside the served epochs", !out_of_range);
  for (std::uint32_t k = 0; k < n; ++k) {
    event_digests.push_back(served[k].get());
  }
  std::size_t bad = 0;
  for (std::uint32_t e = 0; e < end; ++e) {
    if (event_digests[e] != ref.events[e]) ++bad;
  }
  out.check("serve: served incident stream equals the reference replay",
            bad == 0, std::to_string(bad) + " epochs differ");
  if (!opt.expect_served.empty()) {
    const std::string got = hex(chain(event_digests));
    out.check("serve: incident digest equals the one recorded for this seed",
              got == opt.expect_served, got);
  }

  // The same epochs straight through StreamingDetector::ingest, under
  // spans.  Each sampled epoch's detection delay splits into the detector's
  // ingest time (from the replay) and the serve layer's remainder (the seal
  // wait).
  SpanRecorder rec;
  const auto t0 = Clock::now();
  const Replay direct = replay(paths.trace, mc, first, end, rec);
  const double replay_s = seconds_between(t0, Clock::now());
  out.check("serve: direct replay equals the served incident stream",
            direct.digests == event_digests);

  std::vector<double> detect_ms;
  std::vector<double> seal_wait;
  std::map<std::string, LayerTotals> split;
  double detect_total = 0.0;
  for (std::uint32_t k = 0; k < n; ++k) {
    if (first_event_ns[k] == 0) continue;
    const std::int64_t close =
        producer.t0_ns +
        static_cast<std::int64_t>(k + 1) * kServePeriodMs * 1'000'000;
    const double delay = static_cast<double>(first_event_ns[k] - close) * 1e-6;
    const double ingest = direct.ingest_ms[k];
    detect_ms.push_back(delay);
    seal_wait.push_back(delay - ingest);
    detect_total += delay * 1e-3;
    for (const auto& [layer, ms] :
         {std::pair{"detector", ingest}, std::pair{"serve", delay - ingest}}) {
      split[layer].self_s += ms * 1e-3;
      split[layer].total_s += ms * 1e-3;
      split[layer].spans += 1;
    }
  }
  double ingest_total = 0.0;
  for (const double ms : direct.ingest_ms) ingest_total += ms * 1e-3;
  const double served_s = static_cast<double>(run_end - producer.t0_ns) * 1e-9;

  out.metrics["detector.ingest_ms_p50"] = median(direct.ingest_ms);
  out.metrics["detector.events"] = static_cast<double>(served_events);
  out.metrics["detector.busy_frac"] = ingest_total / served_s;
  out.metrics["detector.share"] =
      detect_total > 0 ? split["detector"].self_s / detect_total : 0.0;
  out.metrics["serve.share"] =
      detect_total > 0 ? split["serve"].self_s / detect_total : 0.0;
  out.metrics["serve.detect_ms_p50"] = median(detect_ms);
  out.metrics["serve.detect_ms_p90"] = percentile(detect_ms, 0.90);
  out.metrics["serve.seal_wait_ms_p50"] = median(seal_wait);
  out.metrics["serve.queue_highwater"] =
      static_cast<double>(stats.queue_highwater);
  out.metrics["serve.frames"] = static_cast<double>(frames);
  out.metrics["serve.producer_late_ms_p95"] = producer.late_ms_p95;
  out.metrics["serve.send_blocked_s"] = producer.blocked_s;
  out.info["served_epochs"] = n;
  out.info["served_detect_samples"] = static_cast<double>(detect_ms.size());
  out.info["served_rows_per_s"] =
      static_cast<double>(stats.rows_admitted) / served_s;
  out.info["served_replay_s"] = replay_s;
  out.layer_table += "\nServed side pass, epochs " + std::to_string(first) +
                     "-" + std::to_string(end - 1) + " at one per " +
                     std::to_string(kServePeriodMs) +
                     " ms: detection delay of " +
                     std::to_string(detect_ms.size()) +
                     " epochs, split by layer:\n" +
                     layer_table(split, detect_total) +
                     "\nDirect replay of the same epochs (spans):\n" +
                     layer_table(rec.totals(), replay_s);
  rec.write_tsv(opt.work_dir / ("spans_served_" + std::to_string(opt.seed) +
                                ".tsv"));
}

// --- producer process ----------------------------------------------------------

int produce_main(int argc, char** argv) {
  std::filesystem::path cache;
  std::uint64_t seed = kDefaultSeed;
  std::string socket;
  std::uint32_t first = kWarmupEpochs;
  std::uint32_t n = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--cache") cache = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--socket") socket = value;
    else if (key == "--first") first = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    else if (key == "--epochs") n = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
  }
  std::signal(SIGPIPE, SIG_IGN);
  const CachePaths paths = cache_paths(cache, kPaperWorld, seed);
  vq::ColumnarReader reader{paths.trace};
  const std::vector<std::vector<vq::Session>> epochs =
      read_rows(reader, first, first + n);

  vq::serve::Producer producer{"unix:" + socket};
  producer.send_hello(reader.schema());
  const std::int64_t period = kServePeriodMs * 1'000'000;
  const std::int64_t t0 = now_ns() + 100'000'000;  // 100 ms lead
  const auto sleep_until_ns = [](std::int64_t due) {
    const std::int64_t wait = due - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds{wait});
  };

  std::vector<double> late_ms;
  double blocked_s = 0.0;
  std::uint64_t rows = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::span<const vq::Session> all = epochs[k];
    const std::size_t frames = (all.size() + kRowsPerFrame - 1) / kRowsPerFrame;
    for (std::size_t f = 0; f < frames; ++f) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(k) * period +
          static_cast<std::int64_t>(f) * period / static_cast<std::int64_t>(frames);
      sleep_until_ns(due);
      const std::int64_t start = now_ns();
      late_ms.push_back(static_cast<double>(std::max<std::int64_t>(0, start - due)) * 1e-6);
      const std::size_t lo = f * kRowsPerFrame;
      producer.send_rows(all.subspan(lo, std::min(kRowsPerFrame, all.size() - lo)),
                         kRowsPerFrame);
      blocked_s += static_cast<double>(now_ns() - start) * 1e-9;
      rows += std::min(kRowsPerFrame, all.size() - lo);
    }
  }
  // The last epoch closes on schedule too: disconnecting releases the
  // watermark and seals it.
  sleep_until_ns(t0 + static_cast<std::int64_t>(n) * period);
  producer.close();
  std::printf("t0_ns %lld\nrows %llu\nframes %zu\nlate_ms_p95 %.6f\n"
              "blocked_s %.6f\ndone\n",
              static_cast<long long>(t0), static_cast<unsigned long long>(rows),
              late_ms.size(), percentile(late_ms, 0.95), blocked_s);
  return 0;
}

}  // namespace e2e

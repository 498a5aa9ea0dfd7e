// Input generation, caching and reference digests for the benchmark.
//
// Each (world, seed) pair is generated once with the gen layer and cached
// as a VQTC trace next to a reference file.  The reference digests come
// from paths the timed workloads do not use, so every run can check its
// output against them outside its timed region:
//
//   bench world  run_pipeline_streaming over in-memory columns (column
//                fold, epochs in order) — the workload times the
//                epoch-parallel run_pipeline with the row-wise fold.
//   paper world  run_pipeline over the in-memory table (row-wise fold,
//                epoch-parallel) — the workloads time the streaming column
//                path, the incremental lattice and the served detector;
//                plus a direct StreamingDetector replay of all epochs for
//                the served incident stream.

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "src/gen/columnar.h"
#include "src/gen/events.h"
#include "src/gen/tracegen.h"
#include "src/gen/world.h"

namespace e2e {

const WorldSpec& world_by_name(std::string_view name) {
  if (name == kBenchWorld.name) return kBenchWorld;
  if (name == kPaperWorld.name) return kPaperWorld;
  throw std::invalid_argument{"unknown world: " + std::string{name}};
}

vq::PipelineConfig pipeline_config(const WorldSpec& world) {
  vq::PipelineConfig config;
  config.cluster_params.min_sessions = world.min_sessions;
  return config;
}

vq::MonitorConfig monitor_config(const WorldSpec& world) {
  vq::MonitorConfig config;
  config.cluster_params.min_sessions = world.min_sessions;
  return config;
}

CachePaths cache_paths(const std::filesystem::path& cache_dir,
                       const WorldSpec& world, std::uint64_t seed) {
  const std::string stem =
      std::string{world.name} + "_" + std::to_string(seed);
  return CachePaths{cache_dir / (stem + ".vqtc"), cache_dir / (stem + ".ref")};
}

// --- digests -----------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void digest_analysis(Digest& d, const vq::CriticalAnalysis& a) {
  d.value(a.epoch);
  d.value(static_cast<std::uint8_t>(a.metric));
  d.value(a.sessions);
  d.value(a.problem_sessions);
  d.value(a.problem_sessions_in_pc);
  d.value(a.global_ratio);
  d.value(a.num_problem_clusters);
  d.value(a.problem_cluster_keys.size());
  for (const std::uint64_t key : a.problem_cluster_keys) d.value(key);
  d.value(a.criticals.size());
  for (const vq::CriticalRecord& c : a.criticals) {
    d.value(c.key.raw());
    d.value(c.attributed);
    d.value(c.stats.sessions);
    for (const std::uint32_t p : c.stats.problems) d.value(p);
  }
  d.value(a.attributed_mass);
}

void digest_event(Digest& d, const vq::IncidentEvent& ev) {
  d.value(static_cast<std::uint8_t>(ev.update));
  d.value(ev.epoch);
  const vq::Incident& i = ev.incident;
  d.value(i.key.raw());
  d.value(static_cast<std::uint8_t>(i.metric));
  d.value(i.first_epoch);
  d.value(i.streak);
  d.value(i.escalated);
  d.value(i.attributed);
  d.value(i.stats.sessions);
  for (const std::uint32_t p : i.stats.problems) d.value(p);
}

std::uint64_t epoch_digest(const vq::PipelineResult& result,
                           std::uint32_t epoch) {
  Digest d;
  for (const vq::Metric m : vq::kAllMetrics) {
    digest_analysis(d, result.at(m, epoch).analysis);
  }
  return d.get();
}

std::uint64_t epoch_digest(
    const std::array<vq::CriticalAnalysis, vq::kNumMetrics>& analyses) {
  Digest d;
  for (const vq::CriticalAnalysis& a : analyses) digest_analysis(d, a);
  return d.get();
}

std::uint64_t chain(const std::vector<std::uint64_t>& per_epoch) {
  Digest d;
  for (const std::uint64_t v : per_epoch) d.value(v);
  return d.get();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes read_cpu_times() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already counted in user/nice.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// --- generation --------------------------------------------------------------

unsigned available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

struct Generated {
  vq::SessionTable table;
  vq::World world;
};

/// The CLI's `generate` with the world's knobs.
Generated generate(const WorldSpec& spec, std::uint64_t seed) {
  vq::WorldConfig world_config;
  world_config.num_sites = spec.sites;
  world_config.num_cdns = spec.cdns;
  world_config.num_asns = spec.asns;
  world_config.seed = kWorldSeed;
  vq::World world = vq::World::build(world_config);

  vq::EventScheduleConfig event_config;
  event_config.num_epochs = spec.epochs;
  event_config.seed = seed + 1;
  const vq::EventSchedule events =
      vq::EventSchedule::generate(world, event_config);

  vq::TraceConfig trace_config;
  trace_config.num_epochs = spec.epochs;
  trace_config.sessions_per_epoch = spec.sessions_per_epoch;
  trace_config.seed = seed + 2;
  vq::SessionTable table = vq::generate_trace(world, events, trace_config);
  return Generated{std::move(table), std::move(world)};
}

/// In-memory EpochColumnsSource over a table.
class TableSource final : public vq::EpochColumnsSource {
 public:
  explicit TableSource(const vq::SessionTable& table) : table_(table) {}
  [[nodiscard]] std::uint32_t num_epochs() const override {
    return table_.num_epochs();
  }
  bool read_epoch(std::uint32_t e, vq::SessionColumns& out) override {
    out = vq::SessionColumns::from_sessions(table_.epoch(e), e);
    return false;
  }

 private:
  const vq::SessionTable& table_;
};

void write_reference(const std::filesystem::path& path, const Reference& ref) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out{tmp};
    out << "vqe2e-ref 1\n" << ref.analysis.size() << "\n";
    for (std::size_t e = 0; e < ref.analysis.size(); ++e) {
      out << e << ' ' << ref.sessions[e] << ' ' << hex(ref.analysis[e]) << ' '
          << hex(e < ref.events.size() ? ref.events[e] : 0) << '\n';
    }
    if (!out) throw std::runtime_error{"cannot write " + tmp.string()};
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

Reference load_reference(const std::filesystem::path& path) {
  std::ifstream in{path};
  std::string magic;
  int version = 0;
  std::size_t n = 0;
  in >> magic >> version >> n;
  if (!in || magic != "vqe2e-ref" || version != 1) {
    throw std::runtime_error{"bad reference file " + path.string()};
  }
  Reference ref;
  ref.analysis.resize(n);
  ref.events.resize(n);
  ref.sessions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t e = 0;
    std::string a;
    std::string ev;
    in >> e >> ref.sessions[i] >> a >> ev;
    if (!in || e != i) throw std::runtime_error{"truncated reference file"};
    ref.analysis[i] = std::stoull(a, nullptr, 16);
    ref.events[i] = std::stoull(ev, nullptr, 16);
  }
  return ref;
}

void prepare_inputs(const std::filesystem::path& cache_dir,
                    const WorldSpec& world, std::uint64_t seed) {
  const CachePaths paths = cache_paths(cache_dir, world, seed);
  if (std::filesystem::exists(paths.trace) &&
      std::filesystem::exists(paths.reference)) {
    return;
  }
  std::filesystem::create_directories(cache_dir);
  const auto t0 = Clock::now();
  const Generated gen = generate(world, seed);
  const std::filesystem::path tmp = paths.trace.string() + ".tmp";
  vq::write_trace_columnar(tmp, gen.table, gen.world.schema());
  std::filesystem::rename(tmp, paths.trace);
  const auto t1 = Clock::now();

  const unsigned threads = std::min(available_cpus(), 3u);
  vq::PipelineConfig config = pipeline_config(world);
  config.workers = threads;
  vq::PipelineResult result;
  if (world.name == kBenchWorld.name) {
    TableSource source{gen.table};
    result = vq::run_pipeline_streaming(source, config);
  } else {
    result = vq::run_pipeline(gen.table, config);
  }

  Reference ref;
  for (std::uint32_t e = 0; e < result.num_epochs; ++e) {
    ref.analysis.push_back(epoch_digest(result, e));
    ref.sessions.push_back(gen.table.epoch(e).size());
  }
  ref.events.assign(result.num_epochs, 0);
  if (world.name == kPaperWorld.name) {
    vq::MonitorConfig mc = monitor_config(world);
    mc.workers = threads;
    mc.shards = threads;
    vq::StreamingDetector detector{mc};
    for (std::uint32_t e = 0; e < gen.table.num_epochs(); ++e) {
      Digest d;
      for (const vq::IncidentEvent& ev : detector.ingest(gen.table.epoch(e), e)) {
        digest_event(d, ev);
      }
      ref.events[e] = d.get();
    }
  }
  write_reference(paths.reference, ref);
  std::fprintf(stderr,
               "[e2e] prepared %s world seed %llu: %zu sessions, generate "
               "%.1f s, reference %.1f s\n",
               std::string{world.name}.c_str(),
               static_cast<unsigned long long>(seed), gen.table.size(),
               seconds_between(t0, t1), seconds_between(t1, Clock::now()));
}

}  // namespace e2e

// e2e_harness: the end-to-end benchmark's binary.
//
//   e2e_harness prepare --world bench|paper --seed S --cache DIR
//   e2e_harness run --workload W --seed S --seconds T --trace 0|1
//                   --cache DIR --work DIR [--expect HEX] [--expect-served HEX]
//   e2e_harness digests --world bench|paper --seed S --cache DIR
//   e2e_harness produce ...   (the served side pass's producer process)
//
// `run` prints the traced run's per-layer table (if any), then one JSON
// object on its last line: checks, counts, metrics, sample counts and the
// environment.  run.py turns that into the benchmark's result line.

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common.h"
#include "src/core/columns.h"

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + json_escape(k) + "\": " + json_number(v);
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

struct Args {
  std::map<std::string, std::string> kv;
  [[nodiscard]] std::string get(const std::string& k,
                                const std::string& fallback = {}) const {
    const auto it = kv.find(k);
    return it == kv.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument{"expected --option, got " + key};
    }
    a.kv[key.substr(2)] = argv[i + 1];
  }
  return a;
}

int cmd_prepare(const Args& a) {
  e2e::prepare_inputs(a.get("cache"), e2e::world_by_name(a.get("world")),
                      std::stoull(a.get("seed", "2013")));
  return 0;
}

/// Prints, as one JSON object, the output digests the workloads on the world
/// produce for the seed, chained from the cached reference: the analyses,
/// and for the paper world also the served side pass's incident stream.
/// run.py records these in expected_digests.json.
int cmd_digests(const Args& a) {
  const e2e::WorldSpec& world = e2e::world_by_name(a.get("world"));
  const std::uint64_t seed = std::stoull(a.get("seed", "2013"));
  const e2e::Reference ref = e2e::load_reference(
      e2e::cache_paths(a.get("cache"), world, seed).reference);
  const std::string analyses = e2e::hex(e2e::chain(ref.analysis));
  if (world.name == e2e::kBenchWorld.name) {
    std::printf("{\"bench_world_batch\": \"%s\"}\n", analyses.c_str());
    return 0;
  }
  const std::vector<std::uint64_t> events(
      ref.events.begin(),
      ref.events.begin() + e2e::kWarmupEpochs + e2e::kServedEpochs);
  std::printf("{\"paper_world_stream\": \"%s\", \"paper_world_stream.served\": \"%s\"}\n",
              analyses.c_str(), e2e::hex(e2e::chain(events)).c_str());
  return 0;
}

int cmd_run(const Args& a) {
  e2e::RunOptions opt;
  opt.workload = a.get("workload");
  opt.seed = std::stoull(a.get("seed", "2013"));
  opt.seconds = std::stod(a.get("seconds", "10"));
  opt.trace = a.get("trace", "0") == "1";
  opt.cache_dir = a.get("cache");
  opt.work_dir = a.get("work");
  opt.expect = a.get("expect");
  opt.expect_served = a.get("expect-served");
  opt.self_exe = std::filesystem::read_symlink("/proc/self/exe");
  std::filesystem::create_directories(opt.work_dir);

  e2e::RunResult r;
  if (opt.workload == "bench_world_batch") {
    r = e2e::run_batch(opt);
  } else if (opt.workload == "paper_world_stream") {
    r = e2e::run_stream(opt);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  const bool correct = r.correct();
  // Any failed output check makes every session of the run count as failed.
  const std::uint64_t failed = correct ? r.failed : r.attempted;
  if (!r.layer_table.empty()) std::printf("%s\n", r.layer_table.c_str());

  std::string checks = "[";
  for (const e2e::Check& c : r.checks) {
    if (checks.size() > 1) checks += ", ";
    checks += "{\"name\": \"" + json_escape(c.name) +
              "\", \"ok\": " + (c.ok ? "true" : "false") +
              ", \"detail\": \"" + json_escape(c.detail) + "\"}";
  }
  checks += "]";
  const std::string env =
      "{\"nproc\": " + std::to_string(e2e::available_cpus()) +
      ", \"cpu_model\": \"" + json_escape(cpu_model()) +
      "\", \"kernel\": \"" + std::string{vq::batch_kernel_name()} +
      "\", \"build_type\": \"" E2E_BUILD_TYPE "\", \"compiler\": \"" +
      json_escape(E2E_COMPILER) +
      "\", \"compute_threads\": " + std::to_string(r.compute_threads) + "}";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, \"info\": %s, "
      "\"checks\": %s, \"env\": %s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(failed), json_map(r.metrics).c_str(),
      json_map(r.info).c_str(), checks.c_str(), env.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_harness prepare|run|digests|produce --key value...\n");
    return 2;
  }
  const std::string_view cmd = argv[1];
  try {
    if (cmd == "produce") return e2e::produce_main(argc, argv);
    const Args args = parse(argc, argv);
    if (cmd == "prepare") return cmd_prepare(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "digests") return cmd_digests(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness %s: %s\n", std::string{cmd}.c_str(),
                 e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command\n");
  return 2;
}

#!/usr/bin/env python3
"""End-to-end benchmark of vidqual's per-epoch loop.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --all [--seed N] [--seconds S]
    python3 e2ebench/run.py --write-spec
    python3 e2ebench/run.py --record-digests FIRST-LAST

One workload run builds the harness (e2ebench/CMakeLists.txt, compiling
../src), generates and caches the workload's world for the seed, runs the
workload in its own process, prints every metric by name with its unit and
the output checks, and ends with one JSON result line.  `--trace 1` runs
the workload's traced variant and reports the per-layer metrics instead.
`--all` runs every workload, untraced and traced, each in its own process.
`--write-spec` rewrites BENCHMARK.json from the definitions below.
`--record-digests` records the workloads' output digests for a range of
seeds in expected_digests.json; every later run at such a seed checks its
output against them.

Build products, cached inputs and span dumps go under $CARGO_TARGET_DIR
(default .bench_build) in the repository root.  NOTES.md explains the
workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_SECONDS = 10
DEFAULT_SEED = 2013

WORKLOADS = [
    {"name": "bench_world_batch", "world": "bench",
     "why": "8 wide epochs (~220K sessions, ~4 per leaf) through epoch-parallel "
            "run_pipeline on 3 compute threads, closed loop: the row fold, "
            "expand and critical under ThreadPool"},
    {"name": "paper_world_stream", "world": "paper",
     "why": "336 hourly epochs of ~8K near-unique-leaf sessions from VQTC "
            "via run_pipeline_streaming on 1 thread, closed loop; its traced "
            "run adds incremental and served side passes"},
]

END_TO_END = [
    {"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _layer(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _layer("gen.read_s", "s", "lower"),
    _layer("gen.load_s", "s", "lower"),
    _layer("gen.read_gb_per_s", "GB/s", "higher"),
    _layer("gen.share", "frac", "lower"),
    _layer("fold.s", "s", "lower"),
    _layer("fold.share", "frac", "lower"),
    _layer("fold.leaves", "count", "lower"),
    _layer("fold.sessions_per_leaf", "count", "higher"),
    _layer("fold.gb_per_s", "GB/s", "higher"),
    _layer("expand.s", "s", "lower"),
    _layer("expand.share", "frac", "lower"),
    _layer("expand.cells", "count", "lower"),
    _layer("expand.gb_per_s", "GB/s", "higher"),
    _layer("critical.s", "s", "lower"),
    _layer("critical.share", "frac", "lower"),
    _layer("critical.problem_clusters", "count", "lower"),
    _layer("critical.criticals", "count", "lower"),
    _layer("incremental.advance_s", "s", "lower"),
    _layer("incremental.share", "frac", "lower"),
    _layer("incremental.retained_cells", "count", "lower"),
    _layer("incremental.cells_touched", "count", "lower"),
    _layer("incremental.cache_hit_frac", "frac", "higher"),
    _layer("incremental.full_flag_passes", "count", "lower"),
    _layer("detector.ingest_ms_p50", "ms", "lower"),
    _layer("detector.share", "frac", "lower"),
    _layer("detector.events", "count", "lower"),
    _layer("detector.busy_frac", "frac", "lower"),
    _layer("serve.share", "frac", "lower"),
    _layer("serve.detect_ms_p50", "ms", "lower"),
    _layer("serve.detect_ms_p90", "ms", "lower"),
    _layer("serve.seal_wait_ms_p50", "ms", "lower"),
    _layer("serve.queue_highwater", "count", "lower"),
    _layer("serve.frames", "count", "lower"),
    _layer("serve.producer_late_ms_p95", "ms", "lower"),
    _layer("serve.send_blocked_s", "s", "lower"),
    _layer("pool.threads", "count", "lower"),
    _layer("pool.busy_frac", "frac", "higher"),
    _layer("pool.speedup_vs_1", "x", "higher"),
    _layer("obs.trace_overhead_frac", "frac", "lower"),
    _layer("env.scan_gb_per_s", "GB/s", "higher"),
    _layer("env.steal_frac", "frac", "lower"),
]

# A run ends within 180 s of its start, the build excepted: input
# preparation and the workload process share one deadline.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def harness_path(*parts):
    """A path under the build root, relative to ROOT (the harness's working
    directory): the serve socket path must fit sockaddr_un, and the
    harness's own strings then do not vary with where the checkout lives."""
    return os.path.relpath(os.path.join(build_root(), *parts), ROOT)


def build_harness():
    """Configures once, then (re)builds the harness incrementally."""
    build = os.path.join(build_root(), "e2ebench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build, "--target", "e2e_harness",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build, "e2e_harness")


def run_process(cmd, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise RuntimeError("exit code %d: %s" % (proc.returncode,
                                                 " ".join(cmd)))
    return out


DIGESTS = os.path.join(HERE, "expected_digests.json")


def expected_digest(key, seed):
    """Output digest recorded for the seed under `key`: a workload's name,
    or "<workload>.served" for the stream's served side pass."""
    with open(DIGESTS) as f:
        return json.load(f).get(key, {}).get(str(seed))


def record_digests(harness, seeds):
    """Records the output digests for `seeds` in expected_digests.json, from
    the cached references.  Run it only on code whose output is trusted:
    later runs are checked against what it writes."""
    with open(DIGESTS) as f:
        table = json.load(f)
    cache = harness_path("cache")
    for seed in seeds:
        for world in ("bench", "paper"):
            run_process([harness, "prepare", "--world", world, "--seed",
                         str(seed), "--cache", cache], RUN_BUDGET_S)
            out = run_process([harness, "digests", "--world", world,
                               "--seed", str(seed), "--cache", cache],
                              RUN_BUDGET_S)
            for workload, digest in json.loads(out).items():
                old = table.setdefault(workload, {}).get(str(seed))
                if old is not None and old != digest:
                    log("%s seed %d: digest %s replaces %s"
                        % (workload, seed, digest, old))
                table[workload][str(seed)] = digest
        log("recorded digests for seed %d" % seed)
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(),
                                      key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2)
        f.write("\n")


def run_workload(harness, workload, seed, seconds, trace):
    spec = next(w for w in WORKLOADS if w["name"] == workload)
    cache = harness_path("cache")
    t0 = time.monotonic()
    deadline = t0 + RUN_BUDGET_S
    run_process([harness, "prepare", "--world", spec["world"],
                 "--seed", str(seed), "--cache", cache], RUN_BUDGET_S)
    prepare_s = time.monotonic() - t0
    cmd = [harness, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--cache", cache, "--work", harness_path("work")]
    expect = expected_digest(workload, seed)
    if expect:
        cmd += ["--expect", expect]
    expect_served = expected_digest(workload + ".served", seed)
    if trace and expect_served:
        cmd += ["--expect-served", expect_served]
    out = run_process(cmd, max(1.0, deadline - time.monotonic()))
    lines = out.rstrip("\n").split("\n")
    raw = json.loads(lines[-1])
    raw["expect"] = expect
    raw["prepare_s"] = prepare_s
    raw["table"] = "\n".join(lines[:-1]).strip()
    return raw


def report(raw, metrics_spec):
    """Prints the human-readable report; returns the result line's object."""
    print("== %s seed %d %s ==" % (raw["workload"], raw["seed"],
                                   "traced" if raw["trace"] else "untraced"))
    env = raw["env"]
    print("env: nproc %s, cpu %s, kernel %s, build %s, compiler %s, "
          "compute threads %s, steal %.2f %%, scan ceiling %.2f GB/s" % (
              env["nproc"], env["cpu_model"], env["kernel"],
              env["build_type"], env["compiler"], env["compute_threads"],
              100 * raw["info"].get("env.steal_frac", 0.0),
              raw["info"].get("env.scan_gb_per_s", 0.0)))
    print("inputs: prepared or found in cache in %.1f s (not measured)"
          % raw["prepare_s"])
    if not raw["expect"]:
        print("no output digest recorded for seed %d: checked against the "
              "reference only" % raw["seed"])
    for check in raw["checks"]:
        print("check %-4s %s%s" % ("ok" if check["ok"] else "FAIL",
                                   check["name"],
                                   " (%s)" % check["detail"]
                                   if check["detail"] else ""))
    attempted, failed = raw["attempted"], raw["failed"]
    print("sessions attempted %d, failed %d, failed_frac %.6f" % (
        attempted, failed, failed / attempted if attempted else 1.0))
    samples = ", ".join("%s %g" % (k, v) for k, v in sorted(raw["info"].items())
                        if not k.startswith("env."))
    print("samples: " + samples)
    if raw["table"]:
        print(raw["table"])
    metrics = {}
    for m in metrics_spec:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            raise RuntimeError("metric %s missing or not finite" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-30s %16.6f %s" % (m["name"], value, m["unit"]))
    return {"correct": bool(raw["correct"]), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def write_spec():
    spec = {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-digests", metavar="FIRST-LAST",
                        help="record output digests for a range of seeds")
    args = parser.parse_args()

    if args.write_spec:
        write_spec()
        return 0
    if not (args.all or args.workload or args.record_digests):
        parser.error("--workload, --all, --write-spec or --record-digests "
                     "is required")
    try:
        harness = build_harness()
        if args.record_digests:
            first, _, last = args.record_digests.partition("-")
            record_digests(harness, range(int(first), int(last or first) + 1))
            return 0
        if args.all:
            for w in WORKLOADS:
                for trace in (0, 1):
                    raw = run_workload(harness, w["name"], args.seed,
                                       args.seconds, trace)
                    report(raw, PER_LAYER if trace else END_TO_END)
                    print()
            return 0
        raw = run_workload(harness, args.workload, args.seed, args.seconds,
                           args.trace)
        result = report(raw, PER_LAYER if args.trace else END_TO_END)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("e2ebench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CLI golden corpus: runs vidqual invocations and checks one digest each.

    run_golden.py --cli PATH --group NAME [--work-dir DIR]
    run_golden.py --cli PATH --group all --update
    run_golden.py --cli PATH --group all --snapshot DIR

manifest.txt lists the traces (`trace FILE ARGS...`, made in order with
`vidqual generate` / `vidqual convert` at fixed seeds) and the cases
(`GROUP ID ARGS...`).  A group's cases run in a fresh directory holding
the traces, with relative paths, so no output names a machine path.  A
case's digest is the SHA-256 of its exit status, stdout, stderr and, when
its arguments carry `--stats-out FILE`, that file.  digests.txt holds one
`ID DIGEST` line per case.

--update rewrites the digests of the cases run.  --snapshot writes each
case's captured text to DIR/ID.txt, so two builds' snapshots can be
diffed case by case.  The exit status is 1 when a digest differs or is
missing, and 2 on a usage or setup error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "manifest.txt")
DIGESTS = os.path.join(HERE, "digests.txt")


def read_manifest():
    traces, cases = [], []
    with open(MANIFEST, encoding="utf-8") as f:
        for line in f:
            words = line.split()
            if not words or words[0].startswith("#"):
                continue
            if words[0] == "trace":
                traces.append((words[1], words[2:]))
            else:
                cases.append((words[0], words[1], words[2:]))
    ids = [case_id for _, case_id, _ in cases]
    if len(ids) != len(set(ids)):
        sys.exit("manifest.txt: duplicate case id")
    return traces, cases


def read_digests():
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as f:
            for line in f:
                words = line.split()
                if len(words) == 2:
                    digests[words[0]] = words[1]
    return digests


def write_digests(digests, order):
    with open(DIGESTS, "w", encoding="utf-8") as f:
        for case_id in order:
            if case_id in digests:
                f.write(f"{case_id} {digests[case_id]}\n")


def stats_path(args):
    for i, word in enumerate(args[:-1]):
        if word == "--stats-out":
            return args[i + 1]
    return None


def capture(cli, args, cwd):
    """The case's canonical text: exit status, stdout, stderr, stats."""
    stats = stats_path(args)
    if stats is not None and os.path.exists(os.path.join(cwd, stats)):
        os.remove(os.path.join(cwd, stats))
    proc = subprocess.run([cli] + args, cwd=cwd, capture_output=True,
                          timeout=300, check=False)
    parts = [f"exit: {proc.returncode}\n".encode(), b"--- stdout\n",
             proc.stdout, b"--- stderr\n", proc.stderr]
    if stats is not None:
        parts.append(b"--- stats\n")
        path = os.path.join(cwd, stats)
        if os.path.exists(path):
            with open(path, "rb") as f:
                parts.append(f.read())
        else:
            parts.append(b"(not written)\n")
    return b"".join(parts)


def make_traces(cli, traces, cwd):
    for name, args in traces:
        proc = subprocess.run([cli] + args, cwd=cwd, capture_output=True,
                              timeout=300, check=False)
        if proc.returncode != 0 or not os.path.exists(os.path.join(cwd, name)):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(f"could not make trace {name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cli", required=True, help="the vidqual binary")
    parser.add_argument("--group", required=True,
                        help="the manifest group to run, or 'all'")
    parser.add_argument("--work-dir", help="parent of the scratch directory")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the digests of the cases run")
    parser.add_argument("--snapshot", help="write each capture to DIR/ID.txt")
    opts = parser.parse_args()

    cli = os.path.abspath(opts.cli)
    if not os.access(cli, os.X_OK):
        sys.stderr.write(f"not an executable: {cli}\n")
        return 2
    traces, cases = read_manifest()
    chosen = [c for c in cases if opts.group in ("all", c[0])]
    if not chosen:
        sys.stderr.write(f"no case in group {opts.group}\n")
        return 2
    digests = read_digests()
    if opts.snapshot:
        os.makedirs(opts.snapshot, exist_ok=True)
    if opts.work_dir:
        os.makedirs(opts.work_dir, exist_ok=True)

    cwd = tempfile.mkdtemp(prefix=f"golden-{opts.group}-", dir=opts.work_dir)
    failed = []
    try:
        make_traces(cli, traces, cwd)
        for _, case_id, args in chosen:
            text = capture(cli, args, cwd)
            digest = hashlib.sha256(text).hexdigest()
            if opts.snapshot:
                with open(os.path.join(opts.snapshot, case_id + ".txt"),
                          "wb") as f:
                    f.write(text)
            if opts.update:
                if digests.get(case_id) != digest:
                    print(f"updated {case_id}")
                digests[case_id] = digest
            elif digests.get(case_id) != digest:
                failed.append(case_id)
                print(f"FAIL {case_id}: digest {digest}, expected "
                      f"{digests.get(case_id, '(none)')}")
                print("  vidqual " + " ".join(args))
            else:
                print(f"ok   {case_id}")
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    if opts.update:
        write_digests(digests, [case_id for _, case_id, _ in cases])
        return 0
    if failed:
        print(f"{len(failed)} of {len(chosen)} cases differ; if the change "
              "is intended, rerun with --update and name each case in "
              "CHANGES.md")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

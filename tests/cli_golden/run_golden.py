#!/usr/bin/env python3
"""CLI golden corpus: runs vidqual invocations and checks one digest each.

    run_golden.py --cli PATH --group NAME [--work-dir DIR]
    run_golden.py --cli PATH --group all --update
    run_golden.py --cli PATH --group all --snapshot DIR

manifest.txt lists the traces, made in order: `trace FILE ARGS...` runs
`vidqual generate` / `vidqual convert` at fixed seeds, and `damage OUT IN
KIND...` writes a damaged copy of an earlier trace (see damage() for the
kinds).  The cases follow (`GROUP ID ARGS...`).  A group's cases run in a
fresh directory holding the traces, with relative paths, so no output
names a machine path.  A case's digest is the SHA-256 of its exit status,
stdout, stderr and, when its arguments carry `--stats-out FILE`,
`--checkpoint FILE` or (for `convert`) `--out FILE`, that file as the
case left it.  Stats and convert outputs are removed before their case
runs; a checkpoint file is not, so a later case of the same group resumes
from the one an earlier case wrote.  digests.txt holds one `ID DIGEST`
line per case.

--update rewrites the digests of the cases run.  --snapshot writes each
case's captured text to DIR/ID.txt, so two builds' snapshots can be
diffed case by case.  The exit status is 1 when a digest differs or is
missing, and 2 on a usage or setup error.
"""

import argparse
import hashlib
import os
import shutil
import struct
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
            if words[0] in ("trace", "damage"):
                traces.append((words[0], words[1], words[2:]))
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


def option_value(args, name):
    for i, word in enumerate(args[:-1]):
        if word == name:
            return args[i + 1]
    return None


def file_part(label, path):
    parts = [f"--- {label}\n".encode()]
    if os.path.exists(path):
        with open(path, "rb") as f:
            parts.append(f.read())
    else:
        parts.append(b"(not written)\n")
    return parts


def capture(cli, args, cwd):
    """The case's canonical text: exit status, stdout, stderr, stats,
    checkpoint and convert output."""
    stats = option_value(args, "--stats-out")
    written = option_value(args, "--out") if args[:1] == ["convert"] else None
    for path in (stats, written):
        if path is not None and os.path.exists(os.path.join(cwd, path)):
            os.remove(os.path.join(cwd, path))
    checkpoint = option_value(args, "--checkpoint")
    proc = subprocess.run([cli] + args, cwd=cwd, capture_output=True,
                          timeout=300, check=False)
    parts = [f"exit: {proc.returncode}\n".encode(), b"--- stdout\n",
             proc.stdout, b"--- stderr\n", proc.stderr]
    if stats is not None:
        parts += file_part("stats", os.path.join(cwd, stats))
    if checkpoint is not None:
        parts += file_part("checkpoint", os.path.join(cwd, checkpoint))
    if written is not None:
        parts += file_part("out", os.path.join(cwd, written))
    return b"".join(parts)


# --- damage ------------------------------------------------------------------
#
# `damage OUT IN KIND...` copies trace IN to OUT and applies each KIND in
# order.  Rows are numbered from 0 in file order, which is the same order in
# all three formats when they are converted from one another.
#
#   FIELD=VALUE@ROW  overwrite one field of row ROW.  FIELD is a CSV column
#                    name; VALUE is written as text into a CSV, and as the
#                    field's binary type (u16 attribute id, u32 epoch, f32
#                    metric, u8 join flag) into a .vqtr or a .vqtc.
#   short@ROW        (CSV) drop the last field of row ROW.
#   cut@ROW          (.vqtr) end the file in the middle of record ROW.
#   v1               (.vqtc) mark the container version 1 and recompute every
#                    checksum after the last kind, so row edits reach the
#                    reader's row checks.  Version 1 checksums are fnv1a,
#                    which Python can compute; version 2 uses word_hash64.
#   flip@CHUNK       (.vqtc) flip one byte of chunk CHUNK's first column.
#   forge-footer     (.vqtc) add one to the first footer entry's row count
#                    and recompute the footer checksum.

CSV_COLUMNS = ["epoch", "site", "cdn", "asn", "conn_type", "player",
               "browser", "vod_live", "buffering_ratio", "bitrate_kbps",
               "join_time_ms", "join_failed"]
# Record layout of .vqtr (trace_format.h): 7 x u16 attribute ids in CSV
# column order, u32 epoch, 3 x f32 metrics, u8 join flag.
RECORD_FIELDS = {name: (2 * i, "<H") for i, name in
                 enumerate(CSV_COLUMNS[1:8])}
RECORD_FIELDS.update({"epoch": (14, "<I"), "buffering_ratio": (18, "<f"),
                      "bitrate_kbps": (22, "<f"), "join_time_ms": (26, "<f"),
                      "join_failed": (30, "<B")})
RECORD_BYTES = 31
# Column order and widths of a .vqtc chunk (the epoch is per chunk).
CHUNK_COLUMNS = [(name, RECORD_FIELDS[name][1]) for name in
                 CSV_COLUMNS[1:8] + CSV_COLUMNS[8:]]
# The fnv1a of trace_format.h: 64-bit FNV-1a, but with the offset basis
# 1469598103934665603, not the standard 14695981039346656037.
FNV_BASIS = 1469598103934665603
FNV_PRIME = 1099511628211


def fnv1a(data, h=FNV_BASIS):
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def parse_edit(kind):
    field, rest = kind.split("=", 1)
    value, row = rest.rsplit("@", 1)
    if field not in CSV_COLUMNS:
        sys.exit(f"damage: unknown field {field}")
    return field, value, int(row)


def pack_value(field, value):
    fmt = RECORD_FIELDS[field][1]
    return struct.pack(fmt, float(value) if fmt == "<f" else int(value))


def damage_csv(data, kinds):
    lines = data.decode().split("\n")
    for kind in kinds:
        if kind.startswith("short@"):
            row = int(kind[len("short@"):])
            lines[1 + row] = lines[1 + row].rsplit(",", 1)[0]
            continue
        field, value, row = parse_edit(kind)
        cells = lines[1 + row].split(",")
        cells[CSV_COLUMNS.index(field)] = value
        lines[1 + row] = ",".join(cells)
    return "\n".join(lines).encode()


def vqtr_records_start(data):
    at = 8  # magic + version
    for _ in range(7):
        (count,) = struct.unpack_from("<I", data, at)
        at += 4
        for _ in range(count):
            (length,) = struct.unpack_from("<H", data, at)
            at += 2 + length
    return at + 8  # the u64 session count


def damage_vqtr(data, kinds):
    data = bytearray(data)
    start = vqtr_records_start(data)
    for kind in kinds:
        if kind.startswith("cut@"):
            row = int(kind[len("cut@"):])
            del data[start + row * RECORD_BYTES + RECORD_BYTES // 2:]
            continue
        field, value, row = parse_edit(kind)
        at = start + row * RECORD_BYTES + RECORD_FIELDS[field][0]
        packed = pack_value(field, value)
        data[at:at + len(packed)] = packed
    return bytes(data)


def vqtc_chunks(data):
    """(footer entry offset, chunk offset, row count) per footer entry."""
    (footer,) = struct.unpack_from("<Q", data, len(data) - 12)
    (chunk_count,) = struct.unpack_from("<I", data, footer + 4)
    chunks = []
    for i in range(chunk_count):
        entry = footer + 12 + 28 * i
        offset, count = struct.unpack_from("<QQ", data, entry + 4)
        chunks.append((entry, offset, count))
    return chunks


def column_offset(chunk_offset, count, column):
    at = chunk_offset + 16  # magic, u32 epoch, u64 count
    for _, fmt in CHUNK_COLUMNS[:column]:
        at += struct.calcsize(fmt) * count
    return at


def reseal_footer(data, chunks):
    entries = chunks[0][0]
    end = entries + 28 * len(chunks)
    struct.pack_into("<Q", data, end, fnv1a(data[entries:end]))


def damage_vqtc(data, kinds):
    data = bytearray(data)
    chunks = vqtc_chunks(data)
    reseal = False
    for kind in kinds:
        if kind == "v1":
            struct.pack_into("<I", data, 4, 1)
            reseal = True
        elif kind.startswith("flip@"):
            _, offset, count = chunks[int(kind[len("flip@"):])]
            data[column_offset(offset, count, 0)] ^= 0x01
        elif kind == "forge-footer":
            entry = chunks[0][0]
            (count,) = struct.unpack_from("<Q", data, entry + 12)
            struct.pack_into("<Q", data, entry + 12, count + 1)
            reseal_footer(data, chunks)
        else:
            field, value, row = parse_edit(kind)
            if field == "epoch":
                sys.exit("damage: a .vqtc row has no epoch field")
            for _, offset, count in chunks:
                if row < count:
                    break
                row -= count
            column = [name for name, _ in CHUNK_COLUMNS].index(field)
            packed = pack_value(field, value)
            at = column_offset(offset, count, column) + row * len(packed)
            data[at:at + len(packed)] = packed
    if reseal:
        for entry, offset, count in chunks:
            end = column_offset(offset, count, len(CHUNK_COLUMNS))
            checksum = fnv1a(data[offset + 4:end])
            struct.pack_into("<Q", data, end, checksum)
            struct.pack_into("<Q", data, entry + 20, checksum)
        reseal_footer(data, chunks)
    return bytes(data)


def damage(out, src, kinds, cwd):
    with open(os.path.join(cwd, src), "rb") as f:
        data = f.read()
    apply = {".csv": damage_csv, ".vqtr": damage_vqtr, ".vqtc": damage_vqtc}
    ext = os.path.splitext(src)[1]
    if ext not in apply or os.path.splitext(out)[1] != ext:
        sys.exit(f"damage: cannot damage {src} into {out}")
    with open(os.path.join(cwd, out), "wb") as f:
        f.write(apply[ext](data, kinds))


def make_traces(cli, traces, cwd):
    for directive, name, args in traces:
        if directive == "damage":
            damage(name, args[0], args[1:], cwd)
            continue
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

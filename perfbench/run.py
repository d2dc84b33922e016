#!/usr/bin/env python3
"""Build and run the nbsp wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Builds the `perfbench` package (release, the crates' default features) from
the sources next to this script, runs one workload in its own process, and
checks that the last line it prints is the result object with exactly the
metrics BENCHMARK.json names: the end-to-end ones with `--trace 0`, the
per-layer ones with `--trace 1`. `--workload all` runs every workload in
turn, `verify_dpor` too, and prints a table of the end-to-end metrics and
`fail_frac`. `verify_dpor` is not in BENCHMARK.json: its wall time moves
too much with the host to be bounded (see README.md).

Exits non-zero, printing no result, when the build fails, an output check
fails, or the result does not match BENCHMARK.json.
"""

import argparse
import ctypes
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not list.
UNBOUNDED_WORKLOADS = ["verify_dpor"]

# glibc adapts its mmap threshold to the sizes a process has freed, so the
# peak RSS of a run that rebuilds its state every window depended on which
# allocation happened to cross the moving threshold first. A fixed
# threshold makes every large block a fresh mapping in every window.
ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

# Linux's ADDR_NO_RANDOMIZE personality flag. With the address space laid
# out at random, the peak RSS of one seed moved by 0.15 MB from process to
# process, as allocations fell across page boundaries differently; with a
# fixed layout it repeated within 0.01 MB.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: turns address-space randomization
    off for the benchmark process. Where the kernel refuses, the run goes
    on with a random layout."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
        current = personality(0xFFFFFFFF)
        if current != -1:
            personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if r.returncode != 0:
        log("build failed")
        return None
    exe = os.path.join(target_dir(), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    names = [w["name"] for w in spec["workloads"]] + UNBOUNDED_WORKLOADS
    return {m["name"]: m["unit"] for m in spec[key]}, names


def validate(line, trace):
    """Returns the parsed result, or None with the reason logged."""
    try:
        res = json.loads(line)
    except ValueError:
        log("the last line is not JSON")
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(res)}")
        return None
    if res["correct"] is not True:
        log("an output check failed")
        return None
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int) and res["failed"] >= 0):
        log("attempted/failed must be whole numbers, attempted at least 1")
        return None
    want, _ = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
        return None
    for k, v in res["metrics"].items():
        value = v.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            log(f"metric {k} has no finite numeric value")
            return None
    return res


def run_one(exe, workload, seed, seconds, trace):
    """Runs one workload; returns (lines before the result, result) or None."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--trace-dir", os.path.join(target_dir(), "perfbench-traces")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ENV}, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
                           preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = r.stdout.strip().splitlines()
    if not lines:
        log(f"{workload} printed nothing (exit {r.returncode})")
        return None
    head, last = lines[:-1], lines[-1]
    res = validate(last, trace)
    if res is None or r.returncode != 0:
        for line in lines:
            print(line, file=sys.stderr)
        log(f"{workload} failed (exit {r.returncode})")
        return None
    return head, last, res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        log("--seconds must be in (0, 60]")
        return 2
    if args.seed < 0:
        log("--seed must be a whole number")
        return 2

    exe = build()
    if exe is None:
        return 1
    _, workloads = expected_metrics(bool(args.trace))
    if args.workload != "all":
        if args.workload not in workloads:
            log(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
            return 2
        out = run_one(exe, args.workload, args.seed, args.seconds, bool(args.trace))
        if out is None:
            return 1
        head, last, _ = out
        for line in head:
            print(line)
        print(last, flush=True)
        return 0

    rows = []
    for w in workloads:
        out = run_one(exe, w, args.seed, args.seconds, False)
        if out is None:
            return 1
        head, _, res = out
        fail_frac = res["failed"] / res["attempted"]
        rows.append((w, res["metrics"], fail_frac))
    names = list(rows[0][1])
    print("| workload | " + " | ".join(f"{n} ({rows[0][1][n]['unit']})" for n in names)
          + " | fail_frac (ratio) |")
    print("|---" * (len(names) + 2) + "|")
    for w, m, ff in rows:
        print(f"| {w} | " + " | ".join(f"{m[n]['value']:.6g}" for n in names) + f" | {ff:.6g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

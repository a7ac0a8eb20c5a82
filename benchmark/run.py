#!/usr/bin/env python3
"""Build and run the trkx benchmark (see README.md in this directory).

    python3 benchmark/run.py --workload <train-ctd|reco-pileup|serve-stdio> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `trkx` binary and the benchmark
package with cargo (into $CARGO_TARGET_DIR, default .bench_build), then
runs the workload. The last stdout line is one JSON object with keys
correct, attempted, failed and metrics. With --trace 1 every workload's
traced loop runs, one process each, and their per-layer metrics are
merged into that line.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("train-ctd", "reco-pileup", "serve-stdio")
# Kernel-pool size (caller thread included) per workload, so that each
# keeps at most two threads busy: two DDP ranks x 1; one caller x 2; two
# serve workers x 1 in the child (set by the benchmark itself).
KERNEL_POOL = {"train-ctd": "1", "reco-pileup": "2", "serve-stdio": "1"}

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build(env):
    steps = [
        [str(ROOT / "Cargo.toml"), "--bin", "trkx"],
        [str(HERE / "Cargo.toml")],
    ]
    for manifest, *extra in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        # Cargo's progress goes to stderr; stdout stays for the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")


def revision():
    """The git revision, or a digest of the sources when not in a git tree."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if rev:
            return rev
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "benchmark"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in files:
            if "target" in p.relative_to(ROOT).parts:
                continue
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def run_one(exe, trkx, out, workload, args, rev, trace):
    env = dict(os.environ, RAYON_NUM_THREADS=KERNEL_POOL[workload])
    cmd = [
        str(exe), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--trkx", str(trkx), "--out", str(out), "--rev", rev,
    ]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("--seed must be non-negative")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)
    exe = target / "release" / "trkx-perf"
    trkx = target / "release" / "trkx"
    out = target / "trkx-perf"
    rev = revision()

    parts = WORKLOADS if args.trace else (args.workload,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in parts:
        code, lines, result = run_one(exe, trkx, out, w, args, rev, args.trace)
        for line in lines:
            print(line)
        if result is None:
            sys.exit(f"{w}: benchmark exited {code} without a result")
        merged["correct"] = merged["correct"] and bool(result["correct"])
        merged["attempted"] += int(result["attempted"])
        merged["failed"] += int(result["failed"])
        merged["metrics"].update(result["metrics"])
        status = status or code
    if not merged["correct"]:
        merged["metrics"] = {}
    print(json.dumps(merged))
    sys.exit(status)


if __name__ == "__main__":
    main()

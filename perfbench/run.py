#!/usr/bin/env python3
"""Run one workload of the DISTINCT benchmark and print its result.

    python3 perfbench/run.py --workload catalog|names|updates|durable \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the two
benchmark binaries from source (release profile, into $CARGO_TARGET_DIR,
default `.bench_build`), runs the workload in a process of its own and
prints two lines: a fingerprint of host and build, then the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
the workload runs twice, untraced and traced (each in its own process),
and the metrics are the per-layer ones plus `trace_overhead`. The exit
code is 0 only when every output check passed; when the build or the
workload process fails, nothing is printed on standard output. The smoke
tests (`tests/smoke.rs`) drive the binaries directly, at tiny scale and
with a forced mismatch.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the first one in a checkout also builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build both binaries; False when the build fails or times out."""
    cmd = ["cargo", "build", "--release", "--offline", "--bins",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    return done.returncode == 0


def run_binary(name, argv, deadline):
    """Run one workload process; its last stdout line parsed, or None."""
    exe = os.path.join(target_dir(), "release", name)
    proc = subprocess.Popen([exe] + argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{name} did not finish in time")
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{name} exited {proc.returncode} without a report")
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def git_commit():
    """HEAD of the checkout, or "unknown" when the checkout is not itself
    the top of a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return command_output(["git", "rev-parse", "HEAD"])


def source_digest():
    """SHA-256 over the sources the binaries are built from, so a result
    names its build even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(base)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fingerprint(args, report, traced):
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": report["threads"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cargo_features": [],
        "allocator": "counting" if traced else "system",
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["catalog", "names", "updates", "durable"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not build():
        log("cannot build the benchmark")
        return 2
    start = time.monotonic()
    os.makedirs(os.path.join(target_dir(), "perfbench-runs"), exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--scratch", os.path.join(target_dir(), "perfbench-runs")]

    deadline = start + RUN_BUDGET_S
    plain = run_binary("perfbench", argv, deadline)
    if plain is None:
        return 2
    reports = [plain]
    metrics = plain["metrics"]
    if args.trace:
        traced = run_binary("perfbench-traced", argv, deadline)
        if traced is None:
            return 2
        reports.append(traced)
        metrics = traced["layers"]
        base = plain["metrics"]["op_mean_ms"]["value"]
        metrics["trace_overhead"] = {
            "value": traced["metrics"]["op_mean_ms"]["value"] / base if base else 0.0,
            "unit": "1",
        }
    print(json.dumps({"fingerprint": fingerprint(args, reports[-1], args.trace)}))
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

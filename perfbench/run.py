#!/usr/bin/env python3
"""Build and run the GuBPI benchmark.

    python3 perfbench/run.py --workload pedestrian|grid-refine|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload,
echoes its report and ends with the result as one JSON line. Each result
is also recorded, with the machine it ran on, under `.bench_out/`; the
spans of a traced run are written there too. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pedestrian", "grid-refine", "serve-mixed")
RUN_TIMEOUT_S = 170


def machine():
    """nproc, CPU model, rustc and commit, recorded with each result."""

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": first_line(["rustc", "--version"]),
        "commit": first_line(["git", "rev-parse", "HEAD"]),
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = p.parse_args()

    # The engine's Default impls read GUBPI_* variables; refuse rather
    # than measure a configuration nobody recorded.
    gubpi = sorted(k for k in os.environ if k.startswith("GUBPI_"))
    if gubpi:
        print(f"perfbench: refusing to run with {', '.join(gubpi)} set", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        print(f"perfbench: no result line (exit {run.returncode})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)

    status = run.returncode
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        status = status or 1

    info = machine()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "machine": info, "result": result}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(f"machine: nproc {info['nproc']}, {info['cpu_model']}, {info['rustc']}, "
          f"commit {info['commit']}; recorded in {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())

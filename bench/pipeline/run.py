#!/usr/bin/env python3
# Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
"""Build and run the pipeline benchmark (see README.md).

    python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/pipeline/run.py --seed N --out runs.json   # every workload, trace off and on
    python3 bench/pipeline/run.py --smoke                    # 1/100 size, checks only

Builds bench_pipeline from this checkout's sources into .bench_build/pipeline
(Release), generates the seeded inputs in a separate process, runs the
workload, and forwards its output: one `<workload> <metric> <value> <unit>`
line per metric, then the JSON result line. Exits non-zero when the build,
the run, or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
WORKLOADS = ["ds1_q1_hash2", "google_churn_paced", "ds1_q1_hybrid"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    # Build logs go to stderr: stdout carries only the benchmark's output.
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_pipeline",
                    "-j", "3"], check=True, stdout=sys.stderr)
    return build_dir / "bench_pipeline"


def run_workload(binary, build_dir, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns its parsed result object."""
    data = build_dir / f"data-{os.getpid()}-{workload}"
    data.mkdir(parents=True, exist_ok=True)
    common = [str(binary), "--workload", workload, "--seed", str(seed), "--data", str(data)]
    if smoke:
        common.append("--smoke")
    try:
        subprocess.run(common + ["--generate"], check=True)
        cmd = common + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            cmd += ["--trace-out", str(build_dir / f"trace-{workload}-{seed}.json")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    return result


def fingerprint(seed, build_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    build_type = "unknown"
    cache = build_dir / "CMakeCache.txt"
    for line in cache.read_text().splitlines() if cache.is_file() else []:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu, "build_type": build_type,
            "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown"}


def smoke_check(results):
    """Every workload printed every metric BENCHMARK.json names, correctly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for r in results:
        missing = [n for n in names[r["trace"]] if n not in r["metrics"]]
        if missing or not r["correct"] or r["failed"]:
            print(f"smoke: {r['workload']} trace {r['trace']}: correct={r['correct']} "
                  f"failed={r['failed']} missing={missing}", file=sys.stderr)
            ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, each in its own process)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="0: end-to-end metrics; 1: per-layer metrics and a Chrome trace "
                         "(default with --workload: 0; without: both)")
    ap.add_argument("--out", help="write the results and a machine fingerprint as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at 1/100 size, trace off and on; checks only")
    ap.add_argument("--build-dir", default=str(ROOT / ".bench_build" / "pipeline"))
    args = ap.parse_args()

    build_dir = Path(args.build_dir).resolve()
    binary = build(build_dir)
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0] if args.workload and not args.smoke else [0, 1]
    seconds = 0 if args.smoke else args.seconds
    results = [run_workload(binary, build_dir, w, args.seed, seconds, t, args.smoke)
               for w in workloads for t in traces]
    if args.out:
        doc = {"fingerprint": fingerprint(args.seed, build_dir), "runs": results}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.smoke and not smoke_check(results):
        sys.exit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""satbench runner: build the benchmark from source, run one workload.

Usage, from the root of a checkout:

    python3 satbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--rule-c off]
    python3 satbench/run.py --pin

The first call configures and builds satbench (and the satom libraries
it links, from ./src) under .bench_build/satbench in Release mode;
later calls rebuild incrementally.  The workload's output is passed
through, and its last line is one JSON object with the keys correct,
attempted, failed and metrics.  Build output goes to stderr.

--rule-c off is the sensitivity leg: litmus-library run without Store
Atomicity rule c must report failed > 0.  --pin regenerates the pinned
references in satbench/refs from the current build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "satbench"
RUN_TIMEOUT_S = 170
TMP_DIR = ROOT / ".bench_build" / "tmp"


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    """Configure once, then build incrementally; False on failure."""
    steps = []
    if not (BUILD_DIR / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs(),
                  "--target", "satbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if any."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--rule-c", choices=("on", "off"), default="on")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if not args.pin and None in (args.workload, args.seed, args.seconds,
                                 args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    # Keep the compiler's and the program's temporary files in the checkout.
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_DIR)
    if not build():
        print("satbench: build failed", file=sys.stderr)
        return 1
    exe = str(BUILD_DIR / "satbench")
    if args.pin:
        return subprocess.run([exe, "--pin", "--data", str(BENCH_DIR)]).returncode

    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    traces = ROOT / ".bench_build" / "traces"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", str(BENCH_DIR), "--work", str(work),
           "--commit", source_id(), "--rule-c", args.rule_c,
           "--trace-out",
           str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"satbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"satbench: exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("satbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

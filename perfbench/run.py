#!/usr/bin/env python3
"""Builds and runs the PathService benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

`--workload all` runs every workload untraced and traced, then prints one
end-to-end table; its exit status is non-zero if any run's was.

The first run configures and builds perfbench/ (a CMake package that
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build. Build output
goes to stderr; the harness's report goes to stdout and its last line is
the JSON result. A full results file (with provenance) and the traced
spans are written under the build directory's results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("hot", "cold", "mixed", "overload")
DEADLINE_S = 170.0  # a run must finish within 180 s once built


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def source_id():
    """The git commit when there is one, else a hash of the library tree."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
            if sha:
                return sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures once, then brings the build up to date; output to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True,
        )
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs],
        stdout=sys.stderr, check=True,
    )


def run_one(build_dir, workload, seed, seconds, trace, source, capture):
    """Runs the harness once; returns the CompletedProcess."""
    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    command = [
        str(build_dir / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(results / f"{stem}.json"),
        "--source-id", source,
    ]
    if trace:
        command += ["--spans", str(results / f"{workload}.spans.csv")]
    try:
        return subprocess.run(command, timeout=DEADLINE_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"the {workload} run did not finish in time")


def run_all(build_dir, seed, seconds, source):
    """Every workload, untraced then traced, and one end-to-end table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = run_one(build_dir, workload, seed, seconds, trace,
                                source, capture=True)
            sys.stdout.write(completed.stdout)
            status = status or completed.returncode
            lines = completed.stdout.strip().splitlines()
            if trace == 0 and lines:
                rows.append((workload, json.loads(lines[-1])))
    print("\nend-to-end, seed", seed)
    for workload, result in rows:
        cells = [f"{name}={metric['value']:.6g} {metric['unit']}"
                 for name, metric in result["metrics"].items()]
        print(f"  {workload:9s} correct={result['correct']} " + "  ".join(cells))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="required unless --workload all")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in 1..60")
    if args.workload != "all" and args.trace is None:
        fail("--trace is required for a single workload")
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (ROOT / target / "perfbench").resolve()
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    source = source_id()
    if args.workload == "all":
        sys.exit(run_all(build_dir, args.seed, args.seconds, source))
    completed = run_one(build_dir, args.workload, args.seed, args.seconds,
                        args.trace, source, capture=False)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()

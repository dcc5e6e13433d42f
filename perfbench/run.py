#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload perf-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The script builds the `perfbench` package (a detached Cargo package with
path dependencies on the workspace crates) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it.  The build
output goes to standard error; standard output carries the benchmark's own
lines, the last of which is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads: perf-long, nrh-sweep, attacks, serve-mixed.  `--trace 0` prints
the end-to-end metrics, `--trace 1` the per-layer split of a traced run
(spans are written to `.bench_work/spans/<workload>.tsv`).  Seed 0
reproduces the registry cells byte-for-byte and is checked against the
goldens in `perfbench/golden/`; other seeds are checked by the untraced
and traced runs agreeing.  Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("perf-long", "nrh-sweep", "attacks", "serve-mixed")
# A run ends well inside the 180 s limit; the build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(root: Path, target: Path) -> Path:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(root / "perfbench" / "Cargo.toml"),
        ],
        cwd=root, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S,
    )
    return target / "release" / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload tiny through the output checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    try:
        binary = build(root, target)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    work = root / ".bench_work"
    if args.selftest:
        command = [str(binary), "--selftest"]
    else:
        command = [
            str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work),
        ]
        if args.trace:
            command += ["--spans", str(work / "spans" / f"{args.workload}.tsv")]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, OSError) as error:
        print(f"run.py: benchmark failed: {error}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode
    if args.selftest:
        return 0
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("run.py: the benchmark printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

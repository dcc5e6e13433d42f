#!/usr/bin/env python3
"""Report the benchmark: end-to-end medians, quartiles and spreads per
workload, then the per-layer split of a traced run with each layer
metric's predicted effect.

Run from the repository root:

    python3 perfbench/report.py                       # 10 seeds x 4 workloads
    python3 perfbench/report.py --runs 5 --workloads attacks --no-trace

Each untraced run uses another seed (1, 2, ...).  For every end-to-end
metric the report gives its unit, median, first and third quartile (as
`statistics.quantiles(values, n=4)` gives them), the sample count, and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json;
`steady` means the spread is below a third of the bound.  Percentile
metrics also give their per-run sample counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("perf-long", "nrh-sweep", "attacks", "serve-mixed")

# Which end-to-end metric each per-layer metric should move, on which
# workload.  Matched by longest prefix.
PREDICTIONS = {
    "sim.step_s": "wall_s, sim_ticks_per_s: perf-long (most), nrh-sweep (~half); none on attacks, serve-mixed",
    "sim.ticks": "wall_s, sim_ticks_per_s: perf-long (most), nrh-sweep (~half); none on attacks, serve-mixed",
    "sim.ns_per_tick": "wall_s, sim_ticks_per_s: perf-long (most), nrh-sweep (~half); none on attacks, serve-mixed",
    "sim.": "wall_s, peak_rss_mb: nrh-sweep; <=2% on perf-long; none on attacks",
    "core.": "wall_s: nrh-sweep; <=1% on perf-long and attacks",
    "workloads.": "nothing measurable (<0.5% everywhere)",
    "attack.": "wall_s, sim_ticks_per_s: attacks; none on the perf workloads",
    "cpu.": "deterministic work count: identical under any simulator-speed change",
    "memctrl.": "deterministic work count: identical under any simulator-speed change",
    "dram.": "deterministic work count: identical under any simulator-speed change",
    "campaign.plan_s": "setup_s: perf-long, nrh-sweep, attacks",
    "campaign.exec_s": "wall_s - campaign.exec_s is the runner's own overhead",
    "campaign.units": "wall_s - campaign.exec_s is the runner's own overhead",
    "campaign.capped_cells": "capped (completed:false) cells, listed by name per run",
    "campaign.execute_s": "miss_p50_ms: serve-mixed (miss execution, not split further)",
    "campaign.": "hit_p50_us, hit_p99_us, requests_per_s: serve-mixed; none elsewhere",
    "cache.": "hit_p50_us, hit_p99_us, requests_per_s: serve-mixed; none elsewhere",
    "serve.": "hit_p50_us, hit_p99_us, requests_per_s: serve-mixed; none elsewhere",
    "store.get_s": "hit_p50_us, hit_p99_us, requests_per_s: serve-mixed; none elsewhere",
    "store.insert_s": "miss_p50_ms: serve-mixed",
    "store.": "setup_s: serve-mixed",
    "trace.": "tracing overhead = traced wall_s - untraced wall_s",
}


def predicted(name: str) -> str:
    matches = [prefix for prefix in PREDICTIONS if name.startswith(prefix)]
    return PREDICTIONS[max(matches, key=len)] if matches else ""


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run: (result, detail); the detail gains the run's
    duration in seconds, build check included."""
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip().splitlines()
    detail = next((json.loads(l)["detail"] for l in out if l.startswith('{"detail"')), {})
    detail["run_s"] = time.monotonic() - started
    return json.loads(out[-1]), detail


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    everything = {}
    all_steady = True

    for workload in args.workloads:
        runs = [run(workload, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        everything[workload] = [{"result": r, "detail": d} for r, d in runs]
        print(f"\n== {workload}: {args.runs} runs x {seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        failed = sum(r["failed"] for r, _ in runs)
        attempted = sum(r["attempted"] for r, _ in runs)
        print(f"outputs: {attempted} checked, {failed} failed, "
              f"correct in {sum(r['correct'] for r, _ in runs)}/{len(runs)} runs")
        print(f"{'metric':<18}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}"
              f"{'spread':>9}{'bound':>7}  steady")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r, _ in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < bounds[name] / 3
            all_steady &= steady
            print(f"{name:<18}{units[name]:<8}{fmt(med):>14}{fmt(q1):>14}{fmt(q3):>14}"
                  f"{len(values):>4}{spread:>9.4f}{bounds[name]:>7}  {'yes' if steady else 'NO'}")
        details = [d for _, d in runs]
        if details and "hit_p99_windows" in details[0]:
            d = details[0]
            print(f"hit_p99_us: {d['hit_samples']} hit samples in run 1, p99 = median of "
                  f"{d['hit_p99_windows']} window p99s with "
                  f"{d['hit_samples_beyond_p99_per_window']} samples beyond each; "
                  f"miss_p50_ms: {d['miss_samples']} miss samples in run 1")
        elif details and "hit_samples" in details[0]:
            d = details[0]
            print(f"hit_p99_us: {d['hit_samples']} passes in run 1 "
                  f"({d['hit_samples_beyond_p99']} beyond the p99); "
                  f"miss_p50_ms: {d['miss_samples']} passes in run 1")
        durations = [d["run_s"] for d in details]
        print(f"run duration: median {statistics.median(durations):.1f} s, "
              f"max {max(durations):.1f} s")
        capped = sorted({c for d in details for c in d.get("capped_cells", [])})
        print(f"capped cells: {len(capped)}" + (f" ({', '.join(capped)})" if capped else ""))
        accuracy = [d["model_accuracy"] for d in details if "model_accuracy" in d]
        if accuracy:
            a = accuracy[0]
            mean = statistics.median(x["tprac_slowdown_nrh1024"] for x in accuracy)
            print(f"model accuracy: TPRAC mean slowdown at NRH=1024 {mean:.2%} over "
                  f"{a['cells']} uncapped cells (median over seeds) vs paper "
                  f"{a['paper']:.1%} -- {a['note']}")

    if not args.no_trace:
        layer_names = [m["name"] for m in bench["per_layer"]]
        layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        traced = {w: run(w, args.first_seed, seconds, 1) for w in args.workloads}
        for workload, (result, _) in traced.items():
            everything.setdefault(workload, []).append({"trace": result})
        print(f"\n== per-layer split (one traced run per workload, seed {args.first_seed})")
        print(f"{'metric':<26}{'unit':<12}" + "".join(f"{w:>14}" for w in traced)
              + "  predicted to move")
        for name in layer_names:
            values = "".join(f"{fmt(r['metrics'][name]['value']):>14}" for r, _ in traced.values())
            print(f"{name:<26}{layer_units[name]:<12}{values}  {predicted(name)}")
        print("traced outputs correct: "
              + ", ".join(f"{w}={r['correct']}" for w, (r, _) in traced.items()))

    if args.json:
        args.json.write_text(json.dumps(everything, indent=1))
    print(f"\nall end-to-end spreads below a third of their bounds: {all_steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

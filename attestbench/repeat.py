"""Repeat the benchmark over seeds and summarise its run-to-run spread.

Usage (from the repository root)::

    python3 attestbench/repeat.py --out results.json
    python3 attestbench/repeat.py --summarise results.json

Runs ``run.py`` untraced once per workload of ``BENCHMARK.json`` and
seed 1-10, one run at a time, with its ``run_seconds``, and stores every
result line and its details (host context included) in ``--out``. The
summary gives, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), min, max and the
spread: the inter-quartile distance as a share of the median, which
must stay below the metric's ``bound``. Its last column is the spread of
the same figure unscaled by host speed (``raw`` in the details line).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
#: End-to-end metric -> its unscaled figure under ``raw`` in the details.
RAW_NAMES = {"ops_per_s": "ops_per_wall_s", "lat_p50_ms": "lat_p50_ms",
             "lat_p90_ms": "lat_p90_ms", "cpu_ms_per_op": "cpu_ms_per_op",
             "setup_s": "setup_s"}


def collect(workloads, seconds: int) -> list:
    runs = []
    for workload in workloads:
        for seed in SEEDS:
            started = time.monotonic()
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            runs.append({
                "workload": workload, "seed": seed,
                "exit": completed.returncode,
                "elapsed_s": time.monotonic() - started,
                "details": json.loads(lines[-2]) if len(lines) > 1 else None,
                "result": json.loads(lines[-1]) if lines else None,
                "stderr_tail": completed.stderr[-2000:],
            })
            print(f"{workload} seed {seed}: exit {completed.returncode}, "
                  f"{runs[-1]['elapsed_s']:.1f} s", file=sys.stderr)
    return runs


def _spread(values: list) -> tuple:
    """(median, q1, q3, inter-quartile distance / median)."""
    median = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4) \
        if len(values) > 1 else (values[0], None, values[0])
    return median, low, high, (high - low) / median if median else 0.0


def summarise(runs: list, bounds: dict) -> dict:
    """Per workload and metric: median, quartiles, min, max, spread."""
    table, raw = {}, {}
    for run in runs:
        if not run["result"]:
            continue
        per_workload = table.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            per_workload.setdefault(name, []).append(metric["value"])
            if name in RAW_NAMES:
                raw.setdefault((run["workload"], name), []).append(
                    run["details"]["raw"][RAW_NAMES[name]])
    summary = {}
    for workload, metrics in table.items():
        summary[workload] = {}
        for name, values in metrics.items():
            median, low, high, spread = _spread(values)
            summary[workload][name] = {
                "n": len(values), "median": median, "q1": low, "q3": high,
                "min": min(values), "max": max(values), "spread": spread,
                "bound": bounds.get(name),
                "raw_spread": _spread(raw[(workload, name)])[3]
                if (workload, name) in raw else None,
            }
    return summary


def render(summary: dict, runs: list) -> str:
    lines = []
    for workload, metrics in summary.items():
        mine = [run for run in runs if run["workload"] == workload]
        failed = sum(run["result"]["failed"] for run in mine
                     if run["result"])
        lines.append(f"{workload}: {len(mine)} runs, "
                     f"{sum(1 for run in mine if run['exit'] == 0)} exit 0, "
                     f"{failed} failed ops")
        lines.append(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
                     f"{'min':>10} {'max':>10} {'spread':>7} {'bound':>6} "
                     f"{'raw':>6}")
        for name, row in metrics.items():
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            raw = "" if row["raw_spread"] is None \
                else f"{row['raw_spread']:.3f}"
            lines.append(
                f"  {name:<16} {row['median']:>10.4g} {row['q1']:>10.4g} "
                f"{row['q3']:>10.4g} {row['min']:>10.4g} {row['max']:>10.4g} "
                f"{row['spread']:>7.3f} {bound:>6} {raw:>6}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write raw runs + summary here")
    parser.add_argument("--summarise", help="summarise a saved --out file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    if args.summarise:
        runs = json.loads(Path(args.summarise).read_text())["runs"]
    else:
        runs = collect([workload["name"] for workload in spec["workloads"]],
                       spec["run_seconds"])
    summary = summarise(runs, bounds)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"runs": runs, "summary": summary}, indent=1, sort_keys=True))
    print(render(summary, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

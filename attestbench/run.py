"""End-to-end benchmark of the attested path, with per-layer attribution.

Usage (from the repository root)::

    python3 attestbench/run.py --workload fleet-attest --seed 1 \\
        --seconds 30 --trace 0

Drives the shipped configuration (default ``FleetConfig()``, default AOT
tier, the process-wide code cache) through public APIs on three
closed-loop, one-client workloads (see ``workloads.py`` and
``STEADINESS.md`` for why each was chosen):

* ``fleet-attest`` — full msg0-msg3 handshakes against the threaded gateway;
* ``attested-ml``  — the paper's attested Genann job over WASI-RA;
* ``cold-deploy``  — deploy, run and unload never-seen PolyBench builds.

Every op's output is checked against an independent reference. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it carries the
details: host context, the raw wall-clock figures, the first failures
verbatim, and (traced) the full per-layer table and the same-path check.
Exits 0 when every check passed, 1 when one failed, 2 when the
repository's sources are missing and 3 when a worker produced no result.

End-to-end times are stated at one fixed host speed. The shared host
this runs on changes speed by up to 2x within seconds, and the program's
wall and CPU time follow it; so a speed probe runs before and after every
op and around every set-up, and each time is scaled to what it would be
where the probe takes ``PROBE_REFERENCE_MS``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
#: All but ``peak_rss_mb`` are at the reference host speed.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
#: All are per op; ``*_ms`` rows are self time, except ``core.wait_ms``
#: (time inside ``ClientConnection.receive``, children included),
#: ``fleet.handoff_ms`` (gateway message entry -> worker start) and
#: ``sim_ms_per_op`` (SimClock ms summed over every board). SimClock time
#: is exact for a given op sequence and, on fleet-attest, the same for
#: every handshake, so it is reported here rather than as an end-to-end
#: metric that would read identically on every run.
PER_LAYER = (
    ("sim_ms_per_op", "ms"),
    ("crypto.self_ms", "ms"),
    ("crypto.gcm_key_ms", "ms"),
    ("crypto.gcm_key_n", "count"),
    ("crypto.gcm_bulk_ms", "ms"),
    ("crypto.gcm_kb", "kB"),
    ("crypto.ecdh_ms", "ms"),
    ("crypto.ecdsa_sign_ms", "ms"),
    ("crypto.ecdsa_verify_ms", "ms"),
    ("crypto.ecdsa_verify_n", "count"),
    ("crypto.cmac_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.protocol_ms", "ms"),
    ("core.attester_ms", "ms"),
    ("core.verifier_ms", "ms"),
    ("core.wasi_ra_ms", "ms"),
    ("core.runtime_ms", "ms"),
    ("core.wait_ms", "ms"),
    ("appraisal.self_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("fleet.handoff_ms", "ms"),
    ("fleet.ticket_hit_frac", "ratio"),
    ("fleet.refused_n", "count"),
    ("wasm.decode_ms", "ms"),
    ("wasm.validate_ms", "ms"),
    ("wasm.compile_ms", "ms"),
    ("wasm.compile_fn_n", "count"),
    ("wasm.instantiate_ms", "ms"),
    ("wasm.exec_ms", "ms"),
    ("wasm.cache_hit_frac", "ratio"),
    ("optee.self_ms", "ms"),
    ("optee.invoke_n", "count"),
    ("optee.copy_kb", "kB"),
    ("hw.smc_n", "count"),
    ("hw.self_ms", "ms"),
    ("wasi.self_ms", "ms"),
    ("wasi.calls_n", "count"),
    ("op.unattributed_ms", "ms"),
    ("op.overlap_ms", "ms"),
    ("op.wall_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
)

#: setup_s is the median of this many fresh-interpreter set-ups per run:
#: the measured worker's own, and set-up-only workers split evenly before
#: and after the measured window, so one slow stretch of the host does
#: not hold every sample.
SETUP_SAMPLES = 7
#: The speed probe's CPU time at the reference host speed. An op that
#: took ``t`` ms while the probes read ``p`` ms is reported as
#: ``t * PROBE_REFERENCE_MS / p`` ms. 0.5 ms is about the probe's median
#: on the 2-vCPU VM of STEADINESS.md, so figures read about as raw ones.
PROBE_REFERENCE_MS = 0.5
#: An op's probe reading is the median of this many probes on each side
#: of it: near enough in time to follow the host, and no single stray
#: probe sets it.
PROBE_WINDOW = 2
#: Per op, the layer rows plus op.unattributed must sum to the op wall
#: within this share of it.
SUM_TOLERANCE = 0.001
#: Budget for one worker beyond its measured window.
WORKER_SLACK_S = 60.0


class BenchError(Exception):
    """A worker did not produce a result."""


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (statistics' "inclusive" method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def build() -> None:
    """Byte-compile the sources, so import time never includes compiling."""
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(str(directory), quiet=1)


def spawn(workload: str, mode: str, inputs_blob: bytes, seconds: float = 0,
          quota: int = 0, spans_out: str = "") -> dict:
    """Run one worker in a fresh interpreter; return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--mode", mode,
               "--seconds", repr(seconds), "--quota", str(quota)]
    if spans_out:
        command += ["--spans-out", spans_out]
    t0 = time.monotonic()
    completed = subprocess.run(
        command + ["--t0", repr(t0)], input=inputs_blob,
        stdout=subprocess.PIPE, cwd=str(ROOT),
        timeout=seconds + WORKER_SLACK_S, check=False)
    lines = completed.stdout.decode("utf-8", "replace").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker exited "
                         f"{completed.returncode}")
    return json.loads(lines[-1])


def op_probes(probes_ms: list, ops: list) -> list:
    """The probe reading of each op whose index ``ops`` lists.

    ``probes_ms[k]`` was taken just before op ``k``, and the last one
    after the last op.
    """
    return [statistics.median(
        probes_ms[max(0, index + 1 - PROBE_WINDOW):index + 1 + PROBE_WINDOW])
        for index in ops]


def at_reference_speed(times, probes_ms) -> list:
    """Each time scaled from its probe's host speed to the reference one."""
    return [value * PROBE_REFERENCE_MS / probe
            for value, probe in zip(times, probes_ms)]


def _per_op(total: float, ops: int, scale: float = 1.0) -> float:
    return total * scale / ops if ops else 0.0


def _host(result: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": result["host_before"]["loadavg"],
        "loadavg_after": result["host_after"]["loadavg"],
        "steal_share": result["steal_share"],
        "probe_ms_before": result["probes_ms"][0],
        "probe_ms_after": result["probes_ms"][-1],
    }


def _setup_samples(workload: str, inputs_blob: bytes, count: int) -> list:
    return [spawn(workload, "setup", inputs_blob) for _ in range(count)]


def measured_run(workload: str, seconds: float, inputs_blob: bytes):
    before = (SETUP_SAMPLES - 1) // 2
    setups = _setup_samples(workload, inputs_blob, before)
    result = spawn(workload, "measure", inputs_blob, seconds=seconds)
    setups.append(result)
    setups += _setup_samples(workload, inputs_blob,
                             SETUP_SAMPLES - 1 - before)
    setup_raw = [setup["setup_s"] for setup in setups]
    setup_probes = [setup["setup_probe_ms"] for setup in setups]
    completed = result["attempted"] - result["failed"]
    probes = op_probes(result["probes_ms"], result["correct_ops"])
    latencies = at_reference_speed(result["latencies_ms"], probes)
    cpu = at_reference_speed(result["cpu_ms"], probes)
    values = {
        "ops_per_s": _per_op(completed, sum(latencies), 1e3),
        "lat_p50_ms": quantile(latencies, 0.50),
        "lat_p90_ms": quantile(latencies, 0.90),
        "cpu_ms_per_op": _per_op(sum(cpu), completed),
        "setup_s": statistics.median(at_reference_speed(setup_raw,
                                                        setup_probes)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {
        "workload": workload,
        "window_s": result["window_s"],
        "ops_by_kind": result["kinds"],
        "raw": {
            "ops_per_wall_s": completed / result["window_s"],
            "lat_p50_ms": quantile(result["latencies_ms"], 0.50),
            "lat_p90_ms": quantile(result["latencies_ms"], 0.90),
            "cpu_ms_per_op": _per_op(result["cpu_s"], completed, 1e3),
            "setup_s": statistics.median(setup_raw),
        },
        "probe_ms": {"min": min(probes, default=0.0),
                     "median": quantile(probes, 0.5),
                     "max": max(probes, default=0.0)},
        "setup_samples_s": setup_raw,
        "setup_probe_ms": setup_probes,
        "host": _host(result),
        "first_failures": result["failures"],
    }
    return result, values, details


def _counter_delta(result: dict, group: str, name: str) -> float:
    """Window delta of one program counter (0 where the workload has none)."""
    before = result["counters_before"].get(group, {}).get(name, 0)
    return result["counters_after"].get(group, {}).get(name, 0) - before


def layer_metrics(traced: dict) -> dict:
    """The per-layer table (per-op means) of one traced run.

    Span rows are averaged over the traced (even) ops; program counters
    over every op of the window.
    """
    attribution = traced["attribution"]
    rows = attribution["rows"]
    ops = (traced["attempted"] + 1) // 2
    attempted = traced["attempted"]
    empty = {"self_s": 0.0, "incl_s": 0.0, "n": 0, "amount": 0}

    def row(name: str) -> dict:
        return rows.get(name, empty)

    def self_ms(*names: str) -> float:
        return _per_op(sum(row(name)["self_s"] for name in names), ops, 1e3)

    def layer_ms(layer: str) -> float:
        return self_ms(*(name for name in rows
                         if name.split(".")[0] == layer))

    def count(*names: str) -> float:
        return _per_op(sum(row(name)["n"] for name in names), ops)

    def kilobytes(*names: str) -> float:
        return _per_op(sum(row(name)["amount"] for name in names), ops,
                       1 / 1024)

    hits = _counter_delta(traced, "code_cache", "hits")
    lookups = hits + _counter_delta(traced, "code_cache", "misses")
    presented = traced["kinds"].get("returning", 0)
    honoured = _counter_delta(traced, "gateway", "cache_hits")
    return {
        "sim_ms_per_op": _per_op(traced["sim_ns"], attempted, 1e-6),
        "crypto.self_ms": layer_ms("crypto"),
        "crypto.gcm_key_ms": self_ms("crypto.gcm_key"),
        "crypto.gcm_key_n": count("crypto.gcm_key"),
        "crypto.gcm_bulk_ms": self_ms("crypto.gcm_bulk"),
        "crypto.gcm_kb": kilobytes("crypto.gcm_bulk"),
        "crypto.ecdh_ms": self_ms("crypto.ecdh"),
        "crypto.ecdsa_sign_ms": self_ms("crypto.ecdsa_sign"),
        "crypto.ecdsa_verify_ms": self_ms("crypto.ecdsa_verify"),
        "crypto.ecdsa_verify_n": count("crypto.ecdsa_verify"),
        "crypto.cmac_ms": self_ms("crypto.cmac"),
        "core.self_ms": layer_ms("core"),
        "core.protocol_ms": self_ms("core.protocol"),
        "core.attester_ms": self_ms("core.attester"),
        "core.verifier_ms": self_ms("core.verifier", "core.server"),
        "core.wasi_ra_ms": self_ms("core.wasi_ra"),
        "core.runtime_ms": self_ms("core.runtime"),
        "core.wait_ms": _per_op(row("core.wait")["incl_s"], ops, 1e3),
        "appraisal.self_ms": layer_ms("appraisal"),
        "fleet.self_ms": layer_ms("fleet"),
        "fleet.handoff_ms": _per_op(attribution["handoff_s"], ops, 1e3),
        "fleet.ticket_hit_frac": honoured / presented if presented else 0.0,
        "fleet.refused_n": _per_op(
            _counter_delta(traced, "gateway", "refusals"), attempted),
        "wasm.decode_ms": self_ms("wasm.decode"),
        "wasm.validate_ms": self_ms("wasm.validate"),
        "wasm.compile_ms": self_ms("wasm.compile"),
        "wasm.compile_fn_n": count("wasm.compile"),
        "wasm.instantiate_ms": self_ms("wasm.instantiate"),
        "wasm.exec_ms": self_ms("wasm.exec"),
        "wasm.cache_hit_frac": hits / lookups if lookups else 0.0,
        "optee.self_ms": layer_ms("optee"),
        "optee.invoke_n": count("optee.invoke"),
        "optee.copy_kb": kilobytes("optee.shm", "optee.socket"),
        "hw.smc_n": count("hw.world"),
        "hw.self_ms": layer_ms("hw"),
        "wasi.self_ms": layer_ms("wasi"),
        "wasi.calls_n": count("wasi.call"),
        "op.unattributed_ms": self_ms("op"),
        "op.overlap_ms": _per_op(attribution["overlap_s"], ops, 1e3),
        "op.wall_ms": _per_op(attribution["wall_s"], ops, 1e3),
        "obs.trace_overhead_frac": trace_overhead(
            traced["traced_untraced_ms"]),
    }


def trace_overhead(groups: dict) -> float:
    """Median over op groups of traced p50 / untraced p50, minus one.

    Traced and untraced ops alternate in one process, and each group's
    ops share their inputs, so neither host drift nor the op mix enters
    the comparison.
    """
    ratios = [quantile(traced, 0.5) / quantile(untraced, 0.5)
              for traced, untraced in groups.values() if traced and untraced]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def traced_run(workload: str, seconds: float, inputs_blob: bytes,
               seed: int):
    spans_dir = ROOT / ".bench_build" / "attestbench"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_out = spans_dir / f"spans-{workload}-{seed}.json"
    # Half the window traced, then the same ops replayed untraced, so a
    # traced run costs about what a measured one does.
    traced = spawn(workload, "trace", inputs_blob, seconds=seconds / 2,
                   spans_out=str(spans_out))
    # Same-path check: the traced run's exact op sequence, untraced, in a
    # fresh process, must leave identical program-visible counters.
    replay = spawn(workload, "replay", inputs_blob, seconds=seconds,
                   quota=traced["attempted"])
    same_path = {
        "ops_identical": traced["ops_digest"] == replay["ops_digest"],
        "counters_identical":
            traced["counters_after"] == replay["counters_after"],
        "traced": traced["counters_after"],
        "untraced": replay["counters_after"],
    }
    attribution = traced["attribution"]
    sum_check = {
        "tolerance_frac_per_op": SUM_TOLERANCE,
        "max_residual_frac": attribution["max_residual_frac"],
        "orphan_spans": attribution["orphans"],
        "passed": attribution["max_residual_frac"] <= SUM_TOLERANCE
        and attribution["orphans"] == 0,
    }
    values = layer_metrics(traced)
    result = {**traced, "failed": traced["failed"] + replay["failed"],
              "failures": traced["failures"] + replay["failures"]}
    details = {
        "workload": workload,
        "window_s": traced["window_s"],
        "ops_by_kind": traced["kinds"],
        "same_path": same_path,
        "sum_check": sum_check,
        "missing_targets": traced["missing_targets"],
        "rows_ms_per_op": {
            name: round(_per_op(row["self_s"], (traced["attempted"] + 1) // 2,
                                1e3), 4)
            for name, row in sorted(attribution["rows"].items())},
        "spans_file": str(spans_out.relative_to(ROOT)),
        "host": _host(traced),
        "first_failures": result["failures"],
    }
    checks_passed = same_path["ops_identical"] and \
        same_path["counters_identical"] and sum_check["passed"]
    return result, values, details, checks_passed


def execute(workload: str, seed: int, seconds: float, trace: bool,
            inputs: dict = None):
    """One benchmark run; returns (result line, details line, exit code)."""
    if inputs is None:
        inputs = workloads.make_inputs(workload, seed)
    blob = pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL)
    checks_passed = True
    if trace:
        result, values, details, checks_passed = traced_run(
            workload, seconds, blob, seed)
        units = dict(PER_LAYER)
    else:
        result, values, details = measured_run(workload, seconds, blob)
        units = dict(END_TO_END)
    correct = result["failed"] == 0 and checks_passed
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details["seed"] = seed
    for failure in result["failures"]:
        print(f"failed op {failure['op']}: {failure['failure']} "
              f"(input {failure['input']})", file=sys.stderr)
    return line, details, 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("attestbench: the repository sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    build()
    try:
        line, details, code = execute(args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"attestbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Fig. 6: Speedtest1 normalised against native normal-world execution.

Four configurations per test, as in the paper:

* native NW — the pure-Python build of the storage core
  (:class:`~repro.workloads.minidb.wasmcore.DbCore`, baseline 1.0);
* native TA — the same build as a TA. The paper measures 1.31x and
  attributes it to toolchain differences (the normal-world binary is
  optimised for the hardware, the TA devkit build is not); Python cannot
  reproduce a C-toolchain delta, so this configuration applies the
  paper's own measured factor as a documented model (DESIGN.md
  substitution table);
* WAMR — the walc build of the same core, compiled to Wasm, in the normal
  world;
* WaTZ — the same Wasm binary hosted by the runtime TA.

As in the paper, which builds one SQLite source twice, both builds run one
algorithm: every test's checksum must be identical on all three measured
sides (the ``checksums_agree`` gate).

Paper shape: native TA ~1.31x, Wasm ~2.1x (WAMR) and ~2.12x (WaTZ);
write-heavy tests slower than read-heavy (2.23x vs 2.04x); WAMR and WaTZ
indistinguishable.
"""

from __future__ import annotations

import statistics
import time

from repro.bench import format_table, save_json, save_report
from repro.core.runtime import NormalWorldRuntime
from repro.workloads.minidb.speedtest import (
    ALL_TESTS,
    READ_TESTS,
    WRITE_TESTS,
    checksum,
)
from repro.workloads.minidb.wasmcore import DbCore, compile_dbcore

#: The paper runs Speedtest1 at --size 60%; our base scale is 1000 rows.
SCALE = 600

#: The paper's measured native-TA slowdown, applied as a model (see above).
NATIVE_TA_TOOLCHAIN_FACTOR = 1.31

_RUNS = 3

#: Why every shape gate is asserted on any host.
_GATE_REASON = ("the native, WAMR and WaTZ runs share one process and run "
                "one after the other, so the ratios do not depend on the "
                "host's CPU count")

#: Why the checksum gate is asserted on any host.
_CHECKSUM_REASON = ("integer results of one algorithm on every side, so any "
                    "difference is a bug on any host")


def _seconds_and_checksums(test, invoke):
    """Median run time of ``test`` over ``_RUNS``, and each run's checksum."""
    samples, checksums = [], []
    for _ in range(_RUNS):
        for fn, args in test.setup(SCALE):
            invoke(fn, *args)
        started = time.perf_counter()
        results = [invoke(fn, *args) for fn, args in test.run(SCALE)]
        samples.append(time.perf_counter() - started)
        checksums.append(checksum(invoke, results))
    samples.sort()
    return samples[len(samples) // 2], checksums


def _measure_all(device):
    binary = compile_dbcore()
    native = DbCore()
    wamr = NormalWorldRuntime().load(binary)
    session = device.open_watz(heap_size=25 * 1024 * 1024)
    loaded = device.load_wasm(session, binary)
    watz_app = session.ta._apps[loaded["app"]]

    results = []
    for test in ALL_TESTS:
        native_s, native_sums = _seconds_and_checksums(test, native.invoke)
        wamr_s, wamr_sums = _seconds_and_checksums(test, wamr.instance.invoke)
        watz_s, watz_sums = _seconds_and_checksums(
            test, watz_app.instance.invoke)
        agree = len(set(native_sums + wamr_sums + watz_sums)) == 1
        results.append((test, native_s, wamr_s, watz_s, agree))
    session.close()
    return results


def test_fig6_speedtest(benchmark, device):
    results = benchmark.pedantic(lambda: _measure_all(device),
                                 rounds=1, iterations=1)
    rows = []
    ratios = {}
    pair_deltas = []
    for test, native_s, wamr_s, watz_s, agree in results:
        ratios[test.number] = (wamr_s / native_s, watz_s / native_s)
        pair_deltas.append(abs(watz_s - wamr_s) / max(wamr_s, 1e-9))
        rows.append((test.number, test.name, test.kind,
                     f"{native_s * 1000:.1f} ms",
                     f"{NATIVE_TA_TOOLCHAIN_FACTOR:.2f}x (modelled)",
                     f"{wamr_s / native_s:.2f}x",
                     f"{watz_s / native_s:.2f}x",
                     "agree" if agree else "DIFFER"))
    read_avg = statistics.mean(ratios[n][1] for n in READ_TESTS)
    write_avg = statistics.mean(ratios[n][1] for n in WRITE_TESTS)
    rows.append(("", "read-test average (paper 2.04x)", "read", "-", "-", "-",
                 f"{read_avg:.2f}x", "-"))
    rows.append(("", "write-test average (paper 2.23x)", "write", "-", "-",
                 "-", f"{write_avg:.2f}x", "-"))
    median_delta = sorted(pair_deltas)[len(pair_deltas) // 2]
    mean_ratio = statistics.mean(r[1] for r in ratios.values())
    mismatches = sum(1 for *_timings, agree in results if not agree)
    gates = {
        "checksums_agree": {
            "metric": "tests whose checksum differs between native, WAMR, "
                      "WaTZ or runs (must equal the threshold)",
            "threshold": 0,
            "value": mismatches,
            "asserted": True,
            "reason": _CHECKSUM_REASON,
        },
        "watz_tracks_wamr": {
            "metric": "median |WaTZ - WAMR| / WAMR over the tests",
            "threshold": 0.20,
            "value": median_delta,
            "asserted": True,
            "reason": _GATE_REASON,
        },
        "writes_suffer_more": {
            "metric": "WaTZ write-test average / read-test average "
                      "(vs native)",
            "threshold": 1.0,
            "value": write_avg / read_avg,
            "asserted": True,
            "reason": _GATE_REASON,
        },
        "wasm_slower_than_native": {
            "metric": "mean WaTZ / native over the tests",
            "threshold": 1.0,
            "value": mean_ratio,
            "asserted": True,
            "reason": _GATE_REASON,
        },
    }
    save_json("BENCH_speedtest", {
        "gates": gates,
        "scale": SCALE,
        "runs": _RUNS,
        "tests": {
            test.name: {
                "kind": test.kind,
                "native_s": native_s,
                "wamr_s": wamr_s,
                "watz_s": watz_s,
                "checksums_agree": agree,
            }
            for test, native_s, wamr_s, watz_s, agree in results
        },
        "read_avg_vs_native": read_avg,
        "write_avg_vs_native": write_avg,
    })
    save_report("fig6_speedtest", format_table(
        f"Fig. 6 — Speedtest1 (scale {SCALE}) normalised to native NW, "
        f"median of {_RUNS}",
        ["test", "name", "kind", "native NW", "native TA", "WAMR", "WaTZ",
         "checksums"],
        rows,
    ))

    # Native, WAMR and WaTZ compute the same answers.
    assert mismatches == 0, gates
    # Shape 1: WaTZ tracks WAMR (the TEE adds no compute cost).
    assert median_delta < 0.20, gates
    # Shape 2: write-heavy tests suffer more than read-heavy ones.
    assert write_avg > read_avg, gates
    # Shape 3: the Wasm build is slower than native overall.
    assert mean_ratio > 1.0, gates

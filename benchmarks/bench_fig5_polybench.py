"""Fig. 5: PolyBench/C performance normalised against native execution.

Three configurations per kernel, as in the paper:

* native — the pure-Python build run directly in the normal world;
* WAMR — the Wasm build on the AOT engine in the normal world;
* WaTZ — the same Wasm binary hosted by the runtime TA in the secure
  world.

The paper's findings: Wasm is ~1.34x slower than native on average, and
WAMR vs WaTZ differ by under 0.02% — TrustZone adds no compute penalty.
The second finding is the architectural one and must reproduce exactly in
shape; the first reproduces in direction (the magnitude depends on the
substituted toolchains — see EXPERIMENTS.md).

The ``BENCH_polybench.json`` artifact records the per-kernel ratios so
future changes can diff the compute-speed trajectory. Each kernel's three
configurations are timed in alternating rounds (native, WAMR, WaTZ, then
again), so a host hiccup lands in one sample of one side, not in a whole
side's median.
"""

from __future__ import annotations

import statistics
import time

from repro.bench import format_table, geometric_mean, save_json, save_report
from repro.core.runtime import NormalWorldRuntime
from repro.walc import compile_source
from repro.workloads.polybench import all_kernels, get_kernel

_ROUNDS = 5
#: Why both shape gates are asserted on any host.
_GATE_REASON = ("native, WAMR and WaTZ run each kernel in this one process, "
                "in alternating rounds, so the ratios do not depend on the "
                "host's CPU count")


def _alternating_medians(operations, rounds=_ROUNDS):
    """Each operation's median seconds, timed one after another in each
    of ``rounds`` rounds."""
    samples = [[] for _ in operations]
    for _ in range(rounds):
        for side, operation in zip(samples, operations):
            started = time.perf_counter()
            operation()
            side.append(time.perf_counter() - started)
    return [statistics.median(side) for side in samples]


def _measure_all(device):
    session = device.open_watz(heap_size=12 * 1024 * 1024)
    normal_world = NormalWorldRuntime()
    results = []
    for kernel in all_kernels():
        size = kernel.default_size
        binary = compile_source(kernel.walc_source(size))

        wamr_app = normal_world.load(binary)
        loaded = device.load_wasm(session, binary)
        app = session.ta._apps[loaded["app"]]
        native_s, wamr_s, watz_s = _alternating_medians((
            lambda: kernel.native(size),
            lambda: normal_world.invoke(wamr_app, "run"),
            lambda: app.instance.invoke("run"),
        ))

        # Cross-check: all three computed the same checksum.
        assert normal_world.invoke(wamr_app, "run") == kernel.native(size) \
            == app.instance.invoke("run")
        results.append((kernel.name, native_s, wamr_s, watz_s))
    session.close()
    return results


def test_fig5_polybench(benchmark, device):
    results = benchmark.pedantic(lambda: _measure_all(device),
                                 rounds=1, iterations=1)
    rows = []
    wamr_ratios, watz_ratios, pair_deltas = [], [], []
    kernels_json = {}
    for name, native_s, wamr_s, watz_s in results:
        wamr_ratio = wamr_s / native_s
        watz_ratio = watz_s / native_s
        wamr_ratios.append(wamr_ratio)
        watz_ratios.append(watz_ratio)
        pair_deltas.append(abs(watz_s - wamr_s) / wamr_s)
        kernels_json[name] = {
            "native_s": native_s,
            "wamr_s": wamr_s,
            "watz_s": watz_s,
            "wamr_vs_native": wamr_ratio,
            "watz_vs_native": watz_ratio,
        }
        rows.append((name, f"{native_s * 1000:.1f} ms",
                     f"{wamr_ratio:.2f}x", f"{watz_ratio:.2f}x"))
    rows.append(("geo-mean (paper: 1.34x / 1.34x)", "-",
                 f"{geometric_mean(wamr_ratios):.2f}x",
                 f"{geometric_mean(watz_ratios):.2f}x"))
    save_report("fig5_polybench", format_table(
        "Fig. 5 — PolyBench/C normalised to native "
        f"(medians of {_ROUNDS} alternating rounds)",
        ["kernel", "native", "WAMR (normal world)", "WaTZ (secure world)"],
        rows,
    ))
    median_delta = sorted(pair_deltas)[len(pair_deltas) // 2]
    save_json("BENCH_polybench", {
        "rounds": _ROUNDS,
        "kernels": kernels_json,
        "geomean": {
            "wamr_vs_native": geometric_mean(wamr_ratios),
            "watz_vs_native": geometric_mean(watz_ratios),
        },
        "gates": {
            "watz_slower_than_native": {
                "metric": "min WaTZ / native seconds over the kernels",
                "threshold": 1.0,
                "value": min(watz_ratios),
                "asserted": True,
                "reason": _GATE_REASON,
            },
            "watz_tracks_wamr": {
                "metric": "median |WaTZ - WAMR| / WAMR seconds",
                "threshold": 0.10,
                "value": median_delta,
                "asserted": True,
                "reason": _GATE_REASON,
            },
        },
    })

    # Headline shape 1: Wasm is slower than native for every kernel.
    assert all(ratio > 1.0 for ratio in watz_ratios)
    # Headline shape 2: WaTZ tracks WAMR closely — TrustZone itself adds
    # no computational slowdown (paper: <0.02%; we allow scheduler noise).
    assert median_delta < 0.10, median_delta


# -- CI perf smoke: AOT vs the interpreter on a 3-kernel subset ---------------

_SMOKE_KERNELS = ["gemm", "atax", "jacobi-1d"]
#: A1's interpreter-friendly sizes (``bench_ablation_aot.py``).
_SMOKE_SCALE_DIVISOR = 3
#: Geo-mean floor of the AOT speed-up over the interpreter. A1 measures
#: 68-104x per kernel on these three; 10x is the paper's "order of
#: magnitude" with room for noisy runners.
_SMOKE_FLOOR = 10.0


def test_polybench_opt_smoke():
    """CI gate: AOT must stay an order of magnitude faster than the
    interpreter on a representative subset (dense matmul, sparse-ish
    vector kernel, stencil), with both engines' checksums matching the
    native build. Writes ``BENCH_polybench_smoke.json``.

    Both engines run in this one process on the same core, so the ratio
    means the same on any CPU count and the gate is always asserted."""
    from repro.wasm import AotCompiler, Interpreter

    kernels_json = {}
    for name in _SMOKE_KERNELS:
        kernel = get_kernel(name)
        size = max(6, kernel.default_size // _SMOKE_SCALE_DIVISOR)
        binary = compile_source(kernel.walc_source(size))
        seconds = {}
        for engine in (Interpreter(), AotCompiler()):
            instance = engine.instantiate(binary)
            started = time.perf_counter()
            checksum = instance.invoke("run")
            seconds[engine.name] = time.perf_counter() - started
            assert checksum == kernel.native(size), (name, engine.name)
        kernels_json[name] = {
            "size": size,
            "interpreter_s": seconds["interpreter"],
            "aot_s": seconds["aot"],
            "aot_speedup": seconds["interpreter"] / seconds["aot"],
        }
    geo = geometric_mean([k["aot_speedup"] for k in kernels_json.values()])
    save_json("BENCH_polybench_smoke", {
        "kernels": kernels_json,
        "geomean_aot_speedup": geo,
        "gate": {
            "metric": "geomean_aot_speedup",
            "threshold": _SMOKE_FLOOR,
            "asserted": True,
            "reason": "both engines run in one process, so the ratio "
                      "does not depend on the host's CPU count",
        },
    })
    assert geo >= _SMOKE_FLOOR, kernels_json

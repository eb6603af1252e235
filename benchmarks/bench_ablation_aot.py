"""Ablation A1: AOT versus interpreted execution.

The paper's justification for extending OP-TEE with executable pages:
"The AOT execution speed is on average 28x faster than with
interpretation" (§III). This ablation runs a PolyBench subset on the two
engines the paper compares — the interpreter and the AOT engine.
"""

from __future__ import annotations

import time

from repro.bench import format_table, geometric_mean, save_json, save_report
from repro.walc import compile_source
from repro.wasm import AotCompiler, Interpreter
from repro.workloads.polybench import get_kernel

_KERNELS = ["gemm", "atax", "jacobi-1d", "floyd-warshall", "durbin",
            "trisolv"]
_SCALE_DIVISOR = 3  # interpreter-friendly sizes
#: Why both gates are asserted on any host.
_GATE_REASON = ("both engines run each kernel in this one process on the "
                "same core, so the ratio does not depend on the host's CPU "
                "count; the checksum comparison is exact")


def _timed(instance):
    started = time.perf_counter()
    result = instance.invoke("run")
    return result, time.perf_counter() - started


def _measure():
    results = []
    for name in _KERNELS:
        kernel = get_kernel(name)
        size = max(6, kernel.default_size // _SCALE_DIVISOR)
        binary = compile_source(kernel.walc_source(size))
        aot = AotCompiler().instantiate(binary)
        interp = Interpreter().instantiate(binary)
        agree = aot.invoke("run") == interp.invoke("run")

        _, aot_s = _timed(aot)
        _, interp_s = _timed(interp)
        results.append((name, size, aot_s, interp_s, agree))
    return results


def test_ablation_aot_vs_interpreter(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = []
    factors = []
    kernels_json = {}
    for name, size, aot_s, interp_s, agree in results:
        factor = interp_s / aot_s
        factors.append(factor)
        kernels_json[name] = {"size": size, "interpreter_s": interp_s,
                              "aot_s": aot_s, "speedup": factor,
                              "checksums_agree": agree}
        rows.append((name, size, f"{interp_s * 1000:.1f} ms",
                     f"{aot_s * 1000:.1f} ms", f"{factor:.1f}x"))
    overall = geometric_mean(factors)
    rows.append(("geo-mean (paper: ~28x)", "-", "-", "-",
                 f"{overall:.1f}x"))
    save_report("ablation_aot", format_table(
        "A1 — interpreter vs AOT",
        ["kernel", "size", "interpreter", "AOT", "speed-up"], rows,
    ))
    checksums_agree = all(kernel["checksums_agree"]
                          for kernel in kernels_json.values())
    save_json("BENCH_ablation_aot", {
        "kernels": kernels_json,
        "geomean_speedup": overall,
        "gates": {
            "checksums_agree": {
                "metric": "each kernel's checksum, AOT vs interpreter",
                "value": checksums_agree,
                "asserted": True,
                "reason": _GATE_REASON,
            },
            "geomean_speedup": {
                "metric": "geo-mean interpreter / AOT seconds",
                "threshold": 10,
                "value": overall,
                "asserted": True,
                "reason": _GATE_REASON,
            },
        },
    })
    assert checksums_agree, kernels_json
    # The paper's motivation must hold decisively: AOT is an order of
    # magnitude faster, justifying the executable-pages kernel extension.
    assert overall > 10, overall


def test_stock_optee_cannot_run_aot(testbed):
    """The other half of the ablation: without the paper's kernel
    extension, AOT loading is impossible — interpretation would be the
    only option."""
    import pytest

    from repro.errors import TeeAccessDenied
    from repro.workloads.polybench import get_kernel

    device = testbed.create_device(allow_executable_pages=False)
    session = device.open_watz(heap_size=8 * 1024 * 1024)
    kernel = get_kernel("gemm")
    binary = compile_source(kernel.walc_source(8))
    with pytest.raises(TeeAccessDenied):
        device.load_wasm(session, binary)

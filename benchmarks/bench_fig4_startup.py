"""Fig. 4: startup breakdown of Wasm applications in WaTZ.

The paper loads nine applications of 1-9 MB and reports where the startup
time goes: loading the bytecode ~73%, runtime initialisation ~16%,
memory allocation ~5%, hashing ~4%, with transition / instantiation /
execution each under 1%. The pure-Python AOT engine is much slower than
WAMR's loader, so the binaries are scaled down 8x (0.125-1.125 MB); the
*fractions* are what Fig. 4 reports and what we compare.

The phases are read from outside: each load runs under
``Tracer.observe`` and ``TraceAnalyzer.startup_phases`` splits it from
the spans of the runtime TA's ``CMD_LOAD`` steps. A cold load is forced
by dropping the binary's code-cache entry first.

Each test records its gates (threshold, value, ``asserted`` and a reason)
in its own ``bench_results/BENCH_fig4_*.json`` before asserting them.
"""

from __future__ import annotations

from repro.bench import format_table, save_json, save_report
from repro.obs import Tracer, TraceAnalyzer
from repro.obs.analysis import STARTUP_PHASES
from repro.wasm.codecache import CodeCache, DEFAULT_CACHE
from repro.workloads.startup import build_startup_app

#: 8x scale-down of the paper's 1..9 MB sweep.
SIZES_BYTES = [i * 1024 * 1024 // 8 for i in range(1, 10)]

_PAPER_FRACTIONS = {
    "load": 0.73, "runtime_init": 0.16, "alloc": 0.05, "hash": 0.04,
    "transition": 0.01, "instantiate": 0.01, "execute": 0.01,
}

#: Why the phase-fraction gates hold on any host.
_FRACTION_REASON = ("fractions of one load's own phase times: host speed "
                    "scales every wall-clock phase alike, and decode, "
                    "validate and compile dwarf the other phases by orders "
                    "of magnitude")


def _observed_load(device, session, binary, cold=True, **params):
    """Fig. 4's phases of one ``CMD_LOAD`` of ``binary``, in seconds."""
    if cold:
        DEFAULT_CACHE.invalidate(CodeCache.module_key(binary))
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        device.load_wasm(session, binary, **params)
    (phases,) = TraceAnalyzer(tracer.spans()).startup_phases()
    return phases


def _fractions(phases):
    total = sum(phases.values())
    return {phase: seconds / total for phase, seconds in phases.items()}


def _load_all(device):
    results = []
    for size in SIZES_BYTES:
        binary = build_startup_app(size)
        session = device.open_watz(
            heap_size=min(23 * 1024 * 1024, 4 * len(binary) + (4 << 20)))
        results.append((len(binary), _observed_load(device, session, binary,
                                                    entry="entry")))
        session.close()
    return results


def test_fig4_startup_breakdown(benchmark, device):
    results = benchmark.pedantic(lambda: _load_all(device),
                                 rounds=1, iterations=1)
    rows = []
    for size, load in results:
        fractions = _fractions(load)
        rows.append(
            [f"{size / 1048576:.2f} MB", f"{sum(load.values()):.2f} s"]
            + [f"{fractions[p] * 100:.1f}%" for p in STARTUP_PHASES]
        )
    rows.append(["paper (any size)", "-"]
                + [f"{_PAPER_FRACTIONS[p] * 100:.0f}%" for p in STARTUP_PHASES])
    save_report("fig4_startup", format_table(
        "Fig. 4 — startup breakdown (fraction of total per phase)",
        ["binary", "total", *STARTUP_PHASES], rows,
    ))

    # Shape gates across all sizes: loading dominates, as in the paper;
    # transition and execution are minor phases; startup grows with
    # binary size (roughly linearly).
    all_fractions = [_fractions(load) for _size, load in results]
    load_min = min(fractions["load"] for fractions in all_fractions)
    transition_max = max(f["transition"] for f in all_fractions)
    execute_max = max(f["execute"] for f in all_fractions)
    totals = [sum(load.values()) for _size, load in results]
    gates = {
        "load_dominates": {
            "metric": "smallest load fraction over the nine sizes (must "
                      "exceed the threshold)",
            "threshold": 0.5, "value": round(load_min, 4),
            "asserted": True, "reason": _FRACTION_REASON,
        },
        "transition_minor": {
            "metric": "largest transition fraction over the nine sizes",
            "threshold": 0.1, "value": round(transition_max, 6),
            "asserted": True, "reason": _FRACTION_REASON,
        },
        "execute_minor": {
            "metric": "largest execute fraction over the nine sizes",
            "threshold": 0.1, "value": round(execute_max, 6),
            "asserted": True, "reason": _FRACTION_REASON,
        },
        "startup_grows_with_size": {
            "metric": "startup total of the largest binary over the "
                      "smallest's (must exceed the threshold)",
            "threshold": 4, "value": round(totals[-1] / totals[0], 3),
            "asserted": True,
            "reason": "the binaries grow 9x and loading is linear in "
                      "their size, far above host drift within one sweep",
        },
    }
    save_json("BENCH_fig4_startup", {
        "gates": gates,
        "sizes": [{"bytes": size, "total_s": round(total, 4)}
                  for (size, _load), total in zip(results, totals)],
    })
    assert load_min > 0.5, gates
    assert transition_max < 0.1, gates
    assert execute_max < 0.1, gates
    assert totals[-1] > totals[0] * 4, gates


def test_fig4_hash_overhead_is_small(device):
    """Paper: hashing for attestation adds ~4-5% over plain WAMR loading."""
    binary = build_startup_app(SIZES_BYTES[2])
    session = device.open_watz(heap_size=8 * 1024 * 1024)
    # Cold: the breakdown sweep above already loaded this binary, and a
    # warm hit would collapse the load phase and skew the fraction.
    phases = _observed_load(device, session, binary)
    session.close()
    overhead = (phases["hash"] + phases["transition"]) / sum(phases.values())
    gates = {
        "hash_overhead_small": {
            "metric": "hash + transition time over total startup",
            "threshold": 0.15,
            "value": round(overhead, 6),
            "asserted": True,
            "reason": "a fraction of one load's own phase times; hashing "
                      "is a linear pass, cheaper than decode and compile "
                      "on any host",
        },
    }
    save_json("BENCH_fig4_hash_overhead", {"gates": gates})
    assert overhead < 0.15, gates


def test_fig4_code_cache_cold_vs_warm(device):
    """Fleet steady state: the content-addressed code cache collapses the
    load phase (Fig. 4's dominant bar) on every repeat instantiation."""
    binary = build_startup_app(SIZES_BYTES[1])
    session = device.open_watz(heap_size=8 * 1024 * 1024)
    cold = _observed_load(device, session, binary)
    warm = _observed_load(device, session, binary, cold=False)
    session.close()
    cold_total, warm_total = sum(cold.values()), sum(warm.values())

    def row(label, phases):
        return [label, f"{sum(phases.values()) * 1e3:.2f} ms",
                f"{phases['load'] * 1e3:.2f} ms",
                f"{phases['load'] / (cold['load'] or 1.0) * 100:.0f}%"]

    save_report("fig4_code_cache", format_table(
        "Fig. 4 extension — startup with the content-addressed code cache",
        ["load", "total", "load phase", "load vs cold"],
        [row("cache-cold", cold), row("cache-warm", warm)],
    ))

    # Warm loads skip decode/validate/compile entirely.
    reason = ("two loads of one binary in one process: a warm hit skips "
              "decode, validate and compile, hundreds of times the host "
              "noise between the loads")
    gates = {
        "warm_total_below_cold": {
            "metric": "startup total, warm vs cold (s)",
            "threshold": round(cold_total, 6),
            "value": round(warm_total, 6),
            "asserted": True, "reason": reason,
        },
        "warm_load_below_cold": {
            "metric": "load phase, warm vs cold (s)",
            "threshold": round(cold["load"], 6),
            "value": round(warm["load"], 6),
            "asserted": True, "reason": reason,
        },
    }
    save_json("BENCH_fig4_code_cache", {"gates": gates})
    assert warm_total < cold_total, gates
    assert warm["load"] < cold["load"], gates

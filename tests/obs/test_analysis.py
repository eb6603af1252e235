"""TraceAnalyzer: span-only decompositions that sum exactly."""

import ast
import inspect

import pytest

import repro.obs.analysis as analysis_module
from repro.hw import SimClock
from repro.obs import Tracer, TraceAnalyzer, UNATTRIBUTED
from repro.obs.observe import TARGETS


def _trace():
    clock = SimClock()
    tracer = Tracer(sim_now=clock.now_ns)
    for _ in range(2):
        with tracer.span("fleet.request", world="normal"):
            with tracer.span("hw.smc.enter", world="normal"):
                clock.advance(4000)
            with tracer.span("core.protocol.msg0", world="secure"):
                with tracer.span("wasi.clock_time_get", world="secure"):
                    clock.advance(3000)
                clock.advance(2000)  # msg0 self time, outside any child
            clock.advance(500)  # request self time
    return clock, tracer.drain()


def test_breakdown_rows_sum_exactly_to_root_totals():
    _, spans = _trace()
    analyzer = TraceAnalyzer(spans)
    rows = analyzer.breakdown("fleet.request")
    total_sim = sum(row.sim_ns for row in rows)
    roots = analyzer.named("fleet.request")
    assert total_sim == sum(root.sim_ns for root in roots)
    by_name = {row.name: row for row in rows}
    assert by_name["hw.smc.enter"].sim_ns == 8000
    assert by_name["core.protocol.msg0"].sim_ns == 4000  # self, not 10000
    assert by_name["wasi.clock_time_get"].sim_ns == 6000
    assert by_name[UNATTRIBUTED].sim_ns == 1000  # the roots' own self time
    assert by_name[UNATTRIBUTED] is rows[-1]  # sorted last


def test_total_sim_equals_clock_movement():
    clock, spans = _trace()
    # Every advance happened inside some span, so summed self time equals
    # wall-to-wall virtual clock movement — the acceptance property.
    assert TraceAnalyzer(spans).total_sim_ns() == clock.now_ns()


def test_phase_totals_order_and_counts():
    _, spans = _trace()
    rows = TraceAnalyzer(spans).phase_totals()
    assert rows[0].name == "hw.smc.enter"  # largest self sim time first
    by_name = {row.name: row for row in rows}
    assert by_name["fleet.request"].count == 2
    assert by_name["fleet.request"].sim_ns == 1000


def test_prefixed_matches_dotted_components_only():
    _, spans = _trace()
    analyzer = TraceAnalyzer(spans)
    assert {s.name for s in analyzer.prefixed("hw")} == {"hw.smc.enter"}
    assert analyzer.prefixed("fle") == []  # no partial-component match


def test_wasi_indirection_sums_wasi_self_time():
    _, spans = _trace()
    row = TraceAnalyzer(spans).wasi_indirection()
    assert row.count == 2
    assert row.sim_ns == 6000


def test_format_breakdown_reports_full_share():
    _, spans = _trace()
    text = TraceAnalyzer(spans).format_breakdown("fleet.request")
    assert "100.0%" in text
    assert UNATTRIBUTED in text


def test_orphaned_children_do_not_crash_or_double_count():
    _, spans = _trace()
    # Simulate the ring dropping the roots: children become orphans.
    orphans = [s for s in spans if s.name != "fleet.request"]
    analyzer = TraceAnalyzer(orphans)
    # Everything except the roots' own 2 x 500 ns self time survives.
    assert analyzer.total_sim_ns() == 18000


def test_analyzer_never_reads_the_cost_model():
    """Acceptance criterion: breakdowns must *emerge* from the spans; the
    analyzer must not import or reference the hw cost constants."""
    tree = ast.parse(inspect.getsource(analysis_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    assert not any(name.startswith("repro.hw") for name in imported)
    assert "CostModel" not in imported
    assert "DEFAULT_COSTS" not in imported
    # And no attribute chain reaches the cost model either.
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert "costs" not in names


def test_empty_trace_yields_empty_rows():
    analyzer = TraceAnalyzer([])
    assert analyzer.phase_totals() == []
    assert analyzer.breakdown("anything") == []
    assert analyzer.total_sim_ns() == 0
    assert analyzer.wasi_indirection().count == 0


# -- Table III: protocol cost by (role, message, category) --------------------

def test_protocol_costs_count_a_nested_primitive_once():
    tracer = Tracer()
    with tracer.span("core.verifier.Verifier.handle_msg0"):
        with tracer.span("crypto.kdf.derive_session_keys") as derive:
            with tracer.span("crypto.cmac.AesCmac.mac"):
                pass
        with tracer.span("unobserved.helper"):
            with tracer.span("core.protocol.decode_msg0") as decode:
                pass
    with tracer.span("crypto.ecdsa.verify"):  # outside every step
        pass
    costs = TraceAnalyzer(tracer.spans()).protocol_costs()
    assert costs == {("verifier", "msg0", "keygen"): derive.wall_s,
                     ("verifier", "msg0", "memory"): decode.wall_s}


def test_protocol_costs_read_only_names_the_tracer_emits():
    observed = {name for *_, name, _, _ in TARGETS if isinstance(name, str)}
    named = set(analysis_module._PRIMITIVES) | set(analysis_module._STEPS)
    assert named <= observed
    assert any(name.startswith(analysis_module._CODEC_PREFIXES)
               for name in observed)


# -- Fig. 4: startup phases per CMD_LOAD ------------------------------------------

def test_startup_phases_take_nested_phases_out_of_their_step():
    clock = SimClock()
    tracer = Tracer(sim_now=clock.now_ns)
    with tracer.span("optee.ta.invoke"):
        with tracer.span("hw.smc.enter"):
            clock.advance(4000)
        with tracer.span("hw.session_dispatch"):
            clock.advance(22000)
        with tracer.span("core.runtime.WatzRuntime._cmd_load"):
            with tracer.span("core.runtime.WatzRuntime._copy") as copy:
                with tracer.span("unobserved.helper"):
                    with tracer.span(
                            "crypto.hashing.IncrementalHash.update") as hashed:
                        pass
            with tracer.span("wasm.runtime.Engine.load") as load:
                with tracer.span("aot.compile"):
                    pass
        with tracer.span("hw.smc.exit"):
            clock.advance(4000)
    (phases,) = TraceAnalyzer(tracer.spans()).startup_phases()
    assert phases["transition"] == 26000 * 1e-9
    assert phases["hash"] == hashed.wall_s
    assert phases["load"] == pytest.approx(
        copy.wall_s - hashed.wall_s + load.wall_s)
    assert phases["alloc"] == phases["execute"] == 0.0
    assert tuple(phases) == analysis_module.STARTUP_PHASES


def test_startup_phases_read_only_names_the_tracer_emits():
    observed = {name for *_, name, _, _ in TARGETS if isinstance(name, str)}
    named = {analysis_module._CMD_LOAD, *analysis_module._LOAD_PHASES,
             *analysis_module._WORLD_ENTRY}
    assert named <= observed

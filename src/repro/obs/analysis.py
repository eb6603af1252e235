"""Derive latency decompositions from recorded spans — and nothing else.

The repo's rule is that derived quantities are never hardcoded: Fig. 3's
world-transition split, Table III's per-message cost matrix, Fig. 4's
startup phases and Table IV's per-phase breakdown must *emerge* from what
actually ran.
:class:`TraceAnalyzer` therefore consumes only
:class:`~repro.obs.tracer.Span` records; no constant from
``repro.hw.costs`` appears here. If an instrumentation hook is missing,
the gap shows up honestly as ``(unattributed)`` instead of being papered
over.

Self-time discipline: a span's *self* time is its duration minus the
durations of its direct children, so summing self times over any subtree
equals the subtree root's total — decompositions add up by construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span

UNATTRIBUTED = "(unattributed)"

#: Table III's cost categories, in the paper's order.
COST_CATEGORIES = ("memory", "keygen", "symmetric", "asymmetric")

#: The category of each primitive span (``repro.obs.observe`` names a
#: span after the function that ran); every wire codec is memory
#: management.
_PRIMITIVES = {
    "crypto.ecdh.generate": "keygen",
    "crypto.ecdh.shared_secret": "keygen",
    "crypto.kdf.derive_session_keys": "keygen",
    "crypto.cmac.AesCmac.mac": "symmetric",
    "crypto.cmac.AesCmac.verify": "symmetric",
    "crypto.gcm.AesGcm.seal": "symmetric",
    "crypto.gcm.AesGcm.open": "symmetric",
    "core.protocol.seal_msg3": "symmetric",
    "core.protocol.open_msg3": "symmetric",
    "crypto.ecdsa.sign": "asymmetric",
    "crypto.ecdsa.verify": "asymmetric",
    "core.evidence.Evidence.encode": "memory",
}
_CODEC_PREFIXES = ("core.protocol.encode_", "core.protocol.decode_")

#: The ``(role, message)`` of each protocol step span.
_STEPS = {
    "core.attester.Attester.start_session": ("attester", "msg0"),
    "core.attester.Attester.make_msg0": ("attester", "msg0"),
    "core.attester.Attester.make_msg0_multi": ("attester", "msg0"),
    "core.attester.Attester.handle_msg1": ("attester", "msg1"),
    "core.attester.Attester.collect_evidence": ("attester", "msg2"),
    "core.attester.Attester.make_msg2": ("attester", "msg2"),
    "core.attester.Attester.make_msg2_multi": ("attester", "msg2"),
    "core.attester.Attester.handle_msg3": ("attester", "msg3"),
    "core.verifier.Verifier.handle_msg0": ("verifier", "msg0"),
    "core.verifier.Verifier._make_msg1": ("verifier", "msg1"),
    "core.verifier.Verifier.handle_msg2": ("verifier", "msg2"),
    "core.verifier.Verifier._seal_msg3": ("verifier", "msg3"),
}


#: Fig. 4's startup phases, in the paper's order.
STARTUP_PHASES = ("transition", "alloc", "runtime_init", "load", "hash",
                  "instantiate", "execute")

_CMD_LOAD = "core.runtime.WatzRuntime._cmd_load"

#: The phase of each step span inside a ``CMD_LOAD``: the copy out of the
#: shared buffer is loading, the SHA-256 it folds each chunk into hashing.
_LOAD_PHASES = {
    "core.runtime.WatzRuntime._alloc": "alloc",
    "core.runtime.WatzRuntime._copy": "load",
    "crypto.hashing.IncrementalHash.update": "hash",
    "crypto.hashing.IncrementalHash.digest": "hash",
    "wasm.runtime.Engine.load": "load",
    "core.runtime.WatzRuntime._runtime_init": "runtime_init",
    "wasm.runtime.Engine.instantiate": "instantiate",
    "core.runtime.WatzRuntime._run": "execute",
}

#: The ``hw.*`` steps that carry a TA command into the secure world.
_WORLD_ENTRY = ("hw.optee_driver", "hw.smc.enter", "hw.session_dispatch")


def _category(name: str) -> Optional[str]:
    if name.startswith(_CODEC_PREFIXES):
        return "memory"
    return _PRIMITIVES.get(name)


@dataclass(frozen=True)
class PhaseRow:
    """One line of a per-phase breakdown."""

    name: str
    count: int
    wall_s: float
    sim_ns: int


class TraceAnalyzer:
    """Span-only analysis: phase breakdowns, WASI indirection, totals."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self._by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        self._children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None and span.parent_id in self._by_id:
                self._children[span.parent_id].append(span)

    # -- primitives -------------------------------------------------------------

    def children(self, span: Span) -> List[Span]:
        return self._children.get(span.span_id, [])

    def self_wall_s(self, span: Span) -> float:
        return max(0.0, span.wall_s
                   - sum(child.wall_s for child in self.children(span)))

    def self_sim_ns(self, span: Span) -> int:
        return max(0, span.sim_ns
                   - sum(child.sim_ns for child in self.children(span)))

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def prefixed(self, prefix: str) -> List[Span]:
        return [span for span in self.spans
                if span.name == prefix or span.name.startswith(prefix + ".")]

    def total_sim_ns(self, prefix: Optional[str] = None) -> int:
        """Summed *self* sim time — equals wall-to-wall clock movement
        when every ``clock.advance`` happened inside some span."""
        spans = self.prefixed(prefix) if prefix else self.spans
        return sum(self.self_sim_ns(span) for span in spans)

    def total_wall_s(self, prefix: Optional[str] = None) -> float:
        spans = self.prefixed(prefix) if prefix else self.spans
        return sum(self.self_wall_s(span) for span in spans)

    # -- decompositions ----------------------------------------------------------

    def phase_totals(self) -> List[PhaseRow]:
        """Self time per span name, largest simulated cost first."""
        counts: Dict[str, int] = defaultdict(int)
        wall: Dict[str, float] = defaultdict(float)
        sim: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
            wall[span.name] += self.self_wall_s(span)
            sim[span.name] += self.self_sim_ns(span)
        rows = [PhaseRow(name, counts[name], wall[name], sim[name])
                for name in counts]
        rows.sort(key=lambda row: (-row.sim_ns, -row.wall_s, row.name))
        return rows

    def _descendants(self, span: Span) -> List[Span]:
        out: List[Span] = []
        frontier = list(self.children(span))
        while frontier:
            node = frontier.pop()
            out.append(node)
            frontier.extend(self.children(node))
        return out

    def breakdown(self, root_name: str) -> List[PhaseRow]:
        """Decompose spans named ``root_name`` into descendant phases.

        Every descendant contributes its *self* time, keyed by span name;
        whatever the roots spent outside any child span is reported as
        ``(unattributed)``. The rows sum exactly to the roots' totals —
        the Table-IV property, derived purely from the trace.
        """
        roots = self.named(root_name)
        counts: Dict[str, int] = defaultdict(int)
        wall: Dict[str, float] = defaultdict(float)
        sim: Dict[str, int] = defaultdict(int)
        root_wall = 0.0
        root_sim = 0
        for root in roots:
            root_wall += root.wall_s
            root_sim += root.sim_ns
            counts[UNATTRIBUTED] += 0
            wall[UNATTRIBUTED] += self.self_wall_s(root)
            sim[UNATTRIBUTED] += self.self_sim_ns(root)
            for node in self._descendants(root):
                counts[node.name] += 1
                wall[node.name] += self.self_wall_s(node)
                sim[node.name] += self.self_sim_ns(node)
        rows = [PhaseRow(name, counts[name], wall[name], sim[name])
                for name in counts]
        rows.sort(key=lambda row: (row.name == UNATTRIBUTED,
                                   -row.sim_ns, -row.wall_s, row.name))
        return rows

    def protocol_costs(self) -> Dict[Tuple[str, str, str], float]:
        """Table III: wall seconds per ``(role, message, category)``.

        A primitive counts toward the message of the innermost protocol
        step around it; one called inside another primitive (the CMAC a
        key derivation runs, the evidence body a codec encodes) counts
        once, inside the outer one's time, and one outside every step
        not at all. The keys are exactly the cells some primitive ran in.
        """
        cells: Dict[Tuple[str, str, str], float] = defaultdict(float)
        for span in self.spans:
            category = _category(span.name)
            if category is None:
                continue
            parent = self._by_id.get(span.parent_id)
            while parent is not None and parent.name not in _STEPS \
                    and _category(parent.name) is None:
                parent = self._by_id.get(parent.parent_id)
            if parent is not None and parent.name in _STEPS:
                cells[_STEPS[parent.name] + (category,)] += span.wall_s
        return dict(cells)

    def startup_phases(self) -> List[Dict[str, float]]:
        """Fig. 4: the seven startup phases, in seconds, of each observed
        ``CMD_LOAD`` in the order the loads finished. A phase is the wall
        time of its step spans less the phase spans nested inside them
        (the hashing inside the copy); the transition is the SimClock
        time of the world-entry steps that carried the command in, the
        ``hw.*`` siblings of the ``CMD_LOAD`` span."""
        loads = []
        for root in self.named(_CMD_LOAD):
            phases = dict.fromkeys(STARTUP_PHASES, 0.0)
            for span in self._descendants(root):
                phase = _LOAD_PHASES.get(span.name)
                if phase is None:
                    continue
                phases[phase] += span.wall_s
                outer = self._by_id.get(span.parent_id)
                while outer is not root and outer.name not in _LOAD_PHASES:
                    outer = self._by_id.get(outer.parent_id)
                if outer is not root:
                    phases[_LOAD_PHASES[outer.name]] -= span.wall_s
            invocation = self._by_id.get(root.parent_id)
            if invocation is not None:
                phases["transition"] = sum(
                    step.sim_ns for step in self.children(invocation)
                    if step.name in _WORLD_ENTRY) * 1e-9
            loads.append(phases)
        return loads

    def wasi_indirection(self) -> PhaseRow:
        """Cost of crossing the WASI shim (Table IV's indirection column)."""
        spans = self.prefixed("wasi")
        return PhaseRow(
            name="wasi",
            count=len(spans),
            wall_s=sum(self.self_wall_s(span) for span in spans),
            sim_ns=sum(self.self_sim_ns(span) for span in spans),
        )

    # -- reporting ---------------------------------------------------------------

    def format_breakdown(self, root_name: str, title: str = "") -> str:
        """The Table-IV-style text block for spans named ``root_name``."""
        from repro.bench.reporting import format_table

        rows = self.breakdown(root_name)
        total_sim = sum(row.sim_ns for row in rows)
        total_wall = sum(row.wall_s for row in rows)
        rendered = []
        for row in rows:
            share = (row.sim_ns / total_sim) if total_sim else 0.0
            rendered.append((
                row.name, row.count, f"{row.sim_ns / 1e3:.1f}",
                f"{share * 100:.1f}%", f"{row.wall_s * 1e3:.3f}",
            ))
        rendered.append(("total", len(self.named(root_name)),
                         f"{total_sim / 1e3:.1f}", "100.0%",
                         f"{total_wall * 1e3:.3f}"))
        return format_table(
            title or f"per-phase breakdown of {root_name!r} (from spans)",
            ["phase", "count", "sim us", "sim share", "wall ms"],
            rendered,
        )

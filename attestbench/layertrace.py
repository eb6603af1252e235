"""Per-layer attribution by timing calls into each layer from outside.

The traced run installs wrappers on the public entry points of every
``repro`` package on the serving path — at class level for methods, and
on every module-level binding for functions — and removes them when it
is done. It attaches nothing to program objects: no ``repro.obs.Tracer``
and no ``CostRecorder``, both of which switch the gateway's batched
ECDSA off. The program therefore takes the path it takes untraced; the
runner proves that with the same-path check.

Each wrapped call records ``(id, parent, op, row, start, end, amount)``
in memory. There is one client, so every span recorded while op ``k``
is in flight belongs to op ``k`` whatever thread it ran on. A span that
opens on a thread with no open span of its own (a gateway worker) takes
the innermost open span of the client thread as its parent: the span
the client is blocked in.

Self time is a span's duration minus the union of its children's
intervals clipped to it, so for every op whose spans all have their
parent in the op::

    sum(layer self times) + op.unattributed = op wall + op.overlap

``op.overlap`` is time during which two traced calls ran at once
(children overlapping each other or outliving their parent). It is 0
when the client thread only ever blocks while another thread works; the
runner requires the rows to sum to the wall within a stated tolerance,
so overlap or orphaned spans fail the check instead of hiding in a row.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

def _nbytes(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _arg(position: int) -> Callable:
    return lambda args, result: args[position]


def _result_len(args, result) -> int:
    return len(result)


#: (module, attribute path, row, amount) — the entry points traced.
#: ``Class.method`` paths are patched on the class; plain names are
#: patched on the defining module and on every module that imported them.
TARGETS: Tuple[tuple, ...] = (
    # crypto
    ("repro.crypto.gcm", "AesGcm.__init__", "crypto.gcm_key", None),
    ("repro.crypto.gcm", "AesGcm.seal", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "AesGcm.open", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "AesGcm.stream_seal", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "AesGcm.stream_open", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmSealStream.update_into", "crypto.gcm_bulk",
     _nbytes(1)),
    ("repro.crypto.gcm", "GcmSealStream.update", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmSealStream.final", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmOpenStream.update", "crypto.gcm_bulk",
     _nbytes(1)),
    ("repro.crypto.gcm", "GcmOpenStream.final", "crypto.gcm_bulk", None),
    ("repro.crypto.ecdh", "generate", "crypto.ecdh", None),
    ("repro.crypto.ecdh", "shared_secret", "crypto.ecdh", None),
    ("repro.crypto.ecdsa", "sign", "crypto.ecdsa_sign", None),
    ("repro.crypto.ecdsa", "verify", "crypto.ecdsa_verify", None),
    ("repro.crypto.batch", "verify_batch", "crypto.ecdsa_batch", None),
    ("repro.crypto.ec", "precompute_public_key", "crypto.ec_tables", None),
    ("repro.crypto.cmac", "AesCmac.mac", "crypto.cmac", None),
    ("repro.crypto.cmac", "AesCmac.verify", "crypto.cmac", None),
    ("repro.crypto.kdf", "derive_session_keys", "crypto.kdf", None),
    ("repro.crypto.fortuna", "Fortuna.random_bytes", "crypto.rng", None),
    ("repro.crypto.fortuna", "Fortuna.reseed", "crypto.rng", None),
    # core
    ("repro.core.protocol", "compute_anchor", "core.protocol", None),
    ("repro.core.protocol", "encode_msg0", "core.protocol", None),
    ("repro.core.protocol", "decode_msg0", "core.protocol", None),
    ("repro.core.protocol", "encode_msg1", "core.protocol", None),
    ("repro.core.protocol", "decode_msg1", "core.protocol", None),
    ("repro.core.protocol", "encode_msg2", "core.protocol", None),
    ("repro.core.protocol", "decode_msg2", "core.protocol", None),
    ("repro.core.protocol", "encode_msg3", "core.protocol", None),
    ("repro.core.protocol", "decode_msg3", "core.protocol", None),
    ("repro.core.protocol", "seal_msg3", "core.protocol", None),
    ("repro.core.protocol", "open_msg3", "core.protocol", None),
    ("repro.core.attester", "Attester.start_session", "core.attester", None),
    ("repro.core.attester", "Attester.make_msg0", "core.attester", None),
    ("repro.core.attester", "Attester.handle_msg1", "core.attester", None),
    ("repro.core.attester", "Attester.collect_evidence", "core.attester",
     None),
    ("repro.core.attester", "Attester.make_msg2", "core.attester", None),
    ("repro.core.attester", "Attester.handle_msg3", "core.attester", None),
    ("repro.core.verifier", "Verifier.handle_msg0", "core.verifier", None),
    ("repro.core.verifier", "Verifier.handle_msg2", "core.verifier", None),
    ("repro.core.server", "VerifierProtocolState.handle", "core.verifier",
     None),
    ("repro.core.evidence", "SignedEvidence.verify_signature",
     "core.verifier", None),
    ("repro.core.server", "VerifierListener.on_message", "core.server",
     None),
    ("repro.core.runtime", "WatzRuntime.invoke", "core.runtime", None),
    ("repro.core.wasi_ra", "build_wasi_ra_imports", "core.wasi_ra",
     "imports"),
    ("repro.core.transport", "ClientConnection.receive", "core.wait", None),
    ("repro.core.transport", "ClientConnection.send", "core.transport",
     None),
    ("repro.core.transport", "ClientConnection.close", "core.transport",
     None),
    ("repro.core.transport", "Network.connect", "core.transport", None),
    # appraisal
    ("repro.appraisal.codecs.trustzone", "appraise_pre_signature",
     "appraisal.trustzone", None),
    ("repro.appraisal.codecs.trustzone", "appraise_post_signature",
     "appraisal.trustzone", None),
    # fleet
    ("repro.fleet.gateway", "AttestationGateway._dispatch", "fleet.dispatch",
     None),
    ("repro.fleet.gateway", "AttestationGateway._serve", "fleet.serve", None),
    ("repro.fleet.gateway", "AttestationGateway._new_connection",
     "fleet.conn", None),
    ("repro.fleet.gateway", "AttestationGateway._connection_closed",
     "fleet.conn", None),
    ("repro.fleet.gateway", "prewarm_msg2_tables", "fleet.prewarm", None),
    ("repro.fleet.cache", "AppraisalCache.redeem", "fleet.cache", None),
    ("repro.fleet.cache", "AppraisalCache.store", "fleet.cache", None),
    ("repro.fleet.sessions", "SessionTable.open", "fleet.sessions", None),
    ("repro.fleet.sessions", "SessionTable.touch", "fleet.sessions", None),
    ("repro.fleet.sessions", "SessionTable.discard", "fleet.sessions", None),
    ("repro.fleet.backpressure", "AdmissionController.admit",
     "fleet.admission", None),
    ("repro.fleet.backpressure", "AdmissionController.release",
     "fleet.admission", None),
    # wasm
    ("repro.wasm.decoder", "decode_module", "wasm.decode", None),
    ("repro.wasm.validation", "validate_module", "wasm.validate", None),
    ("repro.wasm.runtime", "Engine.instantiate", "wasm.instantiate", None),
    ("repro.wasm.aot", "AotCompiler.instantiate", "wasm.instantiate", None),
    ("repro.wasm.aot", "AotCompiler.link_artifact", "wasm.instantiate",
     None),
    ("repro.wasm.aot", "AotCompiler.compile_function", "wasm.compile", None),
    ("repro.wasm.runtime", "Instance.invoke", "wasm.exec", None),
    ("repro.wasm.codecache", "CodeCache.lookup", "wasm.cache", None),
    ("repro.wasm.codecache", "CodeCache.store", "wasm.cache", None),
    # optee
    ("repro.optee.gp_api", "TaSession.invoke", "optee.invoke", None),
    ("repro.optee.gp_api", "TaSession.close", "optee.session", None),
    ("repro.optee.gp_api", "OpTeeClient.open_session", "optee.session",
     None),
    ("repro.optee.gp_api", "OpTeeClient.allocate_shared_memory",
     "optee.shm", None),
    ("repro.optee.gp_api", "GpInternalApi.tcp_connect", "optee.socket",
     None),
    ("repro.optee.gp_api", "GpInternalApi.tcp_send", "optee.socket",
     _nbytes(2)),
    ("repro.optee.gp_api", "GpInternalApi.tcp_receive", "optee.socket",
     _result_len),
    ("repro.optee.gp_api", "GpInternalApi.tcp_close", "optee.socket", None),
    ("repro.optee.sharedmem", "SharedBuffer.write", "optee.shm", _nbytes(2)),
    ("repro.optee.sharedmem", "SharedBuffer.read", "optee.shm", _arg(2)),
    ("repro.optee.sharedmem", "SharedBuffer.free", "optee.shm", None),
    ("repro.optee.attestation_service", "AttestationService.sign_evidence",
     "optee.attest", None),
    ("repro.optee.rng", "KernelRng.random_bytes", "optee.rng", None),
    ("repro.optee.supplicant", "Supplicant.connect", "optee.supplicant",
     None),
    ("repro.optee.supplicant", "Supplicant.send", "optee.supplicant", None),
    ("repro.optee.supplicant", "Supplicant.receive", "optee.supplicant",
     None),
    ("repro.optee.supplicant", "Supplicant.close", "optee.supplicant", None),
    # hw: context managers, timed over the whole ``with`` block
    ("repro.hw.soc", "SoC.enter_secure_world", "hw.world", "context"),
    ("repro.hw.soc", "SoC.rpc_to_normal_world", "hw.world", "context"),
    ("repro.hw.soc", "SoC.read_monotonic_ns", "hw.clock", None),
    # wasi
    ("repro.wasi.host", "build_wasi_imports", "wasi.call", "imports"),
)


class SpanRecorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Id of the op in flight (``None`` between ops: not attributed).
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, row: str) -> list:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1][0]
        elif stack is not self._client_stack:
            try:
                parent = self._client_stack[-1][0]
            except IndexError:
                parent = None
        stack.append((next(self._ids), parent, self.op, row, perf_counter()))
        return stack

    def end(self, stack: list, amount: int = 0) -> None:
        finished = perf_counter()
        span_id, parent, op, row, started = stack.pop()
        self.spans.append((span_id, parent, op, row, started, finished,
                           amount))


class _SpanContext:
    """Wraps a context manager so the span covers the whole block."""

    __slots__ = ("_recorder", "_row", "_inner", "_stack")

    def __init__(self, recorder: SpanRecorder, row: str, inner) -> None:
        self._recorder = recorder
        self._row = row
        self._inner = inner

    def __enter__(self):
        self._stack = self._recorder.begin(self._row)
        try:
            return self._inner.__enter__()
        except BaseException:
            self._recorder.end(self._stack)
            raise

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._recorder.end(self._stack)


def _traced(recorder: SpanRecorder, original, row: str, amount):
    if amount == "context":
        def context(*args, **kwargs):
            return _SpanContext(recorder, row, original(*args, **kwargs))
        return functools.wraps(original)(context)
    if amount == "imports":
        from repro.wasm.runtime import HostFunction

        def factory(*args, **kwargs):
            namespaces = original(*args, **kwargs)
            return {
                module: {name: HostFunction(
                    host.func_type, _traced(recorder, host.fn, row, None),
                    host.name) for name, host in namespace.items()}
                for module, namespace in namespaces.items()}
        return functools.wraps(original)(factory)

    def call(*args, **kwargs):
        stack = recorder.begin(row)
        measured = 0
        try:
            result = original(*args, **kwargs)
            if amount is not None:
                measured = amount(args, result)
            return result
        finally:
            recorder.end(stack, measured)
    return functools.wraps(original)(call)


class LayerTracer:
    """Install the wrappers of :data:`TARGETS`; remove them on uninstall.

    The binding sites are found once, when the tracer is built after the
    workload's set-up has imported everything, so switching tracing on and
    off between ops costs a few hundred ``setattr`` calls. A target the
    program no longer has is listed in ``missing`` (its time then shows in
    the caller's row) instead of failing the run.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.missing: List[str] = []
        self._sites = self._find_sites()

    def _find_sites(self) -> List[tuple]:
        import importlib

        sites = []
        for module_name, path, row, amount in TARGETS:
            try:
                module = importlib.import_module(module_name)
                class_name, _, attribute = path.rpartition(".")
                owner = getattr(module, class_name) if class_name else module
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if owner is not module:
                sites.append((owner, attribute, original,
                              _traced(self.recorder, original, row, amount)))
                continue
            wrapper = _traced(self.recorder, original, row, amount)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        sites.append((loaded, name, original, wrapper))
        return sites

    def install(self) -> None:
        for owner, name, _, wrapper in self._sites:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._sites):
            setattr(owner, name, original)


# --- attribution -------------------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def attribute(spans: List[tuple], ops: List[int]) -> Dict[str, object]:
    """Per-op self time, counts and amounts per row, plus the sum check.

    Returns per-op totals summed over ``ops`` (divide by ``len(ops)`` for
    per-op means) under ``rows`` (``{row: {"self_s", "incl_s", "n",
    "amount"}}``), the handoff time of gateway workers, the op walls, the
    overlap, orphaned spans, and the worst per-op ``|sum of self times -
    wall| / wall``.
    """
    wanted = set(ops)
    by_op: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[2] in wanted:
            by_op[span[2]].append(span)
    rows: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "incl_s": 0.0, "n": 0, "amount": 0})
    totals = {"wall_s": 0.0, "overlap_s": 0.0, "handoff_s": 0.0,
              "orphans": 0, "max_residual_frac": 0.0}
    for op in ops:
        members = by_op.get(op, [])
        index = {span[0]: span for span in members}
        children: Dict[int, List[tuple]] = defaultdict(list)
        root = None
        for span in members:
            if span[3] == "op":
                root = span
            elif span[1] in index:
                children[span[1]].append(span)
            else:
                totals["orphans"] += 1
        if root is None:
            raise ValueError(f"op {op} has no root span")
        wall = root[5] - root[4]
        self_sum = overlap = 0.0
        for span in members:
            if span is not root and span[1] not in index:
                continue
            start, end = span[4], span[5]
            kids = children.get(span[0], ())
            clipped = [(max(kid[4], start), min(kid[5], end)) for kid in kids]
            clipped = [(a, b) for a, b in clipped if b > a]
            covered = _union_length(clipped)
            overlap += sum(kid[5] - kid[4] for kid in kids) - covered
            own = (end - start) - covered
            self_sum += own
            row = rows[span[3]]
            row["self_s"] += own
            row["n"] += 1
            row["amount"] += span[6]
            parent = index.get(span[1])
            if parent is None or parent[3] != span[3]:
                # Not called from its own row: inclusive time counts once.
                row["incl_s"] += end - start
            if span[3] == "fleet.serve" and parent is not None and \
                    parent[3] == "fleet.dispatch":
                totals["handoff_s"] += start - parent[4]
        totals["wall_s"] += wall
        totals["overlap_s"] += overlap
        residual = abs(self_sum - wall) / wall
        totals["max_residual_frac"] = max(totals["max_residual_frac"],
                                          residual)
    return {"rows": dict(rows), **totals}

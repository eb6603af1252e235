"""Outside-in tracing: wrap the stack's entry points, attach nothing.

:func:`observe` (``Tracer.observe``) wraps every entry of :data:`TARGETS`
— methods on their class, functions on every ``repro`` module that binds
them — and restores every original when the ``with`` block exits. The
program never holds a tracer, so a traced run takes the path an untraced
one takes.

With a board (``soc``), a call emits only if its receiver's board is that
board; board-less callees emit only when nested under one of the tracer's
spans on the calling thread, which keeps the attester boards sharing the
process out of the board's SimClock sums. Without a board every call
emits. The SoC charges each world-transition step in its own method, so
every ``clock.advance`` on an observed board lands in a leaf span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from operator import attrgetter
from typing import Iterator, List, Tuple

from repro.obs.tracer import NORMAL, SECURE, Tracer

CALL, INSTANT, IMPORTS = "call", "instant", "imports"


def _request_attrs(args) -> dict:
    gateway, conn_id, data = args[:3]
    return {"conn": conn_id, "kind": gateway._kind(data)}


def _evaluate_attrs(args) -> dict:
    from repro.appraisal.envelope import tee_name

    return {"tee": tee_name(args[1].tee_type)}


def _named_after_the_function(*modules) -> Tuple[tuple, ...]:
    """Board-less ``call`` entries, each span named after the function
    that ran: its module under ``repro`` and its qualified name
    (``crypto.ecdsa.sign``, ``core.attester.Attester.handle_msg1``)."""
    return tuple((module, path, CALL, None,
                  f"{module.partition('.')[2]}.{path}", "", None)
                 for module, paths in modules for path in paths)


#: The wire codecs of :mod:`repro.core.protocol` (Table II).
_CODECS = tuple(f"{verb}_msg{kind}" for kind in (
    "0", "1", "2", "3", "2_encrypted", "0_multi", "1_multi", "2_multi")
    for verb in ("encode", "decode"))

#: The runtime TA's ``CMD_LOAD`` and its steps: with ``Engine.load``/
#: ``instantiate`` and the measurement's hashing, one per Fig. 4 phase.
_LOAD_STEPS = ("_cmd_load", "_alloc", "_copy", "_runtime_init", "_run")

_HW_STEPS = (("_optee_driver", "hw.optee_driver", NORMAL),
             ("_smc_enter", "hw.smc.enter", NORMAL),
             ("_session_dispatch", "hw.session_dispatch", SECURE),
             ("_smc_exit", "hw.smc.exit", SECURE),
             ("_return_path", "hw.return_path", NORMAL),
             ("_kernel_rpc", "hw.kernel_rpc", SECURE),
             ("_clock_read", "hw.clock_read", NORMAL))

#: ``(module, attribute path, kind, board, name, world, attrs)``. ``board``
#: is the path from the receiver (first argument) to its SoC, ``""`` for
#: the SoC itself, ``None`` when board-less. ``name`` is a string or a
#: function of the args; ``attrs`` maps the args (args and result, for an
#: instant) to span attrs.
#: ``call`` times the call, ``instant`` marks its return, and ``imports``
#: wraps every host function of the namespaces it builds as ``name +
#: function``.
TARGETS: Tuple[tuple, ...] = tuple(
    ("repro.hw.soc", f"SoC.{method}", CALL, "", name, world, None)
    for method, name, world in _HW_STEPS) + (
    ("repro.optee.gp_api", "OpTeeClient.open_session", CALL, "kernel.soc",
     "optee.ta.open", "", lambda args: {"ta": args[1]}),
    ("repro.optee.gp_api", "TaSession.invoke", CALL, "_client.kernel.soc",
     "optee.ta.invoke", "",
     lambda args: {"ta": args[0].api.manifest.uuid, "command": args[1]}),
    ("repro.optee.gp_api", "TaSession.close", CALL, "_client.kernel.soc",
     "optee.ta.close", "", lambda args: {"ta": args[0].api.manifest.uuid}),
    ("repro.optee.gp_api", "GpInternalApi._socket_rpc", CALL, "_kernel.soc",
     "optee.socket_rpc", SECURE,
     lambda args: {"payload": args[2] if len(args) > 2 else 0}),
    ("repro.optee.gp_api", "_charge_shared_copy", CALL, "",
     "optee.shared_copy", SECURE, lambda args: {"payload": args[1]}),
    ("repro.optee.gp_api", "GpInternalApi._roundtrip", CALL, "_kernel.soc",
     "net.socket_roundtrip", NORMAL, None),
    ("repro.wasi.host", "build_wasi_imports", IMPORTS, None, "wasi.",
     SECURE, None),
    ("repro.core.wasi_ra", "build_wasi_ra_imports", IMPORTS, None,
     "wasi.ra.", SECURE, None),
    *(("repro.core.runtime", f"WatzRuntime.{step}", CALL, "api._kernel.soc",
       f"core.runtime.WatzRuntime.{step}", SECURE, None)
      for step in _LOAD_STEPS),
    ("repro.core.server", "VerifierProtocolState.handle", CALL, None,
     lambda args: f"core.protocol.msg{args[1][0] & 0x0F}" if args[1]
     else "core.protocol.empty", SECURE, None),
    ("repro.wasm.aot", "AotCompiler.compile_function", CALL, None,
     "aot.compile", "", lambda args: {"func": args[2]}),
    ("repro.wasm.aot", "AotCompiler._make_compiler", CALL, None,
     "aot.analyze", "", None),
    ("repro.wasm.aot", "_FunctionCompiler.compile", CALL, None,
     "aot.codegen", "", None),
    ("repro.wasm.aot", "_pycompile", CALL, None, "aot.pycompile", "", None),
    ("repro.appraisal.engine", "AppraisalEngine.decode", CALL, None,
     "appraisal.decode", NORMAL, lambda args: {"size": len(args[1])}),
    ("repro.appraisal.policy", "PolicyEvaluator.evaluate", CALL, None,
     "appraisal.evaluate", NORMAL, _evaluate_attrs),
    # Inside the device lock: a span opened before it would count other
    # connections' SimClock while this one waits.
    ("repro.fleet.gateway", "AttestationGateway._request", CALL,
     "client.kernel.soc", "fleet.request", "", _request_attrs),
    ("repro.fleet.gateway", "AttestationGateway._new_connection", INSTANT,
     "client.kernel.soc", "fleet.conn.open", "",
     lambda args, conn: {"conn": conn._conn_id}),
    ("repro.fleet.gateway", "AttestationGateway._connection_closed",
     INSTANT, "client.kernel.soc", "fleet.conn.close", "",
     lambda args, result: {"conn": args[1]}),
) + _named_after_the_function(
    ("repro.crypto.ecdh", ("generate", "shared_secret")),
    ("repro.crypto.kdf", ("derive_session_keys",)),
    ("repro.crypto.ecdsa", ("sign", "verify")),
    ("repro.crypto.cmac", ("AesCmac.mac", "AesCmac.verify")),
    ("repro.crypto.gcm", ("AesGcm.seal", "AesGcm.open")),
    ("repro.crypto.hashing", ("IncrementalHash.update",
                              "IncrementalHash.digest")),
    ("repro.wasm.runtime", ("Engine.load", "Engine.instantiate")),
    ("repro.core.evidence", ("Evidence.encode",)),
    ("repro.core.protocol", _CODECS + ("seal_msg3", "open_msg3")),
    ("repro.core.attester", tuple(
        f"Attester.{step}" for step in (
            "start_session", "make_msg0", "make_msg0_multi", "handle_msg1",
            "collect_evidence", "make_msg2", "make_msg2_multi",
            "handle_msg3"))),
    ("repro.core.verifier", tuple(
        f"Verifier.{step}" for step in (
            "handle_msg0", "_make_msg1", "handle_msg2", "_seal_msg3"))),
)


class _Observation:
    """The wrappers of one ``observe`` block and the scope they share."""

    def __init__(self, tracer: Tracer, soc) -> None:
        self.tracer = tracer
        self.soc = soc
        self.active = True

    def wrap(self, original, kind: str, board, name, world: str, attrs):
        tracer = self.tracer
        if board is not None:
            board = attrgetter(board) if board else None
            boardless = False
        else:
            boardless = True

        def wanted(args) -> bool:
            if not self.active:
                return False
            if self.soc is None:
                return True
            if boardless:
                return tracer._nested()
            return (board(args[0]) if board else args[0]) is self.soc

        def start(args, fields):
            return tracer._open(name(args) if callable(name) else name,
                                world, fields)

        def call(*args, **kwargs):
            if not wanted(args):
                return original(*args, **kwargs)
            record = start(args, attrs(args) if attrs else {})
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(record)

        def instant(*args, **kwargs):
            result = original(*args, **kwargs)
            if wanted(args):
                tracer._close(start(args, attrs(args, result)))
            return result

        def imports(*args, **kwargs):
            from repro.wasm.runtime import HostFunction

            return {module: {function: HostFunction(
                host.func_type,
                self.wrap(host.fn, CALL, None, name + function, world, None),
                host.name) for function, host in namespace.items()}
                for module, namespace in original(*args, **kwargs).items()}

        wrapper = {CALL: call, INSTANT: instant, IMPORTS: imports}[kind]
        return functools.wraps(original)(wrapper)


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


@contextmanager
def observe(tracer: Tracer, soc=None) -> Iterator[None]:
    """Trace :data:`TARGETS` into ``tracer`` while the block runs."""
    observation = _Observation(tracer, soc)
    patched: List[tuple] = []
    originals = {}  # id(wrapper) -> original, for module-level functions
    for module_name, path, kind, board, name, world, attrs in TARGETS:
        module = importlib.import_module(module_name)
        class_name, _, attribute = path.rpartition(".")
        owner = getattr(module, class_name) if class_name else module
        original = vars(owner)[attribute]
        wrapper = observation.wrap(original, kind, board, name, world, attrs)
        if owner is module:
            originals[id(wrapper)] = (original, wrapper)
        else:
            patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
    wrappers = {id(original): wrapper
                for original, wrapper in originals.values()}
    for loaded in _repro_modules():
        for binding, value in list(vars(loaded).items()):
            if id(value) in wrappers:
                patched.append((loaded, binding, value))
                setattr(loaded, binding, wrappers[id(value)])
    try:
        yield
    finally:
        observation.active = False
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
        # A module imported while observing may have bound a wrapper.
        for loaded in _repro_modules():
            for binding, value in list(vars(loaded).items()):
                if id(value) in originals:
                    setattr(loaded, binding, originals[id(value)][0])

"""Outside-in tracing: ``Tracer.observe`` patches, scopes and restores.

The program holds no tracer. These tests pin what that design promises:
every patched attribute is the identical original object again after the
block (normal or raising exit), a namespace built while observing stops
emitting once the block ends, a board-scoped observation ignores other
boards, and no module outside ``repro.obs`` names a tracer or a
recorder at all.
"""

import ast
import importlib
import pathlib
import sys

import pytest

from repro.obs import Tracer
from repro.obs.observe import TARGETS
from repro.testbed import Testbed

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Code that must stay free of tracer plumbing (observation is outside):
#: every module under ``src/repro`` except ``repro.obs`` itself.
_TRACER_FREE = tuple(
    path for path in sorted((SRC / "repro").rglob("*.py"))
    if (SRC / "repro" / "obs") not in path.parents)


def _bindings():
    """Every attribute observe() may patch, with its current value."""
    found = {}
    functions = []
    for module_name, path, *_ in TARGETS:
        module = importlib.import_module(module_name)
        class_name, _, attribute = path.rpartition(".")
        if class_name:
            owner = getattr(module, class_name)
            found[(owner, attribute)] = vars(owner)[attribute]
        else:
            functions.append(vars(module)[attribute])
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for binding, value in vars(module).items():
                if any(value is function for function in functions):
                    found[(module, binding)] = value
    return found


def _assert_restored(before):
    for (owner, attribute), original in before.items():
        assert vars(owner)[attribute] is original, (owner, attribute)


def test_observe_restores_every_original_on_normal_exit():
    before = _bindings()
    assert len(before) > len(TARGETS)  # functions bound in several modules
    with Tracer().observe():
        assert any(vars(owner)[attribute] is not original
                   for (owner, attribute), original in before.items())
    _assert_restored(before)


def test_observe_restores_every_original_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().observe():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_namespace_built_while_observing_is_silent_afterwards():
    from repro.wasi import WasiEnvironment
    from repro.wasi import host as wasi_host

    tracer = Tracer()
    env = WasiEnvironment()
    with tracer.observe():
        namespace = wasi_host.build_wasi_imports(env)[wasi_host.WASI_MODULE]
        namespace["sched_yield"].fn(None)
    assert [span.name for span in tracer.drain()] == ["wasi.sched_yield"]
    namespace["sched_yield"].fn(None)
    assert tracer.spans() == []


def test_board_scope_ignores_other_boards_and_unnested_callees():
    from repro.core import protocol

    testbed = Testbed(deterministic_rng=True)
    observed, other = testbed.create_device(), testbed.create_device()
    tracer = Tracer(sim_now=observed.soc.clock.now_ns)
    g_a = b"\x04" * (protocol.POINT_SIZE - 1)
    with tracer.observe(observed.soc):
        with other.soc.enter_secure_world():
            pass
        protocol.encode_msg0(g_a)  # board-less, not nested
        assert tracer.spans() == []
        with tracer.span("root"):
            protocol.encode_msg0(g_a)
        with observed.soc.enter_secure_world():
            pass
    names = [span.name for span in tracer.spans()]
    assert names == ["core.protocol.encode_msg0", "root", "hw.optee_driver",
                     "hw.smc.enter", "hw.session_dispatch", "hw.smc.exit",
                     "hw.return_path"]


def test_serving_path_names_no_tracer():
    assert SRC / "repro" / "fleet" / "gateway.py" in _TRACER_FREE
    offenders = []
    for source in _TRACER_FREE:
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.arg):
                names.append(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                names.append(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            offenders += [f"{source.relative_to(SRC)}:{node.lineno} "
                          f"{name}" for name in names
                          if "tracer" in name.lower()
                          or "recorder" in name.lower()]
    assert offenders == []

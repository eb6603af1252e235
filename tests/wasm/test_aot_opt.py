"""The AOT optimisation passes: generated-code shape, plane coherence.

The differential suite (test_opt_differential.py) pins *behaviour*; this
file pins the *mechanism* — that the optimiser actually emits what it
promises (plane indexing, a hoisted preflight, mask-free induction
arithmetic, loop-invariant hoists, control flow without unwinding
scaffolding, helper-free signed arithmetic, leaf frames), that planes
track ``memory.grow``, and that traps fall back to the byte-identical
safe path.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import TrapError
from repro.walc import compile_source
from repro.wasm import AotCompiler, Interpreter, Memory, ModuleBuilder
from repro.wasm import opcodes as op
from repro.wasm.decoder import decode_module
from repro.wasm.types import F64, I32
from repro.workloads.attested import build_attested_app
from repro.workloads.genann.wasm_impl import build_attested_ann
from repro.workloads.minidb.wasmcore import compile_dbcore
from repro.workloads.polybench import all_kernels


def _f64_stream_kernel() -> bytes:
    """for (i = 0; i < 64; i++) mem_f64[i*8] = mem_f64[i*8] * 2.0 + p0*3.0

    Affine aligned f64 traffic plus a loop-invariant float expression —
    the shape every optimisation pass fires on.
    """
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([F64], []))
    f.add_local(I32)  # i = local 1
    f.i32_const(0).local_set(1)
    f.block()
    f.loop()
    f.local_get(1).i32_const(64).emit(op.I32_LT_S)
    f.emit(op.I32_EQZ).br_if(1)
    f.local_get(1).i32_const(8).emit(op.I32_MUL)       # address
    f.local_get(1).i32_const(8).emit(op.I32_MUL)
    f.emit(op.F64_LOAD, 0)
    f.f64_const(2.0).emit(op.F64_MUL)
    f.local_get(0).f64_const(3.0).emit(op.F64_MUL).emit(op.F64_ADD)
    f.emit(op.F64_STORE, 0)
    f.local_get(1).i32_const(1).emit(op.I32_ADD).local_set(1)
    f.br(0)
    f.end()
    f.end()
    builder.export_function("f", f.index)
    return builder.build()


def _source(binary: bytes) -> str:
    module = decode_module(binary)
    _, source = AotCompiler().compile_artifact(module, 0)
    return source


def _loop_body(source: str) -> str:
    """The lines emitted after the preflight branch (the fast region)."""
    lines = source.splitlines()
    for index, line in enumerate(lines):
        if line.strip().startswith("if ") and "_ml" in line:
            return "\n".join(lines[index:])
    raise AssertionError(f"no preflight found in:\n{source}")


# -- generated-code shape -----------------------------------------------------


@pytest.mark.skipif(not Memory.planes_supported,
                    reason="typed planes need a little-endian host")
def test_opt2_emits_planes_preflight_and_no_masks():
    source = _source(_f64_stream_kernel())
    # One hoisted bounds check per loop entry...
    assert "_ml = len(_m)" in source
    fast = _loop_body(source)
    fast_region, _, safe_region = fast.partition("else:")
    # ...direct f64 plane indexing in the fast region, with no per-access
    # bounds checks and no masks on the induction arithmetic...
    assert "_pD[" in fast_region
    assert "out-of-bounds" not in fast_region
    assert "& 0xFFFFFFFF" not in fast_region
    # ...while the safe copy keeps the per-access bounds checks
    # (planes and range-proven mask drops may appear there too — those
    # passes are sound without the preflight).
    assert "out-of-bounds" in safe_region


def test_opt2_hoists_loop_invariant_expression():
    source = _source(_f64_stream_kernel())
    # p0 * 3.0 is pure and loop-invariant: computed once in a preheader
    # (once per loop version — fast and safe copies each hoist it).
    assert "h0 = " in source
    for line in source.splitlines():
        if "3.0" in line:
            assert line.strip().startswith("h"), line


# -- control lowering and frames on the workload modules ---------------------

_VERIFIER_KEY = bytes([4]) + bytes(range(64))
_WHILE = re.compile(r"while True:  # (block|loop|if) @(\d+)$")


def _workload_modules():
    """(name, decoded module) for every Wasm build the workloads run."""
    for kernel in all_kernels():
        for size in (kernel.default_size, max(1, kernel.default_size // 4)):
            yield (f"{kernel.name}/{size}",
                   decode_module(compile_source(kernel.walc_source(size))))
    yield "dbcore", decode_module(compile_dbcore())
    yield "wasi-ra", decode_module(
        build_attested_app(_VERIFIER_KEY, "verifier", 7000))
    yield "genann", decode_module(
        build_attested_ann(_VERIFIER_KEY, "verifier", 7000))


def _sources(module):
    """(function, generated source) for each local function."""
    base = len(module.imported_funcs)
    for offset, func in enumerate(module.functions):
        yield func, AotCompiler().compile_artifact(module, base + offset)[1]


def _targeted(body) -> set:
    """Opener indices of the constructs some branch targets."""
    open_stack, targeted = [], set()
    for index, instr in enumerate(body):
        if instr.opcode in (op.BLOCK, op.LOOP, op.IF):
            open_stack.append(index)
        elif instr.opcode == op.END and open_stack:
            open_stack.pop()
        elif instr.opcode in (op.BR, op.BR_IF, op.BR_TABLE):
            depths = [instr.arg] if instr.opcode != op.BR_TABLE \
                else list(instr.arg[0]) + [instr.arg[1]]
            targeted.update(open_stack[-1 - depth] for depth in depths
                            if depth < len(open_stack))
    return targeted


def _suite(lines, header: int):
    """The lines of the indented suite under ``lines[header]``."""
    indent = len(lines[header]) - len(lines[header].lstrip())
    suite = []
    for line in lines[header + 1:]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        suite.append(line)
    return suite


def test_workload_codegen_needs_no_unwinding():
    """In every function of every workload build: no ``_br`` unwinding,
    a ``while True`` only for a construct some branch targets, no
    sign-interpretation helper, and no try/finally frame in a leaf."""
    for name, module in _workload_modules():
        for func, source in _sources(module):
            where = (name, source.split("(")[0])
            assert "_br" not in source, where
            assert "_s32(" not in source and "_s64(" not in source, where
            targeted = _targeted(func.body)
            for line in source.splitlines():
                if "while True" in line:
                    match = _WHILE.search(line)
                    assert match and int(match.group(2)) in targeted, \
                        (where, line)
            if not any(instr.opcode in (op.CALL, op.CALL_INDIRECT)
                       for instr in func.body):
                assert "try:" not in source, where
                assert "_inst.call_depth >= " in source, where
            else:
                assert "_inst.enter_call()" in source, where


def test_genann_exp_taylor_loop_is_helper_free():
    """Genann's sigmoid spends its time in ``exp_shared``'s 11-step Taylor
    loop: ``term * r / (i as f64)`` with ``i`` in [1, 11] divides by a
    proven-nonzero float, so neither ``_fdiv`` nor a sign helper runs."""
    module = decode_module(build_attested_ann(_VERIFIER_KEY, "verifier",
                                              7000))
    (source,) = [source for _, source in _sources(module)
                 if "0.6931471805599453" in source]
    lines = source.splitlines()
    header = next(index for index, line in enumerate(lines)
                  if "while True:  # loop" in line)
    taylor = "\n".join(_suite(lines, header))
    assert "/ (float(l" in taylor, taylor
    assert "_fdiv(" not in taylor and "_s32(" not in taylor, taylor


def test_polybench_codegen_is_compact():
    """The 30 quarter-size kernels lower to at least 40% fewer lines than
    the ``while True``/``_br`` capsule lowering's 17,777."""
    lines = 0
    for kernel in all_kernels():
        module = decode_module(compile_source(
            kernel.walc_source(max(1, kernel.default_size // 4))))
        lines += sum(source.count("\n") for _, source in _sources(module))
    assert lines <= 0.6 * 17_777, lines


def test_codegen_is_deterministic():
    # The artifact is cacheable only if a recompile reproduces it.
    binary = _f64_stream_kernel()
    assert _source(binary) == _source(binary)


# -- typed memory planes ------------------------------------------------------


@pytest.mark.skipif(not Memory.planes_supported,
                    reason="typed planes need a little-endian host")
def test_memory_planes_alias_data():
    memory = Memory(1, 2)
    plane = memory.plane("I")
    memory.data[0:4] = (0x44332211).to_bytes(4, "little")
    assert plane[0] == 0x44332211
    plane[1] = 0xDEADBEEF
    assert memory.data[4:8] == (0xDEADBEEF).to_bytes(4, "little")


@pytest.mark.skipif(not Memory.planes_supported,
                    reason="typed planes need a little-endian host")
def test_memory_planes_track_grow():
    memory = Memory(1, 4)
    seen = []
    memory.add_plane_listener(lambda: seen.append(len(memory.data)))
    plane = memory.plane("Q")
    plane[0] = 123
    assert memory.grow(1) == 1
    assert seen, "grow must notify plane listeners"
    fresh = memory.plane("Q")
    assert len(fresh) == len(memory.data) // 8
    assert fresh[0] == 123  # contents carried over


def test_grow_inside_loop_stays_coherent_with_interpreter():
    """A loop that grows memory then writes into the new pages: planes are
    re-requested after every grow, so both engines see the stores."""
    builder = ModuleBuilder()
    builder.add_memory(1, 4)
    f = builder.add_function(builder.add_type([], [I32]))
    f.add_local(I32)  # i
    f.i32_const(0).local_set(0)
    f.block()
    f.loop()
    f.local_get(0).i32_const(3).emit(op.I32_LT_U)
    f.emit(op.I32_EQZ).br_if(1)
    f.i32_const(1).emit(op.MEMORY_GROW).emit(op.DROP)
    # Store into the page that just appeared.
    f.local_get(0).i32_const(65_536).emit(op.I32_MUL)
    f.local_get(0).i32_const(7).emit(op.I32_ADD)
    f.emit(op.I32_STORE, 65_536)
    f.local_get(0).i32_const(1).emit(op.I32_ADD).local_set(0)
    f.br(0)
    f.end()
    f.end()
    # Checksum the three stores.
    f.i32_const(65_536).emit(op.I32_LOAD, 0)
    f.i32_const(131_072).emit(op.I32_LOAD, 0)
    f.emit(op.I32_ADD)
    f.i32_const(196_608).emit(op.I32_LOAD, 0)
    f.emit(op.I32_ADD)
    builder.export_function("f", f.index)
    binary = builder.build()

    expected = Interpreter().instantiate(binary).invoke("f")
    assert AotCompiler().instantiate(binary).invoke("f") == expected


# -- trap fallback ------------------------------------------------------------


def test_preflight_failure_takes_safe_path_and_traps_identically():
    """An OOB loop fails the preflight, runs the safe copy, and traps with
    the interpreter's message at the interpreter's iteration."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([], [I32]))
    f.add_local(I32)
    f.i32_const(0).local_set(0)
    f.block()
    f.loop()
    f.local_get(0).i32_const(20_000).emit(op.I32_LT_U)
    f.emit(op.I32_EQZ).br_if(1)
    f.local_get(0).i32_const(4).emit(op.I32_MUL)
    f.local_get(0).emit(op.I32_STORE, 0)
    f.local_get(0).i32_const(1).emit(op.I32_ADD).local_set(0)
    f.br(0)
    f.end()
    f.end()
    f.local_get(0)
    builder.export_function("f", f.index)
    binary = builder.build()

    memories = []
    for engine in (Interpreter(), AotCompiler()):
        instance = engine.instantiate(binary)
        with pytest.raises(TrapError) as info:
            instance.invoke("f")
        assert str(info.value) == "out-of-bounds memory access"
        memories.append(bytes(instance.memory.data))
    assert memories[0] == memories[1]

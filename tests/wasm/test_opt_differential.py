"""Differential testing of the AOT optimisation passes.

Hypothesis generates random counted-loop programs with linear-memory
traffic directly through :mod:`repro.wasm.builder` — the exact shapes the
optimiser rewrites (affine addresses in an induction local, masked
arithmetic, loop-invariant subexpressions, aligned and misaligned
accesses) plus the shapes that must defeat it (out-of-bounds addresses,
division by zero). Every program runs on the interpreter (the reference
oracle) and on AOT; both must agree on the result value, on trap type
and message, and on the final linear memory. Half the programs are also
called from a loop, which makes them hot: their small counted loops are
then emitted as straight-line copies.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrapError
from repro.wasm import AotCompiler, Interpreter, ModuleBuilder
from repro.wasm import opcodes as op
from repro.wasm.types import I32

_WIDTH_OPS = {
    # width -> (load, store)
    1: (op.I32_LOAD8_U, op.I32_STORE8),
    2: (op.I32_LOAD16_U, op.I32_STORE16),
    4: (op.I32_LOAD, op.I32_STORE),
}

_RELOPS = [op.I32_LT_S, op.I32_LT_U, op.I32_LE_S, op.I32_LE_U]

# Locals of f(base: i32) -> i32.
_BASE, _I, _ACC = 0, 1, 2


@st.composite
def loop_programs(draw):
    """A counted loop over memory: the optimiser's target shape.

    ``f(base)`` initialises ``i``, then loops while ``i <relop> bound``,
    each iteration performing a few stores/loads at ``i*stride + offset``
    (optionally ``+ base``, which turns the hoisted bound symbolic) and
    folding loads into an accumulator; returns the accumulator. ``base``
    also serves as a divisor when a division is drawn, so callers can
    steer execution into the div-by-zero trap.
    """
    init = draw(st.integers(0, 8))
    bound = draw(st.integers(0, 40))
    step = draw(st.integers(1, 4))
    relop = draw(st.sampled_from(_RELOPS))
    add_base = draw(st.booleans())
    divide = draw(st.booleans())
    hot = draw(st.booleans())
    accesses = draw(st.lists(
        st.tuples(
            st.sampled_from([1, 2, 4]),       # access width
            st.sampled_from([1, 2, 4, 8]),    # stride (i multiplier)
            st.integers(0, 64),               # constant offset
            st.booleans(),                    # store (True) or load
        ),
        min_size=1, max_size=5))

    builder = ModuleBuilder()
    builder.add_memory(1, 2)
    type_index = builder.add_type([I32], [I32])
    f = builder.add_function(type_index)
    f.add_local(I32)  # i
    f.add_local(I32)  # acc

    f.i32_const(init).local_set(_I)
    f.block()
    f.loop()
    # Guard: i <relop> bound; eqz; br_if 1.
    f.local_get(_I).i32_const(bound).emit(relop)
    f.emit(op.I32_EQZ).br_if(1)
    for width, stride, offset, is_store in accesses:
        load_op, store_op = _WIDTH_OPS[width]
        # Address: i * stride [+ base].
        f.local_get(_I).i32_const(stride).emit(op.I32_MUL)
        if add_base:
            f.local_get(_BASE).emit(op.I32_ADD)
        if is_store:
            # Value: acc ^ (i + offset), masked by the store width.
            f.local_get(_ACC).local_get(_I).emit(op.I32_XOR)
            f.i32_const(offset).emit(op.I32_ADD)
            f.emit(store_op, offset)
        else:
            f.emit(load_op, offset)
            f.local_get(_ACC).emit(op.I32_ADD).local_set(_ACC)
    if divide:
        # acc = acc / base — traps when invoked with base == 0.
        f.local_get(_ACC).local_get(_BASE).emit(op.I32_DIV_U)
        f.local_set(_ACC)
    # Step, loop.
    f.local_get(_I).i32_const(step).emit(op.I32_ADD).local_set(_I)
    f.br(0)
    f.end()
    f.end()
    f.local_get(_ACC)
    builder.export_function("f", f.index)
    if hot:
        _call_from_a_loop(builder, f.index)
    return builder.build()


def _call_from_a_loop(builder: ModuleBuilder, func_index: int) -> None:
    """Add a function (never run) that calls ``func_index`` inside a
    ``loop``: that makes it hot, so its small counted loops unroll."""
    caller = builder.add_function(builder.add_type([], []))
    caller.loop().i32_const(0).call(func_index).emit(op.DROP).end()


def _outcome(instance, argument):
    try:
        return ("value", instance.invoke("f", argument))
    except TrapError as trap:
        return (type(trap).__name__, str(trap))


# Argument classes: in-bounds bases, a zero divisor, bases near and past
# the end of the one-page memory (exercising both preflight rejection and
# genuine out-of-bounds traps).
_ARGUMENTS = st.one_of(
    st.integers(0, 1024),
    st.just(0),
    st.integers(65_000, 66_000),
    st.integers(0x7FFF_0000, 0x7FFF_FFFF),
)


@settings(max_examples=150, deadline=None)
@given(binary=loop_programs(), argument=_ARGUMENTS)
def test_aot_and_interpreter_agree(binary, argument):
    interp = Interpreter().instantiate(binary)
    optimised = AotCompiler().instantiate(binary)
    assert _outcome(optimised, argument) == _outcome(interp, argument)


@settings(max_examples=60, deadline=None)
@given(binary=loop_programs(), argument=_ARGUMENTS)
def test_aot_and_interpreter_agree_on_final_memory(binary, argument):
    """Beyond the return value: the stores must have landed identically."""
    reference = Interpreter().instantiate(binary)
    optimised = AotCompiler().instantiate(binary)
    if _outcome(reference, argument) != _outcome(optimised, argument):
        raise AssertionError("outcome divergence (covered elsewhere)")
    assert reference.memory.data == optimised.memory.data


@st.composite
def counter_programs(draw):
    """Running counters: ``c`` starts at a constant and steps by a
    constant inside one or two nested counted loops, addressing memory
    as ``c * stride + offset`` (optionally ``+ base``). Steps up to
    2^31 - 1 make some counters' bounds pass 2^32 - 1, so their masked
    addresses wrap; offsets near the page end make others trap."""
    start = draw(st.sampled_from([0, 3, 65_000]))
    step = draw(st.sampled_from([1, 2, 7, 1 << 30, 0x7FFF_FFFF]))
    stride = draw(st.sampled_from([1, 2, 4, 8]))
    offset = draw(st.sampled_from([0, 16, 65_500, 65_532]))
    width = draw(st.sampled_from([1, 2, 4]))
    trips = [draw(st.integers(0, 5))
             for _ in range(draw(st.integers(1, 2)))]
    add_base = draw(st.booleans())
    is_store = draw(st.booleans())
    hot = draw(st.booleans())

    builder = ModuleBuilder()
    builder.add_memory(1, 2)
    f = builder.add_function(builder.add_type([I32], [I32]))
    counter = f.add_local(I32)
    f.i32_const(start).local_set(counter)
    for trip in trips:
        i = f.add_local(I32)
        f.i32_const(0).local_set(i)
        f.block()
        f.loop()
        f.local_get(i).i32_const(trip).emit(op.I32_LT_U)
        f.emit(op.I32_EQZ).br_if(1)
    load_op, store_op = _WIDTH_OPS[width]
    f.local_get(counter).i32_const(stride).emit(op.I32_MUL)
    if add_base:
        f.local_get(_BASE).emit(op.I32_ADD)
    if is_store:
        f.local_get(counter).emit(store_op, offset)
    else:
        f.emit(load_op, offset).emit(op.DROP)
    f.local_get(counter).i32_const(step).emit(op.I32_ADD)
    f.local_set(counter)
    for depth, _ in enumerate(trips):
        i = counter + len(trips) - depth
        f.local_get(i).i32_const(1).emit(op.I32_ADD).local_set(i)
        f.br(0)
        f.end()
        f.end()
    f.local_get(counter)
    builder.export_function("f", f.index)
    if hot:
        _call_from_a_loop(builder, f.index)
    return builder.build()


@settings(max_examples=100, deadline=None)
@given(binary=counter_programs(), argument=_ARGUMENTS)
def test_running_counter_programs_agree(binary, argument):
    """Result or trap, and the final memory, match the interpreter."""
    reference = Interpreter().instantiate(binary)
    optimised = AotCompiler().instantiate(binary)
    assert _outcome(optimised, argument) == _outcome(reference, argument)
    assert reference.memory.data == optimised.memory.data


def _engines():
    return (Interpreter(), AotCompiler())


def test_oob_trap_message_identical_across_engines():
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([I32], [I32]))
    f.local_get(0).emit(op.I32_LOAD, 0)
    builder.export_function("f", f.index)
    binary = builder.build()
    outcomes = set()
    for engine in _engines():
        instance = engine.instantiate(binary)
        with pytest.raises(TrapError) as info:
            instance.invoke("f", 65_536)
        outcomes.add((type(info.value).__name__, str(info.value)))
    assert outcomes == {("TrapError", "out-of-bounds memory access")}


def test_div_by_zero_trap_message_identical_across_engines():
    builder = ModuleBuilder()
    f = builder.add_function(builder.add_type([I32, I32], [I32]))
    f.local_get(0).local_get(1).emit(op.I32_DIV_S)
    builder.export_function("f", f.index)
    binary = builder.build()
    outcomes = set()
    for engine in _engines():
        instance = engine.instantiate(binary)
        with pytest.raises(TrapError) as info:
            instance.invoke("f", 7, 0)
        outcomes.add((type(info.value).__name__, str(info.value)))
    assert outcomes == {("TrapError", "integer divide by zero")}


def test_partial_loop_trap_leaves_identical_memory():
    """A loop that traps mid-flight must keep every pre-trap store (the
    AOT engine must not have entered an unchecked fast path)."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([I32], [I32]))
    f.add_local(I32)  # i
    f.i32_const(0).local_set(1)
    f.block()
    f.loop()
    f.local_get(1).i32_const(40_000).emit(op.I32_LT_U)
    f.emit(op.I32_EQZ).br_if(1)
    # store32 at i*2: traps once i*2+4 passes the 65536-byte page.
    f.local_get(1).i32_const(2).emit(op.I32_MUL)
    f.local_get(1).emit(op.I32_STORE, 0)
    f.local_get(1).i32_const(1).emit(op.I32_ADD).local_set(1)
    f.br(0)
    f.end()
    f.end()
    f.local_get(1)
    builder.export_function("f", f.index)
    binary = builder.build()

    snapshots = []
    for engine in _engines():
        instance = engine.instantiate(binary)
        with pytest.raises(TrapError) as info:
            instance.invoke("f", 0)
        assert str(info.value) == "out-of-bounds memory access"
        snapshots.append(bytes(instance.memory.data))
    assert len(set(snapshots)) == 1

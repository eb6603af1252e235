"""Structured control flow: blocks, loops, branches, select, traps."""

import pytest

from repro.errors import ExhaustionError, TrapError, WasmError
from repro.wasm import AotCompiler, Interpreter, ModuleBuilder
from repro.wasm import opcodes as op
from repro.wasm.types import F64, I32
from tests.wasm.helpers import build_loop_nest, run_single


def test_block_with_result(engine):
    def emit(f):
        f.block(I32)
        f.i32_const(42)
        f.end()

    assert run_single(engine, [], [I32], emit) == 42


def test_br_skips_code(engine):
    def emit(f):
        f.block(I32)
        f.i32_const(1)
        f.br(0)
        f.emit(op.DROP)
        f.i32_const(99)
        f.end()

    assert run_single(engine, [], [I32], emit) == 1


def test_br_out_of_nested_blocks(engine):
    def emit(f):
        f.block(I32)
        f.block()
        f.block()
        f.i32_const(7)
        f.br(2)
        f.end()
        f.end()
        f.i32_const(8)
        f.end()

    assert run_single(engine, [], [I32], emit) == 7


def test_br_if_taken_and_not_taken(engine):
    def emit(f):
        # if arg != 0 return 10 else 20
        f.block(I32)
        f.i32_const(10)
        f.local_get(0)
        f.br_if(0)
        f.emit(op.DROP)
        f.i32_const(20)
        f.end()

    binary_args = [(1, 10), (0, 20), (5, 10)]
    for arg, expected in binary_args:
        assert run_single(engine, [I32], [I32], emit, (arg,)) == expected


def test_loop_countdown(engine):
    def emit(f):
        # while (n != 0) n--; return 123
        f.block()
        f.loop()
        f.local_get(0)
        f.emit(op.I32_EQZ)
        f.br_if(1)
        f.local_get(0)
        f.i32_const(1)
        f.emit(op.I32_SUB)
        f.local_set(0)
        f.br(0)
        f.end()
        f.end()
        f.i32_const(123)

    assert run_single(engine, [I32], [I32], emit, (10,)) == 123


def test_loop_accumulates(engine):
    def emit(f):
        # sum 1..n into local 1
        f.block()
        f.loop()
        f.local_get(0)
        f.emit(op.I32_EQZ)
        f.br_if(1)
        f.local_get(1)
        f.local_get(0)
        f.emit(op.I32_ADD)
        f.local_set(1)
        f.local_get(0)
        f.i32_const(1)
        f.emit(op.I32_SUB)
        f.local_set(0)
        f.br(0)
        f.end()
        f.end()
        f.local_get(1)

    assert run_single(engine, [I32], [I32], emit, (100,),
                      locals=[I32]) == 5050


def test_if_else_both_arms(engine):
    def emit(f):
        f.local_get(0)
        f.if_(I32)
        f.i32_const(111)
        f.else_()
        f.i32_const(222)
        f.end()

    assert run_single(engine, [I32], [I32], emit, (1,)) == 111
    assert run_single(engine, [I32], [I32], emit, (0,)) == 222


def test_if_without_else(engine):
    def emit(f):
        f.local_get(0)
        f.if_()
        f.i32_const(5)
        f.local_set(1)
        f.end()
        f.local_get(1)

    assert run_single(engine, [I32], [I32], emit, (1,), locals=[I32]) == 5
    assert run_single(engine, [I32], [I32], emit, (0,), locals=[I32]) == 0


def test_nested_if_in_loop(engine):
    def emit(f):
        # count even numbers in [0, n)
        f.block()
        f.loop()
        f.local_get(0)
        f.emit(op.I32_EQZ)
        f.br_if(1)
        f.local_get(0)
        f.i32_const(1)
        f.emit(op.I32_SUB)
        f.local_set(0)
        f.local_get(0)
        f.i32_const(2)
        f.emit(op.I32_REM_U)
        f.emit(op.I32_EQZ)
        f.if_()
        f.local_get(1)
        f.i32_const(1)
        f.emit(op.I32_ADD)
        f.local_set(1)
        f.end()
        f.br(0)
        f.end()
        f.end()
        f.local_get(1)

    assert run_single(engine, [I32], [I32], emit, (10,), locals=[I32]) == 5


def test_br_table_dense_dispatch(engine):
    def emit(f):
        f.block(I32)
        f.block()
        f.block()
        f.block()
        f.local_get(0)
        f.emit(op.BR_TABLE, (0, 1), 2)
        f.end()
        f.i32_const(100)
        f.br(2)
        f.end()
        f.i32_const(200)
        f.br(1)
        f.end()
        f.i32_const(300)
        f.end()

    for selector, expected in [(0, 100), (1, 200), (2, 300), (99, 300)]:
        assert run_single(engine, [I32], [I32], emit, (selector,)) == expected


def test_br_out_of_loop_skips_code_after_the_loop(engine):
    """A branch out of a loop to a block with code between the loop's
    end and its own: the exit must skip that code, the loop's fall-
    through must run it."""
    def emit(f):
        f.block()
        f.loop()
        f.local_get(0).emit(op.I32_EQZ).br_if(1)       # n == 0: leave
        f.local_get(1).i32_const(3).emit(op.I32_ADD).local_set(1)
        f.local_get(0).i32_const(1).emit(op.I32_SUB).local_tee(0)
        f.i32_const(5).emit(op.I32_NE).br_if(0)        # n != 5: again
        f.end()
        f.local_get(1).i32_const(1000).emit(op.I32_ADD).local_set(1)
        f.end()
        f.local_get(1)

    assert run_single(engine, [I32], [I32], emit, (3,), locals=[I32]) == 9
    assert run_single(engine, [I32], [I32], emit, (8,),
                      locals=[I32]) == 1009


def test_br_from_inner_loop_to_outer_loop_header(engine):
    """``br 1`` from an inner loop restarts the outer loop."""
    def emit(f):
        f.loop()
        f.local_get(0).emit(op.I32_EQZ)
        f.if_()
        f.local_get(1).ret()
        f.end()
        f.local_get(0).i32_const(1).emit(op.I32_SUB).local_set(0)
        f.loop()
        f.local_get(1).i32_const(1).emit(op.I32_ADD).local_set(1)
        f.local_get(1).i32_const(3).emit(op.I32_REM_U).br_if(1)
        f.local_get(1).i32_const(10).emit(op.I32_ADD).local_set(1)
        f.br(0)
        f.end()
        f.end()
        f.i32_const(0)

    def model(n):
        acc = 0
        while n:
            n -= 1
            while True:
                acc += 1
                if acc % 3:
                    break
                acc += 10
        return acc

    for n in (0, 1, 5, 12):
        assert run_single(engine, [I32], [I32], emit, (n,),
                          locals=[I32]) == model(n)


def test_br_table_targets_both_sides_of_a_loop(engine):
    """One br_table inside a loop continues the loop, leaves to the block
    its end directly follows, or leaves to a block past more code."""
    def emit(f):
        f.block()
        f.block()
        f.loop()
        f.local_get(1).i32_const(1).emit(op.I32_ADD).local_set(1)
        f.local_get(0).i32_const(1).emit(op.I32_SUB).local_tee(0)
        f.i32_const(4).emit(op.I32_REM_U)
        f.emit(op.BR_TABLE, (0, 1, 2), 0)
        f.end()
        f.end()
        f.local_get(1).i32_const(100).emit(op.I32_ADD).local_set(1)
        f.end()
        f.local_get(1)

    def model(n):
        acc = 0
        while True:
            acc += 1
            n = (n - 1) & 0xFFFFFFFF
            if n % 4 == 1:
                return acc + 100
            if n % 4 == 2:
                return acc

    for n in range(8):
        assert run_single(engine, [I32], [I32], emit, (n,),
                          locals=[I32]) == model(n)


@pytest.mark.parametrize("after_loop", [False, True])
def test_br_carries_value_out_of_loop(engine, after_loop):
    """A branch out of a loop carrying the block's result, to a block
    whose end directly follows the loop's, or one with code between."""
    def emit(f):
        f.block(I32)
        f.loop(None if after_loop else I32)
        f.local_get(1).i32_const(7).emit(op.I32_ADD).local_set(1)
        f.local_get(1)
        f.local_get(0).i32_const(1).emit(op.I32_SUB).local_tee(0)
        f.emit(op.I32_EQZ).br_if(1)
        f.emit(op.DROP)
        f.br(0)
        f.end()
        if after_loop:
            f.i32_const(99)
        f.end()

    assert run_single(engine, [I32], [I32], emit, (4,), locals=[I32]) == 28


def test_br_table_empty_targets(engine):
    def emit(f):
        f.block(I32)
        f.block()
        f.local_get(0)
        f.emit(op.BR_TABLE, (), 0)
        f.end()
        f.i32_const(1)
        f.br(0)
        f.end()

    assert run_single(engine, [I32], [I32], emit, (7,)) == 1


def test_return_from_nested_control(engine):
    def emit(f):
        f.block()
        f.loop()
        f.local_get(0)
        f.if_()
        f.i32_const(77)
        f.ret()
        f.end()
        f.br(1)
        f.end()
        f.end()
        f.i32_const(88)

    assert run_single(engine, [I32], [I32], emit, (1,)) == 77
    assert run_single(engine, [I32], [I32], emit, (0,)) == 88


def test_select(engine):
    def emit(f):
        f.i32_const(111)
        f.i32_const(222)
        f.local_get(0)
        f.emit(op.SELECT)

    assert run_single(engine, [I32], [I32], emit, (1,)) == 111
    assert run_single(engine, [I32], [I32], emit, (0,)) == 222


def test_select_floats(engine):
    def emit(f):
        f.f64_const(1.25)
        f.f64_const(2.5)
        f.local_get(0)
        f.emit(op.SELECT)

    assert run_single(engine, [I32], [F64], emit, (0,)) == 2.5


def test_drop(engine):
    def emit(f):
        f.i32_const(1)
        f.i32_const(2)
        f.emit(op.DROP)

    assert run_single(engine, [], [I32], emit) == 1


def test_unreachable_traps(engine):
    def emit(f):
        f.emit(op.UNREACHABLE)

    with pytest.raises(TrapError, match="unreachable"):
        run_single(engine, [], [], emit)


def test_unreachable_after_branch_not_executed(engine):
    def emit(f):
        f.block()
        f.br(0)
        f.emit(op.UNREACHABLE)
        f.end()
        f.i32_const(9)

    assert run_single(engine, [], [I32], emit) == 9


def test_local_tee(engine):
    def emit(f):
        f.i32_const(42)
        f.local_tee(0)
        f.local_get(0)
        f.emit(op.I32_ADD)

    assert run_single(engine, [], [I32], emit, locals=[I32]) == 84


def test_globals(engine):
    builder = ModuleBuilder()
    gidx = builder.add_global(I32, True, 10)
    t = builder.add_type([], [I32])
    f = builder.add_function(t)
    f.global_get(gidx)
    f.i32_const(5)
    f.emit(op.I32_ADD)
    f.global_set(gidx)
    f.global_get(gidx)
    builder.export_function("bump", f.index)
    instance = engine.instantiate(builder.build())
    assert instance.invoke("bump") == 15
    assert instance.invoke("bump") == 20


def test_deep_recursion_traps(engine):
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    f = builder.add_function(t)
    f.local_get(0)
    f.i32_const(1)
    f.emit(op.I32_ADD)
    f.call(f.index)
    builder.export_function("spin", f.index)
    instance = engine.instantiate(builder.build())
    with pytest.raises(TrapError, match="call stack"):
        instance.invoke("spin", 0)


def test_division_by_zero_traps_at_runtime(engine):
    def emit(f):
        f.local_get(0)
        f.local_get(1)
        f.emit(op.I32_DIV_S)

    with pytest.raises(TrapError, match="divide by zero"):
        run_single(engine, [I32, I32], [I32], emit, (10, 0))


def test_trunc_nan_traps_at_runtime(engine):
    def emit(f):
        f.f64_const(float("nan"))
        f.emit(op.I32_TRUNC_F64_S)

    with pytest.raises(TrapError):
        run_single(engine, [], [I32], emit)


#: The deepest loop nest the AOT lowering accepts in a leaf function:
#: CPython's compile() nests at most 20 loops.
MAX_AOT_LOOP_NEST = 20


@pytest.mark.parametrize("depth", [MAX_AOT_LOOP_NEST, MAX_AOT_LOOP_NEST + 1])
def test_loop_nest_limit_is_typed(depth):
    """N nested loops compile on AOT, N+1 fail with a typed WasmError
    naming the function; the interpreter runs both."""
    binary = build_loop_nest(depth)
    assert Interpreter().instantiate(binary).invoke("f", 3) == 3
    if depth <= MAX_AOT_LOOP_NEST:
        assert AotCompiler().instantiate(binary).invoke("f", 3) == 3
        return
    with pytest.raises(WasmError, match="function 0 nests too deeply"):
        AotCompiler().instantiate(binary)

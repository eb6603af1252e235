"""Function calls: direct, indirect, host imports, linking."""

import pytest

from repro.errors import LinkError, TrapError
from repro.wasm import HostFunction, ModuleBuilder
from repro.wasm import opcodes as op
from repro.wasm.runtime import MAX_CALL_DEPTH
from repro.wasm.types import F64, FuncType, I32


def test_direct_call(engine):
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    callee = builder.add_function(t)
    callee.local_get(0)
    callee.i32_const(1)
    callee.emit(op.I32_ADD)
    caller = builder.add_function(t)
    caller.local_get(0)
    caller.call(callee.index)
    caller.call(callee.index)
    builder.export_function("plus2", caller.index)
    instance = engine.instantiate(builder.build())
    assert instance.invoke("plus2", 40) == 42


def test_mutual_recursion(engine):
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    is_even = builder.add_function(t)
    is_odd = builder.add_function(t)
    # is_even(n) = n == 0 ? 1 : is_odd(n-1)
    is_even.local_get(0)
    is_even.emit(op.I32_EQZ)
    is_even.if_(I32)
    is_even.i32_const(1)
    is_even.else_()
    is_even.local_get(0)
    is_even.i32_const(1)
    is_even.emit(op.I32_SUB)
    is_even.call(is_odd.index)
    is_even.end()
    # is_odd(n) = n == 0 ? 0 : is_even(n-1)
    is_odd.local_get(0)
    is_odd.emit(op.I32_EQZ)
    is_odd.if_(I32)
    is_odd.i32_const(0)
    is_odd.else_()
    is_odd.local_get(0)
    is_odd.i32_const(1)
    is_odd.emit(op.I32_SUB)
    is_odd.call(is_even.index)
    is_odd.end()
    builder.export_function("is_even", is_even.index)
    instance = engine.instantiate(builder.build())
    assert instance.invoke("is_even", 10) == 1
    assert instance.invoke("is_even", 7) == 0


def test_void_function_call(engine):
    builder = ModuleBuilder()
    g = builder.add_global(I32, True, 0)
    void_t = builder.add_type([], [])
    setter = builder.add_function(void_t)
    setter.i32_const(99)
    setter.global_set(g)
    reader_t = builder.add_type([], [I32])
    reader = builder.add_function(reader_t)
    reader.call(setter.index)
    reader.global_get(g)
    builder.export_function("go", reader.index)
    instance = engine.instantiate(builder.build())
    assert instance.invoke("go") == 99


def _table_module():
    builder = ModuleBuilder()
    t_i = builder.add_type([I32], [I32])
    double = builder.add_function(t_i)
    double.local_get(0)
    double.i32_const(2)
    double.emit(op.I32_MUL)
    square = builder.add_function(t_i)
    square.local_get(0)
    square.local_get(0)
    square.emit(op.I32_MUL)
    t_f = builder.add_type([], [F64])
    floaty = builder.add_function(t_f)
    floaty.f64_const(3.5)
    builder.add_table(4, 4)
    builder.add_element(0, [double.index, square.index, floaty.index])
    dispatch = builder.add_function(t_i)
    dispatch.i32_const(9)
    dispatch.local_get(0)
    dispatch.emit(op.CALL_INDIRECT, t_i)
    builder.export_function("dispatch", dispatch.index)
    return builder.build()


def test_call_indirect(engine):
    instance = engine.instantiate(_table_module())
    assert instance.invoke("dispatch", 0) == 18
    assert instance.invoke("dispatch", 1) == 81


def test_call_indirect_signature_mismatch_traps(engine):
    instance = engine.instantiate(_table_module())
    with pytest.raises(TrapError, match="signature"):
        instance.invoke("dispatch", 2)  # element 2 is [] -> [f64]


def test_call_indirect_null_element_traps(engine):
    instance = engine.instantiate(_table_module())
    with pytest.raises(TrapError, match="uninitialised"):
        instance.invoke("dispatch", 3)


def test_call_indirect_out_of_bounds_traps(engine):
    instance = engine.instantiate(_table_module())
    with pytest.raises(TrapError, match="out of bounds"):
        instance.invoke("dispatch", 100)


def _import_module():
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    host_index = builder.import_function("env", "add_ten", t)
    f = builder.add_function(t)
    f.local_get(0)
    f.call(host_index)
    builder.export_function("via_host", f.index)
    return builder.build()


def test_host_import_called(engine):
    def add_ten(_instance, value):
        return (value + 10) & 0xFFFFFFFF

    imports = {"env": {"add_ten": HostFunction(
        FuncType((I32,), (I32,)), add_ten)}}
    instance = engine.instantiate(_import_module(), imports)
    assert instance.invoke("via_host", 5) == 15


def test_host_import_receives_instance(engine):
    seen = {}

    def spy(instance, value):
        seen["instance"] = instance
        return value

    imports = {"env": {"spy": HostFunction(FuncType((I32,), (I32,)), spy)}}
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    host = builder.import_function("env", "spy", t)
    f = builder.add_function(t)
    f.local_get(0)
    f.call(host)
    builder.export_function("go", f.index)
    instance = engine.instantiate(builder.build(), imports)
    instance.invoke("go", 1)
    assert seen["instance"] is instance


def test_unresolved_import_fails(engine):
    with pytest.raises(LinkError, match="unresolved"):
        engine.instantiate(_import_module())


def test_import_signature_mismatch_fails(engine):
    imports = {"env": {"add_ten": HostFunction(
        FuncType((I32, I32), (I32,)), lambda *_: 0)}}
    with pytest.raises(LinkError, match="signature"):
        engine.instantiate(_import_module(), imports)


def test_start_function_runs_at_instantiation(engine):
    builder = ModuleBuilder()
    g = builder.add_global(I32, True, 0)
    void_t = builder.add_type([], [])
    init = builder.add_function(void_t)
    init.i32_const(7)
    init.global_set(g)
    reader_t = builder.add_type([], [I32])
    reader = builder.add_function(reader_t)
    reader.global_get(g)
    builder.set_start(init.index)
    builder.export_function("read", reader.index)
    instance = engine.instantiate(builder.build())
    assert instance.invoke("read") == 7


def test_wrong_argument_count_rejected(engine):
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    f = builder.add_function(t)
    f.local_get(0)
    builder.export_function("id", f.index)
    instance = engine.instantiate(builder.build())
    with pytest.raises(TrapError, match="arguments"):
        instance.invoke("id")


def test_export_lookup_errors(engine):
    builder = ModuleBuilder()
    t = builder.add_type([], [])
    f = builder.add_function(t)
    builder.export_function("only", f.index)
    instance = engine.instantiate(builder.build())
    with pytest.raises(LinkError):
        instance.invoke("missing")


def _recursion_module():
    """``depth(n)`` nests ``n + 1`` frames and returns ``n``; ``runaway()``
    calls itself forever."""
    builder = ModuleBuilder()
    depth = builder.add_function(builder.add_type([I32], [I32]))
    depth.local_get(0)
    depth.emit(op.I32_EQZ)
    depth.if_(I32)
    depth.i32_const(0)
    depth.else_()
    depth.local_get(0)
    depth.i32_const(1)
    depth.emit(op.I32_SUB)
    depth.call(depth.index)
    depth.i32_const(1)
    depth.emit(op.I32_ADD)
    depth.end()
    runaway = builder.add_function(builder.add_type([], []))
    runaway.call(runaway.index)
    builder.export_function("depth", depth.index)
    builder.export_function("runaway", runaway.index)
    return builder.build()


def test_call_depth_limit_is_exact(engine):
    instance = engine.instantiate(_recursion_module())
    # MAX_CALL_DEPTH nested frames return ...
    assert instance.invoke("depth", MAX_CALL_DEPTH - 1) == MAX_CALL_DEPTH - 1
    assert instance.call_depth == 0
    # ... and one more traps.
    with pytest.raises(TrapError, match="call stack exhausted"):
        instance.invoke("depth", MAX_CALL_DEPTH)
    assert instance.call_depth == 0


def test_repeated_runaway_recursion_traps_typed(engine):
    """The depth counter must not drift across traps: every runaway call
    on the same instance traps typed, never as a host RecursionError."""
    instance = engine.instantiate(_recursion_module())
    for _ in range(5):
        with pytest.raises(TrapError, match="call stack exhausted"):
            instance.invoke("runaway")
        assert instance.call_depth == 0
    assert instance.invoke("depth", MAX_CALL_DEPTH - 1) == MAX_CALL_DEPTH - 1


def test_call_depth_limit_is_exact_at_a_leaf(engine):
    """The frame at the depth limit is a leaf (a function that calls
    nothing, which AOT checks inline): MAX_CALL_DEPTH frames return, one
    more traps, and the depth counter ends at 0 both times."""
    builder = ModuleBuilder()
    leaf = builder.add_function(builder.add_type([], [I32]))
    leaf.i32_const(1)
    # descend(n) nests n frames of itself, then calls the leaf.
    descend = builder.add_function(builder.add_type([I32], [I32]))
    descend.local_get(0)
    descend.emit(op.I32_EQZ)
    descend.if_(I32)
    descend.call(leaf.index)
    descend.else_()
    descend.local_get(0)
    descend.i32_const(1)
    descend.emit(op.I32_SUB)
    descend.call(descend.index)
    descend.i32_const(1)
    descend.emit(op.I32_ADD)
    descend.end()
    builder.export_function("descend", descend.index)
    instance = engine.instantiate(builder.build())
    # descend(MAX_CALL_DEPTH - 2): MAX_CALL_DEPTH - 1 descend frames and
    # the leaf on top, at exactly MAX_CALL_DEPTH.
    assert instance.invoke("descend", MAX_CALL_DEPTH - 2) == MAX_CALL_DEPTH - 1
    assert instance.call_depth == 0
    with pytest.raises(TrapError, match="call stack exhausted"):
        instance.invoke("descend", MAX_CALL_DEPTH - 1)
    assert instance.call_depth == 0

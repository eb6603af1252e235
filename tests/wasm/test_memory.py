"""Linear memory: typed access, bounds, grow, data segments."""

import struct

import pytest

from repro.errors import TrapError
from repro.wasm import HostFunction, ModuleBuilder, PAGE_SIZE
from repro.wasm import opcodes as op
from repro.wasm.types import F32, F64, I32, I64, FuncType
from tests.wasm.helpers import run_single

_MEM = (1, 4)


def _roundtrip(engine, store, load, rtype, value, expected=None):
    def emit(f):
        f.i32_const(64)
        f.emit(rtype_const(rtype), value)
        f.emit(store, 0)
        f.i32_const(64)
        f.emit(load, 0)

    result = run_single(engine, [], [rtype], emit, memory=_MEM)
    assert result == (value if expected is None else expected)


def rtype_const(rtype):
    return {I32: op.I32_CONST, I64: op.I64_CONST,
            F32: op.F32_CONST, F64: op.F64_CONST}[rtype]


def test_i32_store_load(engine):
    _roundtrip(engine, op.I32_STORE, op.I32_LOAD, I32, 0xDEADBEEF)


def test_i64_store_load(engine):
    _roundtrip(engine, op.I64_STORE, op.I64_LOAD, I64, 0x1122334455667788)


def test_f32_store_load(engine):
    _roundtrip(engine, op.F32_STORE, op.F32_LOAD, F32, 1.5)


def test_f64_store_load(engine):
    _roundtrip(engine, op.F64_STORE, op.F64_LOAD, F64, -2.75)


def test_store8_truncates_and_load8_u(engine):
    _roundtrip(engine, op.I32_STORE8, op.I32_LOAD8_U, I32, 0x1FF, 0xFF)


def test_load8_s_sign_extends(engine):
    def emit(f):
        f.i32_const(0)
        f.i32_const(0x80)
        f.emit(op.I32_STORE8, 0)
        f.i32_const(0)
        f.emit(op.I32_LOAD8_S, 0)

    assert run_single(engine, [], [I32], emit, memory=_MEM) == 0xFFFFFF80


def test_store16_load16(engine):
    _roundtrip(engine, op.I32_STORE16, op.I32_LOAD16_U, I32, 0x18765, 0x8765)


def test_load16_s_sign_extends(engine):
    def emit(f):
        f.i32_const(0)
        f.i32_const(0x8000)
        f.emit(op.I32_STORE16, 0)
        f.i32_const(0)
        f.emit(op.I32_LOAD16_S, 0)

    assert run_single(engine, [], [I32], emit, memory=_MEM) == 0xFFFF8000


def test_i64_partial_loads(engine):
    def emit(f):
        f.i32_const(8)
        f.i64_const(0xFFFFFFFF)
        f.emit(op.I64_STORE32, 0)
        f.i32_const(8)
        f.emit(op.I64_LOAD32_S, 0)

    result = run_single(engine, [], [I64], emit, memory=_MEM)
    assert result == 0xFFFFFFFFFFFFFFFF


def test_static_offset(engine):
    def emit(f):
        f.i32_const(0)
        f.i32_const(77)
        f.emit(op.I32_STORE, 128)
        f.i32_const(128)
        f.emit(op.I32_LOAD, 0)

    assert run_single(engine, [], [I32], emit, memory=_MEM) == 77


def test_little_endian_layout(engine):
    def emit(f):
        f.i32_const(0)
        f.i32_const(0x04030201)
        f.emit(op.I32_STORE, 0)
        f.i32_const(0)
        f.emit(op.I32_LOAD8_U, 0)

    assert run_single(engine, [], [I32], emit, memory=_MEM) == 0x01


def test_out_of_bounds_load_traps(engine):
    def emit(f):
        f.i32_const(PAGE_SIZE - 3)
        f.emit(op.I32_LOAD, 0)

    with pytest.raises(TrapError, match="out-of-bounds"):
        run_single(engine, [], [I32], emit, memory=_MEM)


def test_out_of_bounds_store_traps(engine):
    def emit(f):
        f.i32_const(PAGE_SIZE)
        f.i32_const(1)
        f.emit(op.I32_STORE, 0)

    with pytest.raises(TrapError, match="out-of-bounds"):
        run_single(engine, [], [], emit, memory=_MEM)


def test_offset_overflow_traps(engine):
    def emit(f):
        f.i32_const(0)
        f.emit(op.I32_LOAD, PAGE_SIZE * 8)

    with pytest.raises(TrapError):
        run_single(engine, [], [I32], emit, memory=_MEM)


def test_memory_size_and_grow(engine):
    def emit(f):
        f.emit(op.MEMORY_SIZE)
        f.i32_const(1)
        f.emit(op.MEMORY_GROW)
        f.emit(op.I32_ADD)

    # size(1) + old size from grow(1) = 2
    assert run_single(engine, [], [I32], emit, memory=_MEM) == 2


def test_grow_beyond_max_fails(engine):
    def emit(f):
        f.i32_const(100)
        f.emit(op.MEMORY_GROW)

    assert run_single(engine, [], [I32], emit, memory=_MEM) == 0xFFFFFFFF


def test_grow_makes_new_pages_accessible(engine):
    def emit(f):
        f.i32_const(1)
        f.emit(op.MEMORY_GROW)
        f.emit(op.DROP)
        f.i32_const(PAGE_SIZE + 100)
        f.i32_const(42)
        f.emit(op.I32_STORE, 0)
        f.i32_const(PAGE_SIZE + 100)
        f.emit(op.I32_LOAD, 0)

    assert run_single(engine, [], [I32], emit, memory=_MEM) == 42


def test_caller_sees_the_pages_its_callee_grew(engine):
    """A callee's grow rebinds the typed planes every function reads, so
    the caller's f64 accesses after the call reach the new page."""
    builder = ModuleBuilder()
    builder.add_memory(1, 2)
    grow = builder.add_function(builder.add_type([], []))
    grow.i32_const(1).emit(op.MEMORY_GROW).emit(op.DROP)
    f = builder.add_function(builder.add_type([], [F64]))
    f.i32_const(8).f64_const(1.5).emit(op.F64_STORE, 0)
    f.call(grow.index)
    f.i32_const(PAGE_SIZE + 8).f64_const(2.5).emit(op.F64_STORE, 0)
    f.i32_const(8).emit(op.F64_LOAD, 0)
    f.i32_const(PAGE_SIZE + 8).emit(op.F64_LOAD, 0)
    f.emit(op.F64_ADD)
    builder.export_function("f", f.index)
    assert engine.instantiate(builder.build()).invoke("f") == 4.0


def test_data_segment_initialises_memory(engine):
    builder = ModuleBuilder()
    builder.add_memory(1)
    builder.add_data(10, b"\x2a\x00\x00\x00")
    t = builder.add_type([], [I32])
    f = builder.add_function(t)
    f.i32_const(10)
    f.emit(op.I32_LOAD, 0)
    builder.export_function("read", f.index)
    instance = engine.instantiate(builder.build())
    assert instance.invoke("read") == 42


def test_data_segment_out_of_bounds_traps(engine):
    builder = ModuleBuilder()
    builder.add_memory(1)
    builder.add_data(PAGE_SIZE - 1, b"\x01\x02")
    t = builder.add_type([], [])
    builder.add_function(t)
    with pytest.raises(TrapError):
        engine.instantiate(builder.build())


def test_memory_cap_enforced_at_instantiation(engine):
    builder = ModuleBuilder()
    builder.add_memory(4)
    t = builder.add_type([], [])
    f = builder.add_function(t)
    builder.export_function("noop", f.index)
    with pytest.raises(TrapError, match="heap cap"):
        engine.instantiate(builder.build(), memory_cap_bytes=PAGE_SIZE)


def test_memory_cap_limits_grow(engine):
    builder = ModuleBuilder()
    builder.add_memory(1)
    t = builder.add_type([], [I32])
    f = builder.add_function(t)
    f.i32_const(10)
    f.emit(op.MEMORY_GROW)
    builder.export_function("grow", f.index)
    instance = engine.instantiate(builder.build(),
                                  memory_cap_bytes=2 * PAGE_SIZE)
    assert instance.invoke("grow") == 0xFFFFFFFF


# -- bounds at N and N+1 ------------------------------------------------------
#
# The AOT engine emits no bounds check: an out-of-range access faults in
# the access itself (a typed plane's or the bytearray's IndexError,
# struct.error from unpack_from/pack_into) and the entry maps the fault to
# the interpreter's trap. These pin that boundary on both engines, for
# every access opcode and for each way the AOT engine lowers an address.

#: Access opcode -> (width in bytes, Wasm type of the value).
_ACCESS_OPS = {
    op.I32_LOAD: (4, I32), op.I64_LOAD: (8, I64),
    op.F32_LOAD: (4, F32), op.F64_LOAD: (8, F64),
    op.I32_LOAD8_S: (1, I32), op.I32_LOAD8_U: (1, I32),
    op.I32_LOAD16_S: (2, I32), op.I32_LOAD16_U: (2, I32),
    op.I64_LOAD8_S: (1, I64), op.I64_LOAD8_U: (1, I64),
    op.I64_LOAD16_S: (2, I64), op.I64_LOAD16_U: (2, I64),
    op.I64_LOAD32_S: (4, I64), op.I64_LOAD32_U: (4, I64),
    op.I32_STORE: (4, I32), op.I64_STORE: (8, I64),
    op.F32_STORE: (4, F32), op.F64_STORE: (8, F64),
    op.I32_STORE8: (1, I32), op.I32_STORE16: (2, I32),
    op.I64_STORE8: (1, I64), op.I64_STORE16: (2, I64),
    op.I64_STORE32: (4, I64),
}
_STORE_OPS = {op.I32_STORE, op.I64_STORE, op.F32_STORE, op.F64_STORE,
              op.I32_STORE8, op.I32_STORE16, op.I64_STORE8, op.I64_STORE16,
              op.I64_STORE32}
_STORED = {I32: 0x5A, I64: 0x5A, F32: 1.5, F64: 1.5}
_OOB = "out-of-bounds memory access"


def _bounds_module(code: int, offset: int, constants) -> bytes:
    """One access ``code`` with offset immediate ``offset``, reached three
    ways: ``byte(a)`` at address ``a`` (the struct/bytearray path),
    ``element(k)`` at ``k * width`` (provably aligned: the typed-plane
    path), and ``at<a>()`` at each constant ``a`` (range-bounded: a
    plane indexed by a literal). ``grow()`` adds one page."""
    width, valtype = _ACCESS_OPS[code]
    results = [] if code in _STORE_OPS else [valtype]
    builder = ModuleBuilder()
    builder.add_memory(1, 2)

    def export(name, params, address):
        f = builder.add_function(builder.add_type(params, results))
        address(f)
        if code in _STORE_OPS:
            f.emit(rtype_const(valtype), _STORED[valtype])
        f.emit(code, offset)
        builder.export_function(name, f.index)

    export("byte", [I32], lambda f: f.local_get(0))
    export("element", [I32],
           lambda f: f.local_get(0).i32_const(width).emit(op.I32_MUL))
    for address in constants:
        export(f"at{address}", [], lambda f, a=address: f.i32_const(a))
    grow = builder.add_function(builder.add_type([], [I32]))
    grow.i32_const(1).emit(op.MEMORY_GROW)
    builder.export_function("grow", grow.index)
    return builder.build()


def _stored_bytes(code: int) -> bytes:
    width, valtype = _ACCESS_OPS[code]
    if valtype == F32:
        return struct.pack("<f", _STORED[F32])
    if valtype == F64:
        return struct.pack("<d", _STORED[F64])
    return _STORED[valtype].to_bytes(width, "little")


def _expect_in_bounds(instance, code, end, name, *args):
    """Call ``name``, whose access ends at byte ``end``; a store must
    have written exactly there (cleared again for the next check)."""
    width = _ACCESS_OPS[code][0]
    instance.invoke(name, *args)
    if code in _STORE_OPS:
        assert bytes(instance.memory.data[end - width:end]) \
            == _stored_bytes(code)
        instance.memory.data[end - width:end] = bytes(width)
    assert not any(instance.memory.data)


def _expect_trap(instance, name, *args):
    before = bytes(instance.memory.data)
    with pytest.raises(TrapError) as info:
        instance.invoke(name, *args)
    assert type(info.value) is TrapError and str(info.value) == _OOB
    # A faulting store writes nothing, not even the bytes that fit.
    assert bytes(instance.memory.data) == before


@pytest.mark.parametrize("offset", [0, 24])
@pytest.mark.parametrize("code", sorted(_ACCESS_OPS), ids=op.name)
def test_access_ending_at_memory_size_succeeds_one_byte_more_traps(
        engine, code, offset):
    width = _ACCESS_OPS[code][0]
    # Per memory size, the address whose access ends exactly at it.
    last = [pages * PAGE_SIZE - width - offset for pages in (1, 2)]
    instance = engine.instantiate(_bounds_module(
        code, offset, [a + past for a in last for past in (0, 1)]))
    for pages, address in enumerate(last, 1):
        size = pages * PAGE_SIZE
        if pages == 2:
            # A grown memory re-requests the planes; the new end bounds.
            assert instance.invoke("grow") == 1
            _expect_in_bounds(instance, code, PAGE_SIZE + 1,
                              f"at{last[0] + 1}")
        _expect_in_bounds(instance, code, size, "byte", address)
        _expect_trap(instance, "byte", address + 1)
        _expect_in_bounds(instance, code, size, "element", address // width)
        _expect_trap(instance, "element", address // width + 1)
        _expect_in_bounds(instance, code, size, f"at{address}")
        _expect_trap(instance, f"at{address + 1}")
        if pages == 1:
            _expect_trap(instance, f"at{last[1]}")


def test_address_plus_offset_past_4_gib_traps(engine):
    """The effective address is not wrapped: 0xFFFFFFFF + 8 traps."""
    instance = engine.instantiate(_bounds_module(op.I64_LOAD, 8, []))
    _expect_trap(instance, "byte", 0xFFFFFFFF)
    _expect_trap(instance, "element", 0x1FFFFFFF)


# -- faults outside generated code keep their type -----------------------------


def _host_module(host_fn):
    """``f(a)`` calls the import ``env.host(a)``, run by ``host_fn``, and
    returns its result; ``peek(a)`` loads the i32 at ``a``."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    t = builder.add_type([I32], [I32])
    host = builder.import_function("env", "host", t)
    f = builder.add_function(t)
    f.local_get(0).call(host)
    builder.export_function("f", f.index)
    peek = builder.add_function(t)
    peek.local_get(0).emit(op.I32_LOAD, 0)
    builder.export_function("peek", peek.index)
    return {"env": {"host": HostFunction(FuncType((I32,), (I32,)),
                                         host_fn)}}, builder.build()


@pytest.mark.parametrize("read, error", [
    (lambda instance, address: instance.memory.data[address], IndexError),
    (lambda instance, address: struct.unpack_from(
        "<I", instance.memory.data, address)[0], struct.error),
], ids=["IndexError", "struct.error"])
def test_host_import_fault_is_not_a_memory_trap(engine, read, error):
    """A host import that indexes past the memory itself raises the same
    exception types as a generated access; it surfaces as that type."""
    imports, binary = _host_module(read)
    instance = engine.instantiate(binary, imports)
    assert instance.invoke("f", 0) == 0
    with pytest.raises(error) as info:
        instance.invoke("f", PAGE_SIZE)
    assert not isinstance(info.value, TrapError)


def test_fault_in_a_reentered_call_traps_at_its_own_entry(engine):
    """Wasm -> host -> Wasm: the inner call's fault is a TrapError where
    the host called it, and the host may handle it there."""
    seen = []

    def reenter(instance, address):
        try:
            return instance.invoke("peek", address)
        except TrapError as trap:
            seen.append(str(trap))
            return 7

    imports, binary = _host_module(reenter)
    instance = engine.instantiate(binary, imports)
    assert instance.invoke("f", 0) == 0 and seen == []
    assert instance.invoke("f", PAGE_SIZE - 3) == 7
    assert seen == [_OOB]
    assert instance.call_depth == 0

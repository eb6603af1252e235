"""Binary format: builder/decoder round trips and malformed binaries."""

import random

import pytest

from repro.errors import DecodeError, ReproError
from repro.wasm import ModuleBuilder, decode_module
from repro.wasm import opcodes as op
from repro.wasm.types import F64, I32, I64


def _sample_binary():
    builder = ModuleBuilder()
    builder.add_memory(2, 8)
    builder.add_table(3, 3)
    builder.add_global(I32, True, 7)
    builder.add_global(F64, False, 2.5)
    builder.add_data(16, b"hello")
    t0 = builder.add_type([I32, I32], [I32])
    t1 = builder.add_type([], [])
    imported = builder.import_function("env", "host", t1)
    f = builder.add_function(t0)
    f.local_get(0)
    f.local_get(1)
    f.emit(op.I32_ADD)
    g = builder.add_function(t1)
    g.call(imported)
    builder.add_element(0, [f.index, g.index])
    builder.export_function("add", f.index)
    builder.export_memory("memory")
    builder.export_global("counter", 0)
    builder.set_start(g.index)
    return builder.build()


def test_roundtrip_structure():
    module = decode_module(_sample_binary())
    assert len(module.types) == 2
    assert len(module.imported_funcs) == 1
    assert module.imported_funcs[0].module == "env"
    assert len(module.functions) == 2
    assert module.memories[0].limits.minimum == 2
    assert module.memories[0].limits.maximum == 8
    assert module.tables[0].limits.minimum == 3
    assert module.globals[0].init == 7
    assert module.globals[0].type.mutable
    assert module.globals[1].init == 2.5
    assert not module.globals[1].type.mutable
    assert module.data_segments[0].offset == 16
    assert module.data_segments[0].data == b"hello"
    assert module.start == 2
    assert {e.name for e in module.exports} == {"add", "memory", "counter"}


def test_type_interning():
    builder = ModuleBuilder()
    first = builder.add_type([I32], [I32])
    second = builder.add_type([I32], [I32])
    assert first == second
    third = builder.add_type([I64], [I32])
    assert third != first


def test_func_type_lookup_spans_imports():
    module = decode_module(_sample_binary())
    assert module.func_type(0).params == ()  # the import
    assert module.func_type(1).params == (I32, I32)


def test_body_targets_resolved():
    builder = ModuleBuilder()
    t = builder.add_type([], [I32])
    f = builder.add_function(t)
    f.block(I32)
    f.i32_const(1)
    f.end()
    builder.export_function("f", f.index)
    module = decode_module(builder.build())
    body = module.functions[0].body
    assert body[0].opcode == op.BLOCK
    assert body[body[0].target].opcode == op.END


def test_if_else_targets_resolved():
    builder = ModuleBuilder()
    t = builder.add_type([I32], [I32])
    f = builder.add_function(t)
    f.local_get(0)
    f.if_(I32)
    f.i32_const(1)
    f.else_()
    f.i32_const(2)
    f.end()
    builder.export_function("f", f.index)
    module = decode_module(builder.build())
    body = module.functions[0].body
    if_instr = body[1]
    assert if_instr.opcode == op.IF
    assert body[if_instr.else_target].opcode == op.ELSE
    assert body[if_instr.target].opcode == op.END


def test_locals_run_length_encoding():
    builder = ModuleBuilder()
    t = builder.add_type([], [])
    f = builder.add_function(t)
    for valtype in (I32, I32, I64, F64, F64, F64):
        f.add_local(valtype)
    binary = builder.build()
    module = decode_module(binary)
    assert module.functions[0].locals == [I32, I32, I64, F64, F64, F64]


@pytest.mark.parametrize("mutation,message", [
    (lambda b: b[:3], "header"),
    (lambda b: b"\x01asm" + b[4:], "magic"),
    (lambda b: b[:4] + b"\x02\x00\x00\x00" + b[8:], "version"),
])
def test_malformed_headers(mutation, message):
    binary = _sample_binary()
    with pytest.raises(DecodeError, match=message):
        decode_module(mutation(bytearray(binary)))


def test_truncated_binary_rejected():
    binary = _sample_binary()
    with pytest.raises(DecodeError):
        decode_module(binary[: len(binary) - 4])


def _tiny_binary():
    """34 bytes: one exported ``f`` whose body is ``i32.const 1; drop``."""
    builder = ModuleBuilder()
    f = builder.add_function(builder.add_type([], []))
    f.i32_const(1)
    f.emit(op.DROP)
    builder.export_function("f", f.index)
    return builder.build()


def test_body_overrunning_its_code_section_rejected():
    # Two bytes of the tiny module mutated: the body declares 0x43 bytes
    # (its section holds 5) and its final `end` became `i64.eq`, so the
    # body reader ran off the end of the binary.
    binary = bytes.fromhex("0061736d0100000001040160000003020100070501016600"
                           "000a0701430041011a51")
    with pytest.raises(DecodeError, match="overruns"):
        decode_module(binary)


def test_byte_mutations_fail_typed():
    """Seeded fuzz over the tiny module: every mutant decodes or raises a
    typed ReproError, never a bare Python exception."""
    seed = _tiny_binary()
    rng = random.Random(1)
    for _ in range(2000):
        mutant = bytearray(seed)
        for _ in range(2):
            mutant[rng.randrange(len(mutant))] = rng.randrange(256)
        try:
            decode_module(bytes(mutant))
        except ReproError:
            pass
        except Exception as exc:
            pytest.fail(f"{bytes(mutant).hex()}: {type(exc).__name__}: {exc}")


def test_unknown_opcode_rejected():
    builder = ModuleBuilder()
    t = builder.add_type([], [])
    f = builder.add_function(t)
    f._body.append(0xFE)  # not a valid MVP opcode
    with pytest.raises(DecodeError, match="opcode"):
        decode_module(builder.build())


def test_unbalanced_block_caught_by_builder():
    builder = ModuleBuilder()
    t = builder.add_type([], [])
    f = builder.add_function(t)
    f.block()
    with pytest.raises(Exception, match="unterminated"):
        builder.build()


def test_binary_size_recorded():
    binary = _sample_binary()
    module = decode_module(binary)
    assert module.binary_size == len(binary)


def test_duplicate_export_rejected():
    builder = ModuleBuilder()
    t = builder.add_type([], [])
    f = builder.add_function(t)
    builder.export_function("x", f.index)
    builder.export_function("x", f.index)
    with pytest.raises(DecodeError, match="duplicate"):
        decode_module(builder.build())

"""Spec behaviour of the numeric instruction set, on both engines.

A table-driven sweep: each case pushes constants, applies one operator
and compares against the spec-defined result. These derive from the
WebAssembly core test suite's canonical cases.
"""

import math

import pytest

from repro.wasm import opcodes as op
from repro.wasm.types import F32, F64, I32, I64
from tests.wasm.helpers import run_single

U32 = 0xFFFFFFFF
U64 = 0xFFFFFFFFFFFFFFFF

# (name, result type, const opcode pairs..., operator, expected)
BINARY_CASES = [
    ("i32.add wrap", I32, op.I32_CONST, U32, op.I32_CONST, 1, op.I32_ADD, 0),
    ("i32.add", I32, op.I32_CONST, 5, op.I32_CONST, 7, op.I32_ADD, 12),
    ("i32.sub wrap", I32, op.I32_CONST, 0, op.I32_CONST, 1, op.I32_SUB, U32),
    ("i32.mul wrap", I32, op.I32_CONST, 0x10000, op.I32_CONST, 0x10000,
     op.I32_MUL, 0),
    ("i32.div_s", I32, op.I32_CONST, -7 & U32, op.I32_CONST, 2,
     op.I32_DIV_S, -3 & U32),
    ("i32.div_u", I32, op.I32_CONST, -7 & U32, op.I32_CONST, 2,
     op.I32_DIV_U, 0x7FFFFFFC),
    ("i32.rem_s", I32, op.I32_CONST, -7 & U32, op.I32_CONST, 2,
     op.I32_REM_S, -1 & U32),
    ("i32.rem_u", I32, op.I32_CONST, -7 & U32, op.I32_CONST, 2,
     op.I32_REM_U, 1),
    ("i32.and", I32, op.I32_CONST, 0xF0F0, op.I32_CONST, 0xFF00,
     op.I32_AND, 0xF000),
    ("i32.or", I32, op.I32_CONST, 0xF0F0, op.I32_CONST, 0x0F0F,
     op.I32_OR, 0xFFFF),
    ("i32.xor", I32, op.I32_CONST, 0xFF, op.I32_CONST, 0x0F,
     op.I32_XOR, 0xF0),
    ("i32.shl", I32, op.I32_CONST, 1, op.I32_CONST, 33, op.I32_SHL, 2),
    ("i32.shr_s", I32, op.I32_CONST, 0x80000000, op.I32_CONST, 1,
     op.I32_SHR_S, 0xC0000000),
    ("i32.shr_u", I32, op.I32_CONST, 0x80000000, op.I32_CONST, 1,
     op.I32_SHR_U, 0x40000000),
    ("i32.rotl", I32, op.I32_CONST, 0x80000001, op.I32_CONST, 1,
     op.I32_ROTL, 3),
    ("i32.rotr", I32, op.I32_CONST, 3, op.I32_CONST, 1,
     op.I32_ROTR, 0x80000001),
    ("i64.add wrap", I64, op.I64_CONST, U64, op.I64_CONST, 1, op.I64_ADD, 0),
    ("i64.mul", I64, op.I64_CONST, 1 << 32, op.I64_CONST, 1 << 32,
     op.I64_MUL, 0),
    ("i64.div_s", I64, op.I64_CONST, -9 & U64, op.I64_CONST, 4,
     op.I64_DIV_S, -2 & U64),
    ("i64.shl", I64, op.I64_CONST, 1, op.I64_CONST, 63,
     op.I64_SHL, 1 << 63),
    ("i64.shr_s", I64, op.I64_CONST, 1 << 63, op.I64_CONST, 62,
     op.I64_SHR_S, -2 & U64),
    ("f64.add", F64, op.F64_CONST, 1.5, op.F64_CONST, 2.25,
     op.F64_ADD, 3.75),
    ("f64.sub", F64, op.F64_CONST, 1.0, op.F64_CONST, 0.75,
     op.F64_SUB, 0.25),
    ("f64.mul", F64, op.F64_CONST, 3.0, op.F64_CONST, 0.5,
     op.F64_MUL, 1.5),
    ("f64.div", F64, op.F64_CONST, 1.0, op.F64_CONST, 4.0,
     op.F64_DIV, 0.25),
    ("f64.min", F64, op.F64_CONST, 1.0, op.F64_CONST, 2.0,
     op.F64_MIN, 1.0),
    ("f64.max", F64, op.F64_CONST, 1.0, op.F64_CONST, 2.0,
     op.F64_MAX, 2.0),
    ("f64.copysign", F64, op.F64_CONST, 3.0, op.F64_CONST, -1.0,
     op.F64_COPYSIGN, -3.0),
    ("f32.add rounds", F32, op.F32_CONST, 1.0, op.F32_CONST, 1e-10,
     op.F32_ADD, 1.0),
    ("f32.mul", F32, op.F32_CONST, 2.0, op.F32_CONST, 8.0,
     op.F32_MUL, 16.0),
]

COMPARE_CASES = [
    ("i32.eq true", I32, op.I32_CONST, 3, op.I32_CONST, 3, op.I32_EQ, 1),
    ("i32.eq false", I32, op.I32_CONST, 3, op.I32_CONST, 4, op.I32_EQ, 0),
    ("i32.ne", I32, op.I32_CONST, 3, op.I32_CONST, 4, op.I32_NE, 1),
    ("i32.lt_s neg", I32, op.I32_CONST, -1 & U32, op.I32_CONST, 0,
     op.I32_LT_S, 1),
    ("i32.lt_u neg", I32, op.I32_CONST, -1 & U32, op.I32_CONST, 0,
     op.I32_LT_U, 0),
    ("i32.gt_s", I32, op.I32_CONST, 1, op.I32_CONST, -1 & U32,
     op.I32_GT_S, 1),
    ("i32.gt_u", I32, op.I32_CONST, 1, op.I32_CONST, -1 & U32,
     op.I32_GT_U, 0),
    ("i32.le_s", I32, op.I32_CONST, 5, op.I32_CONST, 5, op.I32_LE_S, 1),
    ("i32.ge_u", I32, op.I32_CONST, 0, op.I32_CONST, -1 & U32,
     op.I32_GE_U, 0),
    ("i64.lt_s", I64, op.I64_CONST, -5 & U64, op.I64_CONST, 3,
     op.I64_LT_S, 1),
    ("i64.eqz-like eq", I64, op.I64_CONST, 0, op.I64_CONST, 0,
     op.I64_EQ, 1),
    ("f64.lt", F64, op.F64_CONST, 1.0, op.F64_CONST, 2.0, op.F64_LT, 1),
    ("f64.ge", F64, op.F64_CONST, 2.0, op.F64_CONST, 2.0, op.F64_GE, 1),
    ("f64.eq nan", F64, op.F64_CONST, math.nan, op.F64_CONST, math.nan,
     op.F64_EQ, 0),
    ("f64.ne nan", F64, op.F64_CONST, math.nan, op.F64_CONST, math.nan,
     op.F64_NE, 1),
    ("f64.lt nan", F64, op.F64_CONST, math.nan, op.F64_CONST, 1.0,
     op.F64_LT, 0),
]


@pytest.mark.parametrize(
    "case", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_operator(engine, case):
    _name, rtype, c1, v1, c2, v2, operator, expected = case

    def emit(f):
        f.emit(c1, v1)
        f.emit(c2, v2)
        f.emit(operator)

    assert run_single(engine, [], [rtype], emit) == expected


@pytest.mark.parametrize(
    "case", COMPARE_CASES, ids=[c[0] for c in COMPARE_CASES])
def test_compare_operator(engine, case):
    _name, operand_type, c1, v1, c2, v2, operator, expected = case

    def emit(f):
        f.emit(c1, v1)
        f.emit(c2, v2)
        f.emit(operator)

    assert run_single(engine, [], [I32], emit) == expected


UNARY_CASES = [
    ("i32.clz", I32, op.I32_CONST, 1, op.I32_CLZ, 31),
    ("i32.ctz", I32, op.I32_CONST, 0x8000, op.I32_CTZ, 15),
    ("i32.popcnt", I32, op.I32_CONST, 0xFF, op.I32_POPCNT, 8),
    ("i32.eqz zero", I32, op.I32_CONST, 0, op.I32_EQZ, 1),
    ("i32.eqz nonzero", I32, op.I32_CONST, 9, op.I32_EQZ, 0),
    ("i64.clz", I64, op.I64_CONST, 1, op.I64_CLZ, 63),
    ("i32.extend8_s", I32, op.I32_CONST, 0xFF, op.I32_EXTEND8_S, U32),
    ("i32.extend16_s", I32, op.I32_CONST, 0x8000, op.I32_EXTEND16_S,
     0xFFFF8000),
    ("i64.extend32_s", I64, op.I64_CONST, 0xFFFFFFFF, op.I64_EXTEND32_S, U64),
]


@pytest.mark.parametrize("case", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_operator(engine, case):
    _name, rtype, const, value, operator, expected = case

    def emit(f):
        f.emit(const, value)
        f.emit(operator)

    assert run_single(engine, [], [rtype], emit) == expected


FLOAT_UNARY_CASES = [
    ("f64.abs", op.F64_CONST, -2.5, op.F64_ABS, 2.5),
    ("f64.neg", op.F64_CONST, 2.5, op.F64_NEG, -2.5),
    ("f64.ceil", op.F64_CONST, 1.2, op.F64_CEIL, 2.0),
    ("f64.floor", op.F64_CONST, 1.8, op.F64_FLOOR, 1.0),
    ("f64.trunc", op.F64_CONST, -1.8, op.F64_TRUNC, -1.0),
    ("f64.nearest", op.F64_CONST, 2.5, op.F64_NEAREST, 2.0),
    ("f64.sqrt", op.F64_CONST, 2.25, op.F64_SQRT, 1.5),
]


@pytest.mark.parametrize("case", FLOAT_UNARY_CASES,
                         ids=[c[0] for c in FLOAT_UNARY_CASES])
def test_float_unary(engine, case):
    _name, const, value, operator, expected = case

    def emit(f):
        f.emit(const, value)
        f.emit(operator)

    assert run_single(engine, [], [F64], emit) == expected


CONVERSION_CASES = [
    ("i32.wrap_i64", I64, I32, op.I64_CONST, 0x1_0000_0005,
     op.I32_WRAP_I64, 5),
    ("i64.extend_i32_s", I32, I64, op.I32_CONST, U32,
     op.I64_EXTEND_I32_S, U64),
    ("i64.extend_i32_u", I32, I64, op.I32_CONST, U32,
     op.I64_EXTEND_I32_U, U32),
    ("i32.trunc_f64_s", F64, I32, op.F64_CONST, -3.7,
     op.I32_TRUNC_F64_S, -3 & U32),
    ("i32.trunc_f64_u", F64, I32, op.F64_CONST, 3.7,
     op.I32_TRUNC_F64_U, 3),
    ("f64.convert_i32_s", I32, F64, op.I32_CONST, U32,
     op.F64_CONVERT_I32_S, -1.0),
    ("f64.convert_i32_u", I32, F64, op.I32_CONST, U32,
     op.F64_CONVERT_I32_U, 4294967295.0),
    ("f64.convert_i64_s", I64, F64, op.I64_CONST, U64,
     op.F64_CONVERT_I64_S, -1.0),
    ("f32.demote_f64", F64, F32, op.F64_CONST, 0.1,
     op.F32_DEMOTE_F64, 0.10000000149011612),
    ("f64.promote_f32", F32, F64, op.F32_CONST, 1.5,
     op.F64_PROMOTE_F32, 1.5),
    ("i32.reinterpret_f32", F32, I32, op.F32_CONST, 1.0,
     op.I32_REINTERPRET_F32, 0x3F800000),
    ("f64.reinterpret_i64", I64, F64, op.I64_CONST, 0x3FF0000000000000,
     op.F64_REINTERPRET_I64, 1.0),
]


@pytest.mark.parametrize("case", CONVERSION_CASES,
                         ids=[c[0] for c in CONVERSION_CASES])
def test_conversion(engine, case):
    _name, _src, dst, const, value, operator, expected = case

    def emit(f):
        f.emit(const, value)
        f.emit(operator)

    result = run_single(engine, [], [dst], emit)
    if dst in (I32, I64) and expected < 0:
        expected &= U32 if dst == I32 else U64
    assert result == expected


def test_f32_results_past_the_range_round_to_infinity(engine):
    # IEEE rounding gives the signed infinity; struct.pack used to raise
    # OverflowError out of the engine instead.
    def divide(f):
        f.emit(op.F32_CONST, 3e38)
        f.emit(op.F32_CONST, -0.5)
        f.emit(op.F32_DIV)

    def demote(f):
        f.emit(op.F64_CONST, 1e300)
        f.emit(op.F32_DEMOTE_F64)

    assert run_single(engine, [], [F32], divide) == -math.inf
    assert run_single(engine, [], [F32], demote) == math.inf

"""Numeric semantics helpers against spec-defined behaviour."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TrapError
from repro.wasm import numerics as num


def test_signed_reinterpretation():
    assert num.s32(0xFFFFFFFF) == -1
    assert num.s32(0x80000000) == -(1 << 31)
    assert num.s32(0x7FFFFFFF) == (1 << 31) - 1
    assert num.s64(0xFFFFFFFFFFFFFFFF) == -1


def test_clz_ctz_popcnt():
    assert num.clz(0, 32) == 32
    assert num.clz(1, 32) == 31
    assert num.clz(0x80000000, 32) == 0
    assert num.ctz(0, 32) == 32
    assert num.ctz(0x80000000, 32) == 31
    assert num.ctz(0b1000, 32) == 3
    assert num.popcnt(0xF0F0) == 8


def test_rotations():
    assert num.rotl(0x80000001, 1, 32) == 0x00000003
    assert num.rotr(0x00000003, 1, 32) == 0x80000001
    assert num.rotl(0xABCD, 0, 32) == 0xABCD
    assert num.rotl(0xABCD, 32, 32) == 0xABCD


def test_signed_division_truncates_toward_zero():
    assert num.s32(num.idiv_s(7, 0x100000000 - 2, 32)) == -3  # 7 / -2
    assert num.s32(num.idiv_s(0x100000000 - 7, 2, 32)) == -3  # -7 / 2


def test_division_by_zero_traps():
    with pytest.raises(TrapError):
        num.idiv_s(1, 0, 32)
    with pytest.raises(TrapError):
        num.idiv_u(1, 0)
    with pytest.raises(TrapError):
        num.irem_s(1, 0, 32)
    with pytest.raises(TrapError):
        num.irem_u(1, 0)


def test_int_min_overflow_traps():
    with pytest.raises(TrapError):
        num.idiv_s(0x80000000, 0xFFFFFFFF, 32)  # INT_MIN / -1


def test_int_min_rem_minus_one_is_zero():
    assert num.irem_s(0x80000000, 0xFFFFFFFF, 32) == 0


def test_signed_remainder_sign_of_dividend():
    assert num.s32(num.irem_s(0x100000000 - 7, 2, 32)) == -1
    assert num.s32(num.irem_s(7, 0x100000000 - 2, 32)) == 1


def test_shr_s_sign_extends():
    assert num.shr_s(0x80000000, 1, 32) == 0xC0000000
    assert num.shr_s(0x40000000, 1, 32) == 0x20000000


def test_trunc_traps_on_nan_and_overflow():
    with pytest.raises(TrapError):
        num.trunc_to_int(math.nan, True, 32)
    with pytest.raises(TrapError):
        num.trunc_to_int(math.inf, True, 32)
    with pytest.raises(TrapError):
        num.trunc_to_int(2147483648.0, True, 32)
    with pytest.raises(TrapError):
        num.trunc_to_int(-1.0, False, 32)


def test_trunc_valid_edges():
    assert num.trunc_to_int(2147483647.0, True, 32) == 0x7FFFFFFF
    assert num.s32(num.trunc_to_int(-2147483648.0, True, 32)) == -(1 << 31)
    assert num.trunc_to_int(3.99, True, 32) == 3
    assert num.s32(num.trunc_to_int(-3.99, True, 32)) == -3


def test_nearest_ties_to_even():
    assert num.fnearest(0.5) == 0.0
    assert num.fnearest(1.5) == 2.0
    assert num.fnearest(2.5) == 2.0
    assert num.fnearest(-0.5) == 0.0
    assert math.copysign(1.0, num.fnearest(-0.5)) == -1.0
    assert num.fnearest(-1.5) == -2.0


def test_fmin_fmax_nan_and_zero():
    assert math.isnan(num.fmin(math.nan, 1.0))
    assert math.isnan(num.fmax(1.0, math.nan))
    assert math.copysign(1.0, num.fmin(0.0, -0.0)) == -1.0
    assert math.copysign(1.0, num.fmax(0.0, -0.0)) == 1.0
    assert num.fmin(1.0, 2.0) == 1.0
    assert num.fmax(1.0, 2.0) == 2.0


def test_float_unaries_sign_of_zero():
    assert math.copysign(1.0, num.ftrunc(-0.5)) == -1.0
    assert math.copysign(1.0, num.fceil(-0.5)) == -1.0
    assert num.ffloor(-0.5) == -1.0


def test_fsqrt_negative_is_nan():
    assert math.isnan(num.fsqrt(-1.0))
    assert num.fsqrt(9.0) == 3.0


def test_reinterpret_roundtrips():
    assert num.f64_reinterpret_i64(num.i64_reinterpret_f64(1.5)) == 1.5
    assert num.f32_reinterpret_i32(num.i32_reinterpret_f32(1.5)) == 1.5
    assert num.i32_reinterpret_f32(1.0) == 0x3F800000
    assert num.i64_reinterpret_f64(1.0) == 0x3FF0000000000000


def test_extend_signed():
    assert num.extend_signed(0xFF, 8, 32) == 0xFFFFFFFF
    assert num.extend_signed(0x7F, 8, 32) == 0x7F
    assert num.extend_signed(0x8000, 16, 32) == 0xFFFF8000
    assert num.extend_signed(0xFFFFFFFF, 32, 64) == 0xFFFFFFFFFFFFFFFF


def test_f32_round():
    assert num.f32_round(0.1) != 0.1  # 0.1 is not representable in f32
    assert num.f32_round(1.5) == 1.5


def test_f32_round_overflows_at_the_flt_max_midpoint():
    flt_max = num.f32_reinterpret_i32(0x7F7FFFFF)
    midpoint = 3.4028235677973366e38  # (FLT_MAX + 2^128) / 2
    assert num.f32_round(math.nextafter(midpoint, 0)) == flt_max
    assert num.f32_round(midpoint) == math.inf
    assert num.f32_round(-midpoint) == -math.inf
    assert num.f32_round(1e300) == math.inf


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 0xFFFFFFFF), st.integers(1, 0xFFFFFFFF))
def test_divmod_identity_unsigned(a, b):
    q = num.idiv_u(a, b)
    r = num.irem_u(a, b)
    assert q * b + r == a
    assert 0 <= r < b


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 63))
def test_rotl_rotr_inverse(value, count):
    assert num.rotr(num.rotl(value, count, 32), count, 32) == value

"""Numeric semantics of WebAssembly, shared by both execution engines.

Integers are represented as unsigned Python ints (mod 2^32 / 2^64); floats
as Python floats, with results of f32 operations rounded through a 32-bit
round-trip. All trapping behaviours of the spec (division by zero, invalid
float-to-int truncation) raise :class:`~repro.errors.TrapError`.
"""

from __future__ import annotations

import math
import struct

from repro.errors import TrapError

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN32 = 0x80000000
_SIGN64 = 0x8000000000000000

_PACK_F32 = struct.Struct("<f")
_PACK_F64 = struct.Struct("<d")
_PACK_I32 = struct.Struct("<I")
_PACK_I64 = struct.Struct("<Q")


def s32(value: int) -> int:
    """Interpret a u32 as signed."""
    return value - 0x100000000 if value & _SIGN32 else value


def s64(value: int) -> int:
    """Interpret a u64 as signed."""
    return value - 0x10000000000000000 if value & _SIGN64 else value


def f32_round(value: float) -> float:
    """Round a Python float to f32 precision; values at or beyond the
    FLT_MAX/2^128 midpoint (where ``struct`` raises) round to +-inf."""
    try:
        return _PACK_F32.unpack(_PACK_F32.pack(value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def clz(value: int, bits: int) -> int:
    if value == 0:
        return bits
    return bits - value.bit_length()


def ctz(value: int, bits: int) -> int:
    if value == 0:
        return bits
    return (value & -value).bit_length() - 1


def popcnt(value: int) -> int:
    return bin(value).count("1")


def rotl(value: int, count: int, bits: int) -> int:
    count %= bits
    mask = (1 << bits) - 1
    return ((value << count) | (value >> (bits - count))) & mask


def rotr(value: int, count: int, bits: int) -> int:
    count %= bits
    mask = (1 << bits) - 1
    return ((value >> count) | (value << (bits - count))) & mask


def idiv_s(lhs: int, rhs: int, bits: int) -> int:
    """Signed division, truncating toward zero; traps per the spec."""
    mask = (1 << bits) - 1
    signed_lhs = lhs - (1 << bits) if lhs >> (bits - 1) else lhs
    signed_rhs = rhs - (1 << bits) if rhs >> (bits - 1) else rhs
    if signed_rhs == 0:
        raise TrapError("integer divide by zero")
    quotient = abs(signed_lhs) // abs(signed_rhs)
    if (signed_lhs < 0) != (signed_rhs < 0):
        quotient = -quotient
    if quotient == 1 << (bits - 1):
        raise TrapError("integer overflow")
    return quotient & mask


def idiv_u(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise TrapError("integer divide by zero")
    return lhs // rhs


def irem_s(lhs: int, rhs: int, bits: int) -> int:
    """Signed remainder with the sign of the dividend."""
    mask = (1 << bits) - 1
    signed_lhs = lhs - (1 << bits) if lhs >> (bits - 1) else lhs
    signed_rhs = rhs - (1 << bits) if rhs >> (bits - 1) else rhs
    if signed_rhs == 0:
        raise TrapError("integer divide by zero")
    remainder = abs(signed_lhs) % abs(signed_rhs)
    if signed_lhs < 0:
        remainder = -remainder
    return remainder & mask


def irem_u(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise TrapError("integer divide by zero")
    return lhs % rhs


def shr_s(value: int, count: int, bits: int) -> int:
    count %= bits
    signed = value - (1 << bits) if value >> (bits - 1) else value
    return (signed >> count) & ((1 << bits) - 1)


def trunc_to_int(value: float, signed: bool, bits: int) -> int:
    """f{32,64} -> i{32,64} truncation, trapping on NaN and overflow."""
    if math.isnan(value):
        raise TrapError("invalid conversion to integer (NaN)")
    if math.isinf(value):
        raise TrapError("integer overflow in truncation")
    truncated = math.trunc(value)
    if signed:
        low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        low, high = 0, (1 << bits) - 1
    if not low <= truncated <= high:
        raise TrapError("integer overflow in truncation")
    return truncated & ((1 << bits) - 1)


def fnearest(value: float) -> float:
    """Round-to-nearest, ties to even (Wasm ``nearest``)."""
    if math.isnan(value) or math.isinf(value):
        return value
    rounded = math.floor(value + 0.5)
    if rounded - value == 0.5 and rounded % 2 != 0:
        rounded -= 1
    # Preserve the sign of zero for negative inputs in (-0.5, 0].
    if rounded == 0 and math.copysign(1.0, value) < 0:
        return -0.0
    return float(rounded)


def fmin(lhs: float, rhs: float) -> float:
    """Wasm min: NaN-propagating, -0 < +0."""
    if math.isnan(lhs) or math.isnan(rhs):
        return math.nan
    if lhs == rhs == 0.0:
        return -0.0 if (math.copysign(1.0, lhs) < 0 or math.copysign(1.0, rhs) < 0) else 0.0
    return lhs if lhs < rhs else rhs


def fmax(lhs: float, rhs: float) -> float:
    """Wasm max: NaN-propagating, +0 > -0."""
    if math.isnan(lhs) or math.isnan(rhs):
        return math.nan
    if lhs == rhs == 0.0:
        return 0.0 if (math.copysign(1.0, lhs) > 0 or math.copysign(1.0, rhs) > 0) else -0.0
    return lhs if lhs > rhs else rhs


def fdiv(lhs: float, rhs: float) -> float:
    """IEEE division with Wasm's zero-divisor semantics (no Python trap).

    Shared by the interpreter and the AOT engine so both lower ``f32.div``
    and ``f64.div`` through the exact same helper.
    """
    if rhs == 0.0:
        if lhs == 0.0 or math.isnan(lhs):
            return math.nan
        sign = math.copysign(1.0, lhs) * math.copysign(1.0, rhs)
        return math.inf if sign > 0 else -math.inf
    return lhs / rhs


def ftrunc(value: float) -> float:
    if math.isnan(value) or math.isinf(value):
        return value
    result = float(math.trunc(value))
    if result == 0.0 and math.copysign(1.0, value) < 0:
        return -0.0
    return result


def fsqrt(value: float) -> float:
    if value < 0:
        return math.nan
    return math.sqrt(value)


def fceil(value: float) -> float:
    if math.isnan(value) or math.isinf(value):
        return value
    result = float(math.ceil(value))
    if result == 0.0 and math.copysign(1.0, value) < 0:
        return -0.0
    return result


def ffloor(value: float) -> float:
    if math.isnan(value) or math.isinf(value):
        return value
    return float(math.floor(value))


def i32_reinterpret_f32(value: float) -> int:
    return _PACK_I32.unpack(_PACK_F32.pack(value))[0]


def i64_reinterpret_f64(value: float) -> int:
    return _PACK_I64.unpack(_PACK_F64.pack(value))[0]


def f32_reinterpret_i32(value: int) -> float:
    return _PACK_F32.unpack(_PACK_I32.pack(value))[0]


def f64_reinterpret_i64(value: int) -> float:
    return _PACK_F64.unpack(_PACK_I64.pack(value))[0]


def extend_signed(value: int, from_bits: int, to_bits: int) -> int:
    """Sign-extend the low ``from_bits`` of ``value`` to ``to_bits``."""
    value &= (1 << from_bits) - 1
    if value >> (from_bits - 1):
        value -= 1 << from_bits
    return value & ((1 << to_bits) - 1)

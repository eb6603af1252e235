"""The ahead-of-time execution engine: Wasm -> Python source.

WaTZ executes AOT-compiled Wasm (paper §III, "Execution modes"): WAMR's
LLVM back end lowers bytecode to ARM64 before loading, and the runtime only
needs executable pages. Our analog lowers each Wasm function to Python
source and a code object once, at load time
(:meth:`AotCompiler.compile_function`), and each instance executes those
in its one namespace (:meth:`AotCompiler.link`), removing the
per-instruction dispatch of the interpreter; the measured speed-up is the
subject of the A1 ablation (the paper reports ~28x).

Compilation strategy:

* the operand stack is resolved statically; the value at stack height
  ``h`` canonically lives in the Python local ``s{h}``;
* **expression fusion**: pure, non-trapping operations (constants, local
  and global reads, integer/float arithmetic, comparisons, conversions)
  are deferred as expression strings and fused into the statement that
  consumes them — a store, a local write, a call argument, a branch
  condition — so a Wasm address computation or FP chain becomes one
  Python expression instead of a statement per instruction. Deferred
  expressions are *spilled* into their canonical ``s{h}`` variables at
  every point where their value could change (writes to the locals,
  globals or memory they read) and at all control-flow boundaries.
  Trapping operations (loads, stores, integer division, float-to-int
  truncation, indirect calls) are never deferred, preserving the spec's
  trap ordering;
* structured control lowers to the Python statement it means:
  :func:`repro.wasm.aotopt.python_loops` marks the constructs some
  branch targets. An untargeted ``block``/``loop`` is a plain suite and
  an untargeted ``if`` a plain ``if``/``else``; a targeted ``loop`` is
  one ``while True:`` whose back edges are ``continue``; a branch to a
  block whose ``end`` directly follows an inner Python loop's ``end`` is
  that loop's ``break``; any other targeted block is a ``while True:``
  capsule left by ``break``. Only a branch that crosses a Python loop it
  does not target sets ``_br`` and breaks, and only the loops it crosses
  get the epilogue that keeps unwinding or consumes it;
* branches to the function frame compile to direct ``return`` statements;
* dead code after an unconditional transfer is skipped entirely;
* a function with no ``call``/``call_indirect`` (a leaf) checks the call
  depth inline; every other function enters and leaves its frame through
  ``Instance.enter_call``/``exit_call`` around a ``try``/``finally``;
* no access carries a bounds check. The access is the check, the
  software analogue of the guard page WAMR faults on: an out-of-range
  index raises ``IndexError`` (a typed plane, the bytearray) or
  ``struct.error`` (``unpack_from``/``pack_into``) before touching
  memory, and :func:`_wrap_entry` maps a fault raised in generated code
  to the interpreter's ``TrapError('out-of-bounds memory access')``.
  Every emitted index is provably non-negative (a negative Python index
  reads from the end), and loads stay statements at their own
  instruction, so trap order and partial memory effects are the
  interpreter's.

On top of that lowering sit the optimisation passes, fed by the loop
analysis in :mod:`repro.wasm.aotopt`: value ranges (mask elimination,
signed compares and conversions without a call, ``/`` for a divisor
proven nonzero; induction locals are bounded), loop-invariant code motion
(a hoist no emitted line reads is dropped), typed-memory-plane accesses
where an access is provably aligned (indexed straight from the affine
form when the range lattice bounds the address; a function that executes
``memory.grow`` rebinds its instance's plane globals after it), and loop
versioning: a fast copy that computes the addresses the lattice cannot
bound mask-free under one preflight test, emitted only where it differs
from the plain copy. Locals set to literals stay known literals until a
join or a loop that writes them, and comparisons, ``eqz``, int-to-float
conversions and ``if``s on literals fold. In a *hot* function (one a
loop calls, see :func:`repro.wasm.aotopt.hot_functions`) small counted
loops become straight-line code: each trip is one copy of the body with
the induction local a literal. A float-to-int truncation is ``int(x)``
under an inline range test, calling the trapping helper only outside it.
The interpreter is the semantic oracle: results and trap type, ordering
and messages are identical.

CPython's ``compile()`` nests at most 20 loops (``try`` counts as one)
and about 100 indentation levels; a function past either limit fails to
load with a :class:`~repro.errors.WasmError` naming it.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from collections import Counter
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.errors import TrapError, WasmError
from repro.wasm import aotopt
from repro.wasm import numerics as num
from repro.wasm import opcodes as op
from repro.wasm.interpreter import _fdiv
from repro.wasm.module import Function, Module
from repro.wasm.runtime import (MAX_CALL_DEPTH, Engine, Instance, Memory,
                                S_F32, S_F64, S_I16, S_I32, S_I64)
from repro.wasm.types import ValType

_MASK32 = "0xFFFFFFFF"
_MASK64 = "0xFFFFFFFFFFFFFFFF"

#: Expressions larger than this many fused operations are spilled to a
#: variable; keeps generated lines (and CPython's expression stack) sane.
_MAX_FUSED_OPS = 16


def _trap(message: str):
    raise TrapError(message)


# Pure (non-trapping) binary operators: opcode -> template over {a}, {b}.
_BINOPS: Dict[int, str] = {
    op.I32_ADD: "({a} + {b}) & " + _MASK32,
    op.I32_SUB: "({a} - {b}) & " + _MASK32,
    op.I32_MUL: "({a} * {b}) & " + _MASK32,
    op.I32_AND: "{a} & {b}",
    op.I32_OR: "{a} | {b}",
    op.I32_XOR: "{a} ^ {b}",
    op.I32_SHL: "({a} << ({b} % 32)) & " + _MASK32,
    op.I32_SHR_U: "{a} >> ({b} % 32)",
    op.I32_SHR_S: "_shrs({a}, {b}, 32)",
    op.I32_ROTL: "_rotl({a}, {b}, 32)",
    op.I32_ROTR: "_rotr({a}, {b}, 32)",
    op.I64_ADD: "({a} + {b}) & " + _MASK64,
    op.I64_SUB: "({a} - {b}) & " + _MASK64,
    op.I64_MUL: "({a} * {b}) & " + _MASK64,
    op.I64_AND: "{a} & {b}",
    op.I64_OR: "{a} | {b}",
    op.I64_XOR: "{a} ^ {b}",
    op.I64_SHL: "({a} << ({b} % 64)) & " + _MASK64,
    op.I64_SHR_U: "{a} >> ({b} % 64)",
    op.I64_SHR_S: "_shrs({a}, {b}, 64)",
    op.I64_ROTL: "_rotl({a}, {b}, 64)",
    op.I64_ROTR: "_rotr({a}, {b}, 64)",
    op.F64_ADD: "{a} + {b}",
    op.F64_SUB: "{a} - {b}",
    op.F64_MUL: "{a} * {b}",
    op.F64_DIV: "_fdiv({a}, {b})",
    op.F64_MIN: "_fmin({a}, {b})",
    op.F64_MAX: "_fmax({a}, {b})",
    op.F64_COPYSIGN: "_copysign({a}, {b})",
    op.F32_ADD: "_f32r({a} + {b})",
    op.F32_SUB: "_f32r({a} - {b})",
    op.F32_MUL: "_f32r({a} * {b})",
    op.F32_DIV: "_f32r(_fdiv({a}, {b}))",
    op.F32_MIN: "_fmin({a}, {b})",
    op.F32_MAX: "_fmax({a}, {b})",
    op.F32_COPYSIGN: "_copysign({a}, {b})",
}

# Float division by a divisor proven nonzero: ``_fdiv`` returns exactly
# ``lhs / rhs`` whenever ``rhs != 0.0``, so plain ``/`` is the same result.
_PLAIN_FDIV: Dict[int, str] = {
    op.F64_DIV: "{a} / {b}",
    op.F32_DIV: "_f32r({a} / {b})",
}

# Trapping binary operators (division family): always materialised.
_TRAPPING_BINOPS: Dict[int, str] = {
    op.I32_DIV_S: "_divs({a}, {b}, 32)",
    op.I32_DIV_U: "_divu({a}, {b})",
    op.I32_REM_S: "_rems({a}, {b}, 32)",
    op.I32_REM_U: "_remu({a}, {b})",
    op.I64_DIV_S: "_divs({a}, {b}, 64)",
    op.I64_DIV_U: "_divu({a}, {b})",
    op.I64_REM_S: "_rems({a}, {b}, 64)",
    op.I64_REM_U: "_remu({a}, {b})",
}

# Comparison operators producing i32 booleans (pure).
_RELOPS: Dict[int, str] = {
    op.I32_EQ: "{a} == {b}",
    op.I32_NE: "{a} != {b}",
    op.I32_LT_U: "{a} < {b}",
    op.I32_GT_U: "{a} > {b}",
    op.I32_LE_U: "{a} <= {b}",
    op.I32_GE_U: "{a} >= {b}",
    op.I64_EQ: "{a} == {b}",
    op.I64_NE: "{a} != {b}",
    op.I64_LT_U: "{a} < {b}",
    op.I64_GT_U: "{a} > {b}",
    op.I64_LE_U: "{a} <= {b}",
    op.I64_GE_U: "{a} >= {b}",
    op.F32_EQ: "{a} == {b}",
    op.F64_EQ: "{a} == {b}",
    op.F32_NE: "{a} != {b} or _isnan({a}) or _isnan({b})",
    op.F64_NE: "{a} != {b} or _isnan({a}) or _isnan({b})",
    op.F32_LT: "{a} < {b}",
    op.F64_LT: "{a} < {b}",
    op.F32_GT: "{a} > {b}",
    op.F64_GT: "{a} > {b}",
    op.F32_LE: "{a} <= {b}",
    op.F64_LE: "{a} <= {b}",
    op.F32_GE: "{a} >= {b}",
    op.F64_GE: "{a} >= {b}",
}

# NaN-reading comparisons re-evaluate {a}/{b}; those must stay variables.
_MULTI_USE_RELOPS = {op.F32_NE, op.F64_NE}

# Signed comparisons: (bit width, Python operator); see _signed_condition.
_SIGNED_RELOPS = {
    op.I32_LT_S: (32, "<"), op.I32_GT_S: (32, ">"),
    op.I32_LE_S: (32, "<="), op.I32_GE_S: (32, ">="),
    op.I64_LT_S: (64, "<"), op.I64_GT_S: (64, ">"),
    op.I64_LE_S: (64, "<="), op.I64_GE_S: (64, ">="),
}

_MIRRORED = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}

# Integer binops whose literal-literal results fold at compile time.
_FOLDABLE_BINOPS = {
    op.I32_ADD, op.I32_SUB, op.I32_MUL, op.I32_AND, op.I32_OR, op.I32_XOR,
    op.I32_SHL, op.I32_SHR_U, op.I32_SHR_S, op.I32_ROTL, op.I32_ROTR,
    op.I64_ADD, op.I64_SUB, op.I64_MUL, op.I64_AND, op.I64_OR, op.I64_XOR,
    op.I64_SHL, op.I64_SHR_U, op.I64_SHR_S, op.I64_ROTL, op.I64_ROTR,
}

_FOLD_NAMESPACE = {
    "_shrs": num.shr_s, "_rotl": num.rotl, "_rotr": num.rotr,
    "_f32r": num.f32_round,
}

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _fold_compare(code: int, lhs: int, rhs: int) -> int:
    """An integer comparison of two literals, at compile time."""
    if code in _SIGNED_RELOPS:
        bits, operator_text = _SIGNED_RELOPS[code]
        signed = num.s32 if bits == 32 else num.s64
        lhs, rhs = signed(lhs), signed(rhs)
    else:
        operator_text = _RELOPS[code].split()[1]
    return int(_COMPARE[operator_text](lhs, rhs))

# Pure unary operators: opcode -> template over {a}.
_UNOPS: Dict[int, str] = {
    op.I32_CLZ: "_clz({a}, 32)",
    op.I32_CTZ: "_ctz({a}, 32)",
    op.I32_POPCNT: "_popcnt({a})",
    op.I64_CLZ: "_clz({a}, 64)",
    op.I64_CTZ: "_ctz({a}, 64)",
    op.I64_POPCNT: "_popcnt({a})",
    op.F64_ABS: "abs({a})",
    op.F64_NEG: "-({a})",
    op.F64_CEIL: "_fceil({a})",
    op.F64_FLOOR: "_ffloor({a})",
    op.F64_TRUNC: "_ftrunc({a})",
    op.F64_NEAREST: "_fnearest({a})",
    op.F64_SQRT: "_fsqrt({a})",
    op.F32_ABS: "abs({a})",
    op.F32_NEG: "-({a})",
    op.F32_CEIL: "_fceil({a})",
    op.F32_FLOOR: "_ffloor({a})",
    op.F32_TRUNC: "_ftrunc({a})",
    op.F32_NEAREST: "_fnearest({a})",
    op.F32_SQRT: "_f32r(_fsqrt({a}))",
    op.I32_WRAP_I64: "{a} & " + _MASK32,
    op.I64_EXTEND_I32_U: "{a}",
    op.I64_EXTEND_I32_S: "{a} & " + _MASK64,
    op.F32_CONVERT_I32_S: "_f32r(float({a}))",
    op.F32_CONVERT_I32_U: "_f32r(float({a}))",
    op.F32_CONVERT_I64_S: "_f32r(float({a}))",
    op.F32_CONVERT_I64_U: "_f32r(float({a}))",
    op.F32_DEMOTE_F64: "_f32r({a})",
    op.F64_CONVERT_I32_S: "float({a})",
    op.F64_CONVERT_I32_U: "float({a})",
    op.F64_CONVERT_I64_S: "float({a})",
    op.F64_CONVERT_I64_U: "float({a})",
    op.F64_PROMOTE_F32: "{a}",
    op.I32_REINTERPRET_F32: "_ri32f32({a})",
    op.I64_REINTERPRET_F64: "_ri64f64({a})",
    op.F32_REINTERPRET_I32: "_rf32i32({a})",
    op.F64_REINTERPRET_I64: "_rf64i64({a})",
    op.I32_EXTEND8_S: "_ext({a}, 8, 32)",
    op.I32_EXTEND16_S: "_ext({a}, 16, 32)",
    op.I64_EXTEND8_S: "_ext({a}, 8, 64)",
    op.I64_EXTEND16_S: "_ext({a}, 16, 64)",
    op.I64_EXTEND32_S: "_ext({a}, 32, 64)",
}

# Unary operators that read their operand signed, by bit width: ``{a}``
# is the operand's signed reading (see ``_signed_reading``).
_SIGNED_UNOPS = {
    op.I64_EXTEND_I32_S: 32,
    op.F32_CONVERT_I32_S: 32, op.F32_CONVERT_I64_S: 64,
    op.F64_CONVERT_I32_S: 32, op.F64_CONVERT_I64_S: 64,
}

# Int-to-float conversions: their result is nonzero when the operand's
# (signed, for the _S forms) reading is proven >= 1.
_INT_TO_FLOAT = {
    op.F32_CONVERT_I32_S, op.F32_CONVERT_I32_U, op.F32_CONVERT_I64_S,
    op.F32_CONVERT_I64_U, op.F64_CONVERT_I32_S, op.F64_CONVERT_I32_U,
    op.F64_CONVERT_I64_S, op.F64_CONVERT_I64_U,
}

# Float-to-int truncations (trapping, so materialised): opcode ->
# (signed, bit width).
_TRUNCS: Dict[int, Tuple[bool, int]] = {
    op.I32_TRUNC_F32_S: (True, 32), op.I32_TRUNC_F64_S: (True, 32),
    op.I32_TRUNC_F32_U: (False, 32), op.I32_TRUNC_F64_U: (False, 32),
    op.I64_TRUNC_F32_S: (True, 64), op.I64_TRUNC_F64_S: (True, 64),
    op.I64_TRUNC_F32_U: (False, 64), op.I64_TRUNC_F64_U: (False, 64),
}

# The inline test under which ``int(x)`` (masked when signed) is the
# truncation; outside it ``_trunc`` raises the interpreter's trap, and
# NaN and the infinities fail every comparison. The open bounds are the
# integer range widened by one: no double, so no f32 either, lies
# strictly between a bound and the range it encloses. -2^63 - 1 is no
# double, so the signed i64 test closes on -2^63 instead.
_TRUNC_TESTS: Dict[Tuple[bool, int], str] = {
    (True, 32): "-2147483649.0 < {x} < 2147483648.0",
    (False, 32): "-1.0 < {x} < 4294967296.0",
    (True, 64): "-9223372036854775808.0 <= {x} < 9223372036854775808.0",
    (False, 64): "-1.0 < {x} < 18446744073709551616.0",
}

_LOADS: Dict[int, tuple] = {
    op.I32_LOAD: (4, "_upI32({m}, {a})[0]"),
    op.I64_LOAD: (8, "_upI64({m}, {a})[0]"),
    op.F32_LOAD: (4, "_upF32({m}, {a})[0]"),
    op.F64_LOAD: (8, "_upF64({m}, {a})[0]"),
    op.I32_LOAD8_U: (1, "{m}[{a}]"),
    op.I64_LOAD8_U: (1, "{m}[{a}]"),
    op.I32_LOAD8_S: (1, "_ext({m}[{a}], 8, 32)"),
    op.I64_LOAD8_S: (1, "_ext({m}[{a}], 8, 64)"),
    op.I32_LOAD16_U: (2, "_upI16({m}, {a})[0]"),
    op.I64_LOAD16_U: (2, "_upI16({m}, {a})[0]"),
    op.I32_LOAD16_S: (2, "_ext(_upI16({m}, {a})[0], 16, 32)"),
    op.I64_LOAD16_S: (2, "_ext(_upI16({m}, {a})[0], 16, 64)"),
    op.I64_LOAD32_U: (4, "_upI32({m}, {a})[0]"),
    op.I64_LOAD32_S: (4, "_ext(_upI32({m}, {a})[0], 32, 64)"),
}

_STORES: Dict[int, tuple] = {
    op.I32_STORE: (4, "_pkI32({m}, {a}, {v})"),
    op.I64_STORE: (8, "_pkI64({m}, {a}, {v})"),
    op.F32_STORE: (4, "_pkF32({m}, {a}, {v})"),
    op.F64_STORE: (8, "_pkF64({m}, {a}, {v})"),
    op.I32_STORE8: (1, "{m}[{a}] = ({v}) & 0xFF"),
    op.I64_STORE8: (1, "{m}[{a}] = ({v}) & 0xFF"),
    op.I32_STORE16: (2, "_pkI16({m}, {a}, ({v}) & 0xFFFF)"),
    op.I64_STORE16: (2, "_pkI16({m}, {a}, ({v}) & 0xFFFF)"),
    op.I64_STORE32: (4, "_pkI32({m}, {a}, ({v}) & " + _MASK32 + ")"),
}

# Typed-memory-plane templates: when the compiler proves an access aligned
# to its width (every affine coefficient and the constant offset divisible
# by the width), it indexes a `memoryview(..).cast(fmt)` plane directly
# instead of going through struct pack/unpack. ``{i}`` is the *element*
# index (byte address // width). 8-bit accesses already index the
# bytearray directly and need no plane.
_PLANE_LOADS: Dict[int, str] = {
    op.I32_LOAD: "_pI[{i}]",
    op.I64_LOAD: "_pQ[{i}]",
    op.F32_LOAD: "_pF[{i}]",
    op.F64_LOAD: "_pD[{i}]",
    op.I32_LOAD16_U: "_pH[{i}]",
    op.I64_LOAD16_U: "_pH[{i}]",
    op.I32_LOAD16_S: "_ext(_pH[{i}], 16, 32)",
    op.I64_LOAD16_S: "_ext(_pH[{i}], 16, 64)",
    op.I64_LOAD32_U: "_pI[{i}]",
    op.I64_LOAD32_S: "_ext(_pI[{i}], 32, 64)",
}

_PLANE_STORES: Dict[int, str] = {
    op.I32_STORE: "_pI[{i}] = {v}",
    op.I64_STORE: "_pQ[{i}] = {v}",
    op.F32_STORE: "_pF[{i}] = {v}",
    op.F64_STORE: "_pD[{i}] = {v}",
    op.I32_STORE16: "_pH[{i}] = ({v}) & 0xFFFF",
    op.I64_STORE16: "_pH[{i}] = ({v}) & 0xFFFF",
    op.I64_STORE32: "_pI[{i}] = ({v}) & " + _MASK32,
}

#: The plane names the instance namespace must provide, by format code.
_PLANE_NAMES = {"H": "_pH", "I": "_pI", "Q": "_pQ", "f": "_pF", "d": "_pD"}

#: ``memory.grow`` releases the planes, so a function that executes it
#: declares them global and rebinds them after every grow; every function
#: of the instance reads them from those shared globals.
_PLANE_GLOBALS = ", ".join(_PLANE_NAMES.values())
_REBIND_PLANES = \
    f"{_PLANE_GLOBALS} = map(_mem.plane, {''.join(_PLANE_NAMES)!r})"

#: Proven result ranges of zero-extending loads.
_LOAD_RANGES: Dict[int, tuple] = {
    op.I32_LOAD8_U: (0, 0xFF),
    op.I64_LOAD8_U: (0, 0xFF),
    op.I32_LOAD16_U: (0, 0xFFFF),
    op.I64_LOAD16_U: (0, 0xFFFF),
    op.I32_LOAD: (0, 0xFFFFFFFF),
    op.I64_LOAD32_U: (0, 0xFFFFFFFF),
}

# Integer binops the range pass understands (kind, bit width).
_RANGE_BINOPS: Dict[int, tuple] = {
    op.I32_ADD: ("add", 32), op.I64_ADD: ("add", 64),
    op.I32_SUB: ("sub", 32), op.I64_SUB: ("sub", 64),
    op.I32_MUL: ("mul", 32), op.I64_MUL: ("mul", 64),
    op.I32_AND: ("and", 32), op.I64_AND: ("and", 64),
    op.I32_OR: ("or", 32), op.I64_OR: ("or", 64),
    op.I32_XOR: ("xor", 32), op.I64_XOR: ("xor", 64),
    op.I32_SHL: ("shl", 32), op.I64_SHL: ("shl", 64),
    op.I32_SHR_U: ("shru", 32), op.I64_SHR_U: ("shru", 64),
}

_EMPTY: FrozenSet[int] = frozenset()
_NO_TEMPS: FrozenSet[str] = frozenset()


class _Value:
    """One compile-time stack slot: a deferred expression or a variable.

    Beyond the purity facts the spiller needs, each slot optionally carries
    the optimiser's value metadata:

    * ``lo``/``hi`` — a proven inclusive range of the (canonical,
      non-negative) integer value; ``None`` when unknown. The passes use
      it to drop ``& MASK``s on values already in range and to compare
      and convert values below the sign bit without the sign flip.
    * ``nonzero`` — a float proven nonzero (a nonzero literal, or the
      conversion of an integer proven >= 1): a divisor that needs no
      ``_fdiv``.
    * ``affine`` — the *real-arithmetic* (unwrapped) form of the value as
      ``{local_index: coefficient, -1: constant}`` with all coefficients
      non-negative, or ``None``. ``expr`` may wrap (masks); ``affine``
      never does — versioned loops bound it symbolically for the hoisted
      preflight check and rebuild addresses from it mask-free. A value
      with a proven range was built without a wrap, so when it reads no
      temporary its affine form *is* its value, and an access indexes
      straight from it.
    * ``temps`` — generated variable names the expression references
      (``t``/``s``/``h`` vars); an expression is only hoistable to a loop
      preheader when every such name was itself hoisted there.
    """

    __slots__ = ("expr", "locals_read", "reads_global", "reads_memory",
                 "ops", "is_var", "bool_expr", "lo", "hi", "affine", "temps",
                 "nonzero")

    def __init__(self, expr: str, locals_read: FrozenSet[int] = _EMPTY,
                 reads_global: bool = False, reads_memory: bool = False,
                 ops: int = 1, is_var: bool = False,
                 bool_expr: Optional[str] = None,
                 lo: Optional[int] = None, hi: Optional[int] = None,
                 affine: Optional[Dict[int, int]] = None,
                 temps: FrozenSet[str] = _NO_TEMPS,
                 nonzero: bool = False) -> None:
        self.expr = expr
        self.locals_read = locals_read
        self.reads_global = reads_global
        self.reads_memory = reads_memory
        self.ops = ops
        self.is_var = is_var
        # For i32 booleans produced by comparisons/eqz: the raw Python
        # condition, so branches can test it without the 1/0 round trip.
        self.bool_expr = bool_expr
        self.lo = lo
        self.hi = hi
        self.affine = affine
        self.temps = temps
        self.nonzero = nonzero

    @classmethod
    def var(cls, name: str) -> "_Value":
        return cls(name, ops=0, is_var=True, temps=frozenset((name,)))

    @classmethod
    def var_like(cls, name: str, value: "_Value") -> "_Value":
        """A variable slot that keeps ``value``'s range/affine metadata.

        The range still holds (the variable holds the same value). The
        affine form stays usable as a *bound*: materialisation captured
        the locals at some loop point, and the preflight substitutes each
        local's loop-wide maximum, which dominates any captured value.
        """
        return cls(name, ops=0, is_var=True, lo=value.lo, hi=value.hi,
                   affine=value.affine, temps=frozenset((name,)),
                   nonzero=value.nonzero)

    @property
    def paren(self) -> str:
        """The expression, parenthesised unless it is atomic."""
        if self.is_var or self.expr.isidentifier() or _is_literal(self.expr):
            return self.expr
        return f"({self.expr})"

    @property
    def condition(self) -> str:
        """The truth-test form for if/br_if/select."""
        return self.bool_expr if self.bool_expr is not None else self.expr

    @property
    def literal(self) -> Optional[int]:
        """The integer value when this is a literal constant."""
        if _is_literal(self.expr):
            return int(self.expr)
        return None


def _is_literal(expr: str) -> bool:
    return expr.isdigit() or (expr.startswith("-") and expr[1:].isdigit())


def _below_sign(value: _Value, bits: int) -> bool:
    """Proven below the sign bit: the signed reading is the raw value."""
    return value.hi is not None and value.hi < 1 << (bits - 1)


def _flip_sign(value: _Value, bits: int) -> str:
    """``value`` with its sign bit flipped, folded for a literal."""
    sign = 1 << (bits - 1)
    if value.literal is not None:
        return str(value.literal ^ sign)
    return f"({value.paren} ^ {sign})"


def _signed_condition(operator: str, lhs: _Value, rhs: _Value,
                      bits: int) -> str:
    """A signed comparison, with no call.

    Both operands proven below the sign bit compare directly. With one,
    ``k``, proven there, and the other, ``x``, a variable: a negative
    ``x`` (raw value at or above the sign bit) is below every ``k``, so
    signed ``x < k`` is raw ``x < k or x >= 2^(bits-1)`` and signed
    ``x > k`` is raw ``k < x < 2^(bits-1)``: one comparison while ``x``
    is non-negative. Otherwise both sign bits flip, which maps signed
    order onto unsigned order.
    """
    sign = 1 << (bits - 1)
    lhs_small, rhs_small = _below_sign(lhs, bits), _below_sign(rhs, bits)
    if lhs_small and rhs_small:
        return f"{lhs.paren} {operator} {rhs.paren}"
    x, k = (rhs, lhs) if lhs_small else (lhs, rhs)
    if (lhs_small or rhs_small) and (x.is_var or x.expr.isidentifier()):
        if lhs_small:
            operator = _MIRRORED[operator]
        if operator in ("<", "<="):
            return f"{x.expr} {operator} {k.paren} or {x.expr} >= {sign}"
        return f"{k.paren} {_MIRRORED[operator]} {x.expr} < {sign}"
    return f"{_flip_sign(lhs, bits)} {operator} {_flip_sign(rhs, bits)}"


def _signed_reading(value: _Value, bits: int) -> str:
    """Source for ``value`` read as a two's-complement integer."""
    if _below_sign(value, bits):
        return value.paren
    if value.literal is not None:
        signed = num.s32(value.literal) if bits == 32 \
            else num.s64(value.literal)
        return f"({signed})"
    return aotopt.signed_text(value.paren, bits)


class _Emitter:
    """Accumulates generated source with explicit indentation control."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        #: Statements emitted so far (preheader inserts do not count), so
        #: a suite can tell whether it is still empty.
        self.count = 0

    def emit(self, line: str) -> None:
        # Single-space indentation maximises nesting headroom in the
        # tokenizer for deeply nested Wasm control flow.
        self.lines.append(" " * self.indent + line)
        self.count += 1

    def extend(self, other: "_Emitter") -> None:
        self.lines.extend(other.lines)
        self.count += other.count

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Frame:
    """One open structured construct during compilation."""

    __slots__ = ("kind", "label", "entry_height", "arity", "py_loop",
                 "mark", "unwind", "known", "targeted")

    def __init__(self, kind: int, label: int, entry_height: int,
                 arity: int, py_loop: bool, known: Dict[int, int]) -> None:
        self.kind = kind
        #: The opener's instruction index: unique, and stable across the
        #: two compilations of a versioned loop.
        self.label = label
        self.entry_height = entry_height
        self.arity = arity
        #: Lowered to a ``while True:`` (see ``aotopt.python_loops``).
        self.py_loop = py_loop
        #: ``_Emitter.count`` when the innermost open suite began.
        self.mark = 0
        #: For a Python loop that branches cross: target label -> the
        #: statement that consumes ``_br`` after this loop, or None to
        #: keep unwinding.
        self.unwind: Dict[int, Optional[str]] = {}
        #: The known-literal locals on entry.
        self.known = known
        #: Set once a live branch targets the construct.
        self.targeted = False


class _LoopCtx:
    """Optimiser state for one loop currently being compiled."""

    __slots__ = ("index", "info", "frame", "emitter", "insert_at", "indent",
                 "hoisted", "ind_local", "ind_lo", "ind_hi")

    def __init__(self, index: int, info: aotopt.LoopInfo, frame: _Frame,
                 emitter: _Emitter, insert_at: int, indent: int) -> None:
        self.index = index
        self.info = info
        self.frame = frame
        self.emitter = emitter
        #: Line index in ``emitter`` where preheader statements land.
        self.insert_at = insert_at
        self.indent = indent
        #: expr -> hoisted variable name (dedup within this preheader).
        self.hoisted: Dict[str, str] = {}
        induction = info.induction
        self.ind_local = induction.local if induction else None
        self.ind_lo: int = 0
        self.ind_hi: Optional[int] = None
        if induction is not None and induction.loop_hi is not None \
                and (not induction.signed or induction.fast_path_sound()[0]):
            self.ind_hi = induction.loop_hi
            # The init is a lower bound only when the masked step add can
            # never wrap past 2^32 (it always holds for sound signed
            # loops; unsigned loops need the explicit ceiling check).
            if induction.max_numeric + induction.step <= num.MASK32:
                self.ind_lo = induction.loop_lo


class _FastCtx:
    """Collects preflight requirements while probing a versioned loop."""

    __slots__ = ("root", "reqs", "numeric", "failed")

    def __init__(self, root: aotopt.LoopInfo) -> None:
        self.root = root
        self.reqs: List[str] = []
        #: Max over fully-constant address bounds: one combined check.
        self.numeric: Optional[int] = None
        self.failed = False

    def require(self, condition: str) -> None:
        if condition not in self.reqs:
            self.reqs.append(condition)

    def require_numeric(self, bound: int) -> None:
        if self.numeric is None or bound > self.numeric:
            self.numeric = bound

    def conditions(self) -> List[str]:
        conditions = []
        if self.numeric is not None:
            conditions.append(f"{self.numeric} <= _ml")
        return conditions + self.reqs


#: Preflight checks beyond this count cost more than they save.
_MAX_PREFLIGHT = 8


class _FunctionCompiler:
    """Compiles one decoded function body into Python source."""

    def __init__(self, module: Module, func: Function, func_index: int,
                 use_planes: bool) -> None:
        self.module = module
        self.func = func
        self.func_index = func_index
        self.func_type = module.types[func.type_index]
        self.out = _Emitter()
        self.frames: List[_Frame] = []
        self.next_temp = 0
        self.next_hoist = 0
        self.stack: List[_Value] = []
        self.use_planes = use_planes
        self.local_types: List[ValType] = \
            list(self.func_type.params) + list(func.locals)
        self.analysis: Dict[int, aotopt.LoopInfo] = aotopt.analyze(func)
        self.py_loops = aotopt.python_loops(func.body)
        #: A leaf calls nothing, so nothing can observe its call depth.
        self.leaf = not any(instr.opcode in (op.CALL, op.CALL_INDIRECT)
                            for instr in func.body)
        #: Loops lowered as straight-line copies: LOOP index -> trips.
        #: Only a hot function's (see ``aotopt.hot_functions``) unroll.
        self.unroll: Dict[int, int] = {}
        if func_index in aotopt.hot_functions(module):
            self.unroll = aotopt.unroll_plan(func.body, self.analysis)
        #: Locals whose value here is a known integer literal.
        self.known: Dict[int, int] = {}
        #: Set once some branch unwinds through ``_br``.
        self.uses_br = False
        #: Set once a ``memory.grow`` rebinds the planes.
        self.grows = False
        #: Hoists an address indexed from its affine form did not read.
        self.bypassed: set = set()
        self.loop_ctxs: List[_LoopCtx] = []
        self.fast: Optional[_FastCtx] = None
        #: Depth of versioned-region recompilation (no nested versioning).
        self.version_depth = 0
        #: Loops whose version probe failed; compiled plainly thereafter.
        self.no_version: set = set()

    # -- stack management ---------------------------------------------------------
    #
    # Naming discipline: mid-stream materialisations always get a *fresh*
    # temporary (t{n}) so a deferred expression can never observe its
    # referenced variable being recycled. Canonical position names (s{i})
    # are written only at control-flow boundaries by `_spill_all`, in
    # ascending position order — an entry can only reference position
    # names of positions <= its own (values are consumed linearly), so
    # the ascending pass reads every old value before overwriting it.

    def _push(self, expr: str, locals_read: FrozenSet[int] = _EMPTY,
              reads_global: bool = False, reads_memory: bool = False,
              ops: int = 1, bool_expr: Optional[str] = None,
              lo: Optional[int] = None, hi: Optional[int] = None,
              affine: Optional[Dict[int, int]] = None,
              temps: FrozenSet[str] = _NO_TEMPS,
              nonzero: bool = False) -> None:
        value = _Value(expr, locals_read, reads_global, reads_memory, ops,
                       bool_expr=bool_expr, lo=lo, hi=hi, affine=affine,
                       temps=temps, nonzero=nonzero)
        self._push_value(value)

    def _push_value(self, value: _Value) -> None:
        if self._try_hoist(value):
            return
        self.stack.append(value)
        if value.ops > _MAX_FUSED_OPS:
            self._materialize(len(self.stack) - 1)

    def _try_hoist(self, value: _Value) -> bool:
        """Loop-invariant code motion: move ``value`` to the preheader.

        Eligible when a loop is open, the expression is pure (deferred
        expressions always are), big enough to be worth a variable, reads
        no state the loop region writes, and references only variables
        that were themselves hoisted to an enclosing preheader.
        """
        if not self.loop_ctxs or value.is_var or value.bool_expr is not None:
            return False
        if value.ops < 2 or value.reads_global or value.reads_memory:
            return False
        ctx = self.loop_ctxs[-1]
        if value.locals_read & ctx.info.writes:
            return False
        if value.temps and not value.temps <= self._hoisted_names():
            return False
        name = ctx.hoisted.get(value.expr)
        if name is None:
            name = f"h{self.next_hoist}"
            self.next_hoist += 1
            ctx.hoisted[value.expr] = name
            line = " " * ctx.indent + f"{name} = {value.expr}"
            ctx.emitter.lines.insert(ctx.insert_at, line)
            ctx.insert_at += 1
        self.stack.append(_Value.var_like(name, value))
        return True

    def _hoisted_names(self) -> set:
        """The variables hoisted to the preheader of an open loop: each
        is invariant anywhere inside its loop."""
        names = set()
        for ctx in self.loop_ctxs:
            names.update(ctx.hoisted.values())
        return names

    def _push_var(self, expr: str, lo: Optional[int] = None,
                  hi: Optional[int] = None,
                  affine: Optional[Dict[int, int]] = None) -> None:
        """Materialise ``expr`` into a fresh temporary immediately."""
        name = f"t{self.next_temp}"
        self.next_temp += 1
        self.out.emit(f"{name} = {expr}")
        self.stack.append(
            _Value(name, ops=0, is_var=True, lo=lo, hi=hi, affine=affine,
                   temps=frozenset((name,))))

    def _pop(self) -> _Value:
        return self.stack.pop()

    def _materialize(self, position: int) -> None:
        """Evaluate a deferred entry now, into a fresh temporary."""
        value = self.stack[position]
        if value.is_var:
            return
        name = f"t{self.next_temp}"
        self.next_temp += 1
        self.out.emit(f"{name} = {value.expr}")
        self.stack[position] = _Value.var_like(name, value)

    def _spill(self, position: int) -> None:
        """Place a stack entry into its canonical boundary variable."""
        value = self.stack[position]
        name = f"s{position}"
        if value.is_var and value.expr == name:
            return
        self.out.emit(f"{name} = {value.expr}")
        self.stack[position] = _Value.var_like(name, value)

    def _spill_all(self) -> None:
        for position in range(len(self.stack)):
            self._spill(position)

    def _spill_local_readers(self, local_index: int) -> None:
        for position, value in enumerate(self.stack):
            if local_index in value.locals_read:
                self._materialize(position)

    def _spill_global_readers(self) -> None:
        for position, value in enumerate(self.stack):
            if value.reads_global:
                self._materialize(position)

    def _spill_memory_readers(self) -> None:
        for position, value in enumerate(self.stack):
            if value.reads_memory:
                self._materialize(position)

    def _spill_call_clobbered(self) -> None:
        """A call may write globals and memory (not our locals)."""
        for position, value in enumerate(self.stack):
            if value.reads_global or value.reads_memory:
                self._materialize(position)

    def _reset_stack(self, height: int) -> None:
        """Canonical var entries s0..s{height-1} (control-join state)."""
        self.stack = [_Value.var(f"s{i}") for i in range(height)]

    # -- helpers ----------------------------------------------------------------

    def _result_expr(self) -> str:
        if len(self.func_type.results) == 0:
            return "None"
        return self.stack[-1].expr if self.stack else "None"

    def _emit_branch(self, depth: int) -> None:
        """Emit the transfer for ``br depth``; stack entries are vars."""
        height = len(self.stack)
        if depth >= len(self.frames):
            # Branch to the function frame: a return.
            if len(self.func_type.results) == 0:
                self.out.emit("return None")
            else:
                self.out.emit(f"return s{height - 1}")
            return
        target = self.frames[-1 - depth]
        target.targeted = True
        arity = 0 if target.kind == op.LOOP else target.arity
        base = target.entry_height
        source_base = height - arity
        for position in range(arity):
            if source_base + position != base + position:
                self.out.emit(f"s{base + position} = s{source_base + position}")
        crossed = [frame for frame in self.frames[len(self.frames) - depth:]
                   if frame.py_loop]
        if target.py_loop:
            action = "continue" if target.kind == op.LOOP else "break"
        else:
            # python_loops guarantees the outermost crossed loop ends
            # where the target does: leaving it is the branch.
            action = "break"
            del crossed[0]
        if not crossed:
            self.out.emit(action)
            return
        # Unwind through the crossed loops: the outermost one consumes
        # ``_br`` with the action, the inner ones keep breaking.
        self.uses_br = True
        self.out.emit(f"_br = {target.label}")
        self.out.emit("break")
        crossed[0].unwind[target.label] = action
        for frame in crossed[1:]:
            frame.unwind[target.label] = None

    def _emit_epilogue(self, frame: _Frame) -> None:
        """After a Python loop that branches cross: route ``_br``."""
        out = self.out
        for label, action in frame.unwind.items():
            if action is not None:
                out.emit(f"if _br == {label}:")
                out.indent += 1
                out.emit("_br = -1")
                out.emit(action)
                out.indent -= 1
        if None in frame.unwind.values():
            out.emit("if _br >= 0: break")

    # -- main pass ---------------------------------------------------------------

    def compile(self) -> str:
        func_type = self.func_type
        out = self.out
        params = [f"l{i}" for i in range(len(func_type.params))]
        name = f"_wasm_f{self.func_index}"
        out.emit(f"def {name}({', '.join(params)}):")
        out.indent += 1
        if self.leaf:
            # Same trap as Instance.enter_call, without the bookkeeping:
            # no callee can observe this frame's depth.
            out.emit(f"if _inst.call_depth >= {MAX_CALL_DEPTH}: "
                     "_trap('call stack exhausted')")
        else:
            out.emit("_inst.enter_call()")
            out.emit("try:")
            out.indent += 1
        for offset, valtype in enumerate(self.func.locals):
            index = len(params) + offset
            zero = "0" if valtype.is_integer else "0.0"
            out.emit(f"l{index} = {zero}")
        body_at = len(out.lines)
        self._compile_range(0, len(self.func.body))
        if self.uses_br:
            out.lines.insert(body_at, " " * out.indent + "_br = -1")
        _drop_unread_hoists(out.lines, self.bypassed)
        if self.grows:
            out.lines.insert(1, f" global {_PLANE_GLOBALS}")
        if not self.leaf:
            out.indent -= 1
            out.emit("finally:")
            out.indent += 1
            out.emit("_inst.exit_call()")
        return out.source()

    def _pop_loop_ctx(self, frame: _Frame) -> None:
        if self.loop_ctxs and self.loop_ctxs[-1].frame is frame:
            self.loop_ctxs.pop()

    def _open(self, kind: int, index: int, arity: int,
              header: Optional[str] = None) -> _Frame:
        """Open a construct: its ``while True:`` if it is a Python loop,
        then ``header`` (an ``if`` line) if given."""
        frame = _Frame(kind, index, len(self.stack), arity,
                       index in self.py_loops, dict(self.known))
        self.frames.append(frame)
        out = self.out
        if frame.py_loop:
            out.emit(f"while True:  # {op.name(kind)} @{index}")
            out.indent += 1
        if header is not None:
            out.emit(header)
            out.indent += 1
        frame.mark = out.count
        return frame

    def _end_suite(self, frame: _Frame) -> None:
        """Dedent out of ``frame``'s open suite, which Python requires to
        hold a statement."""
        if self.out.count == frame.mark:
            self.out.emit("pass")
        self.out.indent -= 1

    def _close(self, live: bool) -> None:
        """Close the innermost construct at its ``end``; ``live`` when
        control can fall off its last arm."""
        frame = self.frames.pop()
        self._pop_loop_ctx(frame)
        if frame.kind != op.LOOP and (frame.kind == op.IF or frame.targeted):
            # A join: a local any path through the construct may have
            # written is no longer a known literal.
            writes = aotopt.written_locals(self.func.body, frame.label) \
                if frame.known else ()
            self.known = {local: value
                          for local, value in frame.known.items()
                          if local not in writes}
        out = self.out
        if frame.kind == op.IF:
            self._end_suite(frame)
        if frame.py_loop:
            # Falling off the body leaves the loop. An if's other arm may
            # fall through even when this one cannot.
            if live or frame.kind == op.IF:
                out.emit("break")
            self._end_suite(frame)
            self._emit_epilogue(frame)
        self._reset_stack(frame.entry_height + frame.arity)

    def _compile_range(self, start: int, stop: int) -> bool:
        """Compile the instruction range ``[start, stop)``; True when
        control cannot fall off its end.

        The whole function body is one range; a versioned loop compiles
        its own ``[loop, end]`` sub-range twice (fast probe + safe copy)
        and an unrolled loop its body once per trip, all through the same
        machinery.
        """
        module = self.module
        body = self.func.body
        dead = False
        dead_depth = 0
        skip_until = -1

        for index in range(start, stop):
            if index < skip_until:
                continue
            instr = body[index]
            code = instr.opcode
            out = self.out

            if dead:
                # Skip unreachable code up to the else/end that closes
                # the construct the transfer left.
                if code in (op.BLOCK, op.LOOP, op.IF):
                    dead_depth += 1
                    continue
                if code not in (op.ELSE, op.END):
                    continue
                if dead_depth:
                    if code == op.END:
                        dead_depth -= 1
                    continue

            if code == op.NOP:
                continue

            # The commonest instructions first.
            if code == op.LOCAL_GET:
                self._push_local(instr.arg)
            elif code == op.LOCAL_SET or code == op.LOCAL_TEE:
                value = self._pop()
                self._spill_local_readers(instr.arg)
                out.emit(f"l{instr.arg} = {value.expr}")
                if value.literal is None:
                    self.known.pop(instr.arg, None)
                else:
                    self.known[instr.arg] = value.literal
                if code == op.LOCAL_TEE:
                    self._push_local(instr.arg)
            elif code in (op.I32_CONST, op.I64_CONST):
                # `_push_literal` inlined: decoded constants are canonical
                # (non-negative), and this is the lowering's hottest push.
                literal = instr.arg
                self._push(str(literal), ops=0, lo=literal, hi=literal,
                           affine={-1: literal} if code == op.I32_CONST
                           else None)
            elif code in _BINOPS:
                rhs = self._pop()
                lhs = self._pop()
                if (code in _FOLDABLE_BINOPS and lhs.literal is not None
                        and rhs.literal is not None):
                    folded = eval(  # compile-time, pure integer arithmetic
                        _BINOPS[code].format(a=lhs.expr, b=rhs.expr),
                        dict(_FOLD_NAMESPACE),
                    )
                    if folded >= 0:
                        self._push(str(folded), ops=0, lo=folded, hi=folded,
                                   affine={-1: folded}
                                   if _RANGE_BINOPS.get(code, ("", 0))[1] == 32
                                   else None)
                    else:
                        self._push(str(folded), ops=0)
                    continue
                if code in _RANGE_BINOPS:
                    self._push_value(self._range_binop(code, lhs, rhs))
                    continue
                template = _BINOPS[code]
                if code in _PLAIN_FDIV and rhs.nonzero:
                    template = _PLAIN_FDIV[code]
                self._push(
                    template.format(a=lhs.paren, b=rhs.paren),
                    locals_read=lhs.locals_read | rhs.locals_read,
                    reads_global=lhs.reads_global or rhs.reads_global,
                    reads_memory=lhs.reads_memory or rhs.reads_memory,
                    ops=lhs.ops + rhs.ops + 1,
                    temps=lhs.temps | rhs.temps,
                )
            elif code == op.BLOCK:
                if index + 1 in self.unroll:
                    skip_until, dead = self._compile_unrolled(index + 1)
                    continue
                self._spill_all()
                self._open(code, index, instr.arg.arity)
            elif code == op.LOOP:
                if self._can_version(index):
                    skip_until = self._compile_versioned_loop(index)
                    continue
                self._spill_all()
                info = self.analysis.get(index)
                insert_at, indent = len(out.lines), out.indent
                frame = self._open(code, index, instr.arg.arity)
                # The back edges join here.
                self.known = {local: value
                              for local, value in self.known.items()
                              if local not in info.writes}
                if frame.py_loop and info is not None:
                    self.loop_ctxs.append(_LoopCtx(index, info, frame, out,
                                                   insert_at, indent))
            elif code == op.IF:
                condition = self._pop()
                self._spill_all()
                literal = condition.literal
                if literal is not None:
                    # Only the arm that runs, as a block (walc's `if (1)`
                    # scope around a `for` init, say). A then arm's
                    # `else` skips to the end.
                    if literal or instr.else_target != -1:
                        self._open(op.BLOCK, index, instr.arg.arity)
                    if not literal:
                        skip_until = instr.target + 1 \
                            if instr.else_target == -1 \
                            else instr.else_target + 1
                else:
                    self._open(code, index, instr.arg.arity,
                               f"if {condition.condition}:")
            elif code == op.ELSE:
                frame = self.frames[-1]
                if frame.kind == op.BLOCK:
                    # An `if` on a nonzero literal, lowered as a block:
                    # its then arm ran, so skip the else arm.
                    skip_until = body[frame.label].target
                    continue
                if not dead:
                    self._spill_all()
                if body[index + 1].opcode != op.END:
                    self._end_suite(frame)
                    out.emit("else:")
                    out.indent += 1
                    frame.mark = out.count
                self._reset_stack(frame.entry_height)
                self.known = dict(frame.known)
                dead = False
            elif code == op.END:
                if not self.frames:
                    if not dead:
                        out.emit(f"return {self._result_expr()}")
                    dead = False
                    continue
                if not dead:
                    self._spill_all()
                self._close(live=not dead)
                dead = False
            elif code == op.BR:
                self._spill_all()
                # A back edge that is the loop body's last statement is
                # the `while` falling off its end: nothing to emit.
                if not (instr.arg == 0 and self.frames
                        and self.frames[-1].kind == op.LOOP
                        and body[index + 1].opcode == op.END):
                    self._emit_branch(instr.arg)
                dead = True
            elif code == op.BR_IF:
                condition = self._pop()
                self._spill_all()
                out.emit(f"if {condition.condition}:")
                out.indent += 1
                self._emit_branch(instr.arg)
                out.indent -= 1
            elif code == op.BR_TABLE:
                depths, default = instr.arg
                selector = self._pop()
                self._spill_all()
                if depths:
                    out.emit(f"_i = {selector.expr}")
                    for position, depth in enumerate(depths):
                        keyword = "if" if position == 0 else "elif"
                        out.emit(f"{keyword} _i == {position}:")
                        out.indent += 1
                        self._emit_branch(depth)
                        out.indent -= 1
                    out.emit("else:")
                    out.indent += 1
                    self._emit_branch(default)
                    out.indent -= 1
                else:
                    self._emit_branch(default)
                dead = True
            elif code == op.RETURN:
                out.emit(f"return {self._result_expr()}")
                dead = True
            elif code == op.UNREACHABLE:
                out.emit('_trap("unreachable executed")')
                dead = True
            elif code == op.CALL:
                signature = module.func_type(instr.arg)
                nparams = len(signature.params)
                arguments = self.stack[len(self.stack) - nparams:] \
                    if nparams else []
                del self.stack[len(self.stack) - nparams:]
                self._spill_call_clobbered()
                argument_list = ", ".join(a.expr for a in arguments)
                if signature.results:
                    self._push_var(f"_f[{instr.arg}]({argument_list})")
                else:
                    out.emit(f"_f[{instr.arg}]({argument_list})")
            elif code == op.CALL_INDIRECT:
                signature = module.types[instr.arg]
                element = self._pop()
                nparams = len(signature.params)
                arguments = self.stack[len(self.stack) - nparams:] \
                    if nparams else []
                del self.stack[len(self.stack) - nparams:]
                self._spill_call_clobbered()
                out.emit(f"_fi = _tbl.get({element.expr})")
                out.emit(f"if _ft[_fi] != _sig{instr.arg}:")
                out.indent += 1
                out.emit('_trap("indirect call signature mismatch")')
                out.indent -= 1
                argument_list = ", ".join(a.expr for a in arguments)
                if signature.results:
                    self._push_var(f"_f[_fi]({argument_list})")
                else:
                    out.emit(f"_f[_fi]({argument_list})")
            elif code == op.DROP:
                self._pop()  # deferred expressions are pure: discard
            elif code == op.SELECT:
                condition = self._pop()
                self._spill(len(self.stack) - 2)
                self._spill(len(self.stack) - 1)
                top = len(self.stack)
                out.emit(f"if not ({condition.condition}):")
                out.indent += 1
                out.emit(f"s{top - 2} = s{top - 1}")
                out.indent -= 1
                self._pop()
            elif code == op.GLOBAL_GET:
                self._push(f"_g[{instr.arg}].value", reads_global=True, ops=1)
            elif code == op.GLOBAL_SET:
                value = self._pop()
                self._spill_global_readers()
                out.emit(f"_g[{instr.arg}].value = {value.expr}")
            elif code in (op.F32_CONST, op.F64_CONST):
                value = instr.arg
                # NaN != 0.0 too: any divisor but a zero takes plain `/`.
                nonzero = value != 0.0
                if math.isnan(value):
                    self._push("float('nan')", ops=0, nonzero=nonzero)
                elif math.isinf(value):
                    sign = "-" if value < 0 else ""
                    self._push(f"float('{sign}inf')", ops=0, nonzero=nonzero)
                else:
                    self._push(repr(value), ops=0, nonzero=nonzero)
            elif code in _LOADS:
                width, template = _LOADS[code]
                address = self._pop()
                lo, hi = _LOAD_RANGES.get(code, (None, None))
                on_plane, index_text = self._access(
                    code, _PLANE_LOADS, address, instr.arg or 0, width)
                if on_plane:
                    expr = _PLANE_LOADS[code].format(i=index_text)
                else:
                    expr = template.format(m="_m", a=index_text)
                # A load stays a statement at its own instruction, so it
                # faults there, ahead of any later store.
                self._push_var(expr, lo=lo, hi=hi)
            elif code in _STORES:
                width, template = _STORES[code]
                value = self._pop()
                address = self._pop()
                self._spill_memory_readers()
                on_plane, index_text = self._access(
                    code, _PLANE_STORES, address, instr.arg or 0, width)
                if on_plane:
                    out.emit(_PLANE_STORES[code].format(i=index_text,
                                                        v=value.expr))
                else:
                    out.emit(template.format(m="_m", a=index_text,
                                             v=value.expr))
            elif code == op.MEMORY_SIZE:
                self._push("_mem.size_pages", reads_memory=True, ops=1)
            elif code == op.MEMORY_GROW:
                value = self._pop()
                self._spill_memory_readers()
                self._push_var(f"_mem.grow({value.expr}) & {_MASK32}")
                if self.use_planes:
                    out.emit(_REBIND_PLANES)
                    self.grows = True
            elif code in (op.I32_EQZ, op.I64_EQZ):
                operand = self._pop()
                if operand.literal is not None:
                    self._push_literal(int(operand.literal == 0), True)
                    continue
                if operand.bool_expr is not None:
                    raw = f"not ({operand.bool_expr})"
                else:
                    raw = f"{operand.paren} == 0"
                self._push(
                    f"1 if {raw} else 0",
                    locals_read=operand.locals_read,
                    reads_global=operand.reads_global,
                    reads_memory=operand.reads_memory,
                    ops=operand.ops + 2,
                    bool_expr=raw,
                    lo=0, hi=1, temps=operand.temps,
                )
            elif code in _TRAPPING_BINOPS:
                rhs = self._pop()
                lhs = self._pop()
                self._push_var(
                    _TRAPPING_BINOPS[code].format(a=lhs.expr, b=rhs.expr))
            elif code in _RELOPS or code in _SIGNED_RELOPS:
                rhs = self._pop()
                lhs = self._pop()
                if lhs.literal is not None and rhs.literal is not None:
                    self._push_literal(
                        _fold_compare(code, lhs.literal, rhs.literal), True)
                    continue
                if code in _MULTI_USE_RELOPS:
                    # The template reads each operand more than once:
                    # materialise both into fresh temporaries first.
                    self.stack.append(lhs)
                    self._materialize(len(self.stack) - 1)
                    self.stack.append(rhs)
                    self._materialize(len(self.stack) - 1)
                    rhs = self._pop()
                    lhs = self._pop()
                if code in _SIGNED_RELOPS:
                    bits, operator = _SIGNED_RELOPS[code]
                    raw = _signed_condition(operator, lhs, rhs, bits)
                else:
                    raw = _RELOPS[code].format(a=lhs.paren, b=rhs.paren)
                self._push(
                    f"1 if {raw} else 0",
                    locals_read=lhs.locals_read | rhs.locals_read,
                    reads_global=lhs.reads_global or rhs.reads_global,
                    reads_memory=lhs.reads_memory or rhs.reads_memory,
                    ops=lhs.ops + rhs.ops + 2,
                    bool_expr=raw,
                    lo=0, hi=1, temps=lhs.temps | rhs.temps,
                )
            elif code in _UNOPS:
                operand = self._pop()
                template = _UNOPS[code]
                if template == "{a}":
                    self.stack.append(operand)
                    continue
                if operand.hi is not None:
                    # Conversions that are identities on proven-in-range
                    # values: the wrap/sign-extension cannot fire.
                    if (code == op.I32_WRAP_I64
                            and operand.hi <= num.MASK32) or \
                       (code == op.I64_EXTEND_I32_S
                            and operand.hi < (1 << 31)):
                        self.stack.append(operand)
                        continue
                text = operand.paren
                bits = _SIGNED_UNOPS.get(code)
                if bits:
                    text = _signed_reading(operand, bits)
                if code in _INT_TO_FLOAT and operand.literal is not None:
                    # `float(3)` is `3.0`: convert the literal now (an
                    # integer's float is finite, even rounded to f32).
                    folded = eval(template.format(a=text),
                                  dict(_FOLD_NAMESPACE))
                    self._push(repr(folded), ops=0, nonzero=folded != 0.0)
                    continue
                self._push(
                    template.format(a=text),
                    locals_read=operand.locals_read,
                    reads_global=operand.reads_global,
                    reads_memory=operand.reads_memory,
                    ops=operand.ops + 1,
                    temps=operand.temps,
                    nonzero=(code in _INT_TO_FLOAT and operand.lo is not None
                             and operand.lo >= 1
                             and (not bits or _below_sign(operand, bits))),
                )
            elif code in _TRUNCS:
                operand = self._pop()
                if not (operand.is_var or operand.expr.isidentifier()):
                    # The fast path reads its operand three times.
                    self.stack.append(operand)
                    self._materialize(len(self.stack) - 1)
                    operand = self._pop()
                signed, bits = _TRUNCS[code]
                x = operand.expr
                fast = f"int({x})"
                if signed:
                    fast += " & " + (_MASK32 if bits == 32 else _MASK64)
                test = _TRUNC_TESTS[signed, bits].format(x=x)
                self._push_var(f"{fast} if {test} "
                               f"else _trunc({x}, {signed}, {bits})")
            else:
                raise WasmError(f"AOT: unimplemented opcode {op.name(code)}")
        return dead

    def _compile_unrolled(self, index: int) -> Tuple[int, bool]:
        """Lower the loop at ``index`` (see ``aotopt.unroll_plan``) as
        one straight-line copy of its body per trip, with the induction
        local a known literal in each: the guard and the step emit
        nothing, and the local is set to its exit value after the last
        copy. Returns the index past the exit block and whether control
        cannot get there (a copy always returns)."""
        info = self.analysis[index]
        induction = info.induction
        local = induction.local
        # A loop inside whose guard bound is this local reads it by name
        # in its versioning preflight: keep the variable current there.
        named = any(inner.induction is not None
                    and inner.induction.bound_local == local
                    for start, inner in self.analysis.items()
                    if index < start < info.end)
        self._spill_all()
        height = len(self.stack)
        value = induction.init
        for _ in range(self.unroll[index]):
            self.known[local] = value
            if named:
                self.out.emit(f"l{local} = {value}")
            if self._compile_range(induction.body_start, info.end - 5):
                return info.end + 2, True
            # `br` drops whatever the body left above the loop's base.
            del self.stack[height:]
            value += induction.step
        if value != induction.init:
            self.out.emit(f"l{local} = {value}")
        self.known[local] = value
        return info.end + 2, False

    # -- optimisation passes ------------------------------------------------------

    def _push_literal(self, literal: int, is32: bool) -> None:
        """An integer literal: its own range, and for i32 its affine form."""
        if literal >= 0:
            self._push(str(literal), ops=0, lo=literal, hi=literal,
                       affine={-1: literal} if is32 else None)
        else:
            self._push(str(literal), ops=0)

    def _push_local(self, local: int) -> None:
        """local.get / the re-read half of local.tee, with metadata."""
        if self.known and local in self.known:
            self._push_literal(self.known[local],
                               self.local_types[local] == ValType.I32)
            return
        lo = hi = None
        affine = None
        if self.local_types[local] == ValType.I32:
            affine = {local: 1}
            # Inside its loop, an induction local's range is tighter.
            for ctx in reversed(self.loop_ctxs):
                if ctx.ind_local == local and ctx.ind_hi is not None:
                    lo, hi = ctx.ind_lo, ctx.ind_hi
                    break
        self._push(f"l{local}", locals_read=frozenset((local,)), ops=1,
                   lo=lo, hi=hi, affine=affine)

    def _range_binop(self, code: int, lhs: _Value, rhs: _Value) -> _Value:
        """An integer binop through the value-range lattice.

        Emits the mask-free form whenever the result provably fits the
        type's range (the ``& MASK`` would be the identity); tracks the
        real-arithmetic affine form for i32 address computations.
        """
        kind, bits = _RANGE_BINOPS[code]
        mask = num.MASK32 if bits == 32 else num.MASK64
        is32 = bits == 32
        a_lo, a_hi = (lhs.lo, lhs.hi) if lhs.hi is not None else (0, mask)
        b_lo, b_hi = (rhs.lo, rhs.hi) if rhs.hi is not None else (0, mask)
        expr = None
        lo = hi = None
        affine = None
        if kind == "add":
            if a_hi + b_hi <= mask:
                expr = f"{lhs.paren} + {rhs.paren}"
                lo, hi = a_lo + b_lo, a_hi + b_hi
            if is32 and lhs.affine is not None and rhs.affine is not None:
                affine = dict(lhs.affine)
                for key, coeff in rhs.affine.items():
                    affine[key] = affine.get(key, 0) + coeff
        elif kind == "sub":
            if a_lo >= b_hi:
                expr = f"{lhs.paren} - {rhs.paren}"
                lo, hi = a_lo - b_hi, a_hi - b_lo
                # Borrow-free subtraction of a constant keeps the value
                # affine (only the constant term may go negative).
                if is32 and rhs.literal is not None \
                        and lhs.affine is not None:
                    affine = dict(lhs.affine)
                    affine[-1] = affine.get(-1, 0) - rhs.literal
        elif kind == "mul":
            if a_hi * b_hi <= mask:
                expr = f"{lhs.paren} * {rhs.paren}"
                lo, hi = a_lo * b_lo, a_hi * b_hi
            if is32:
                if rhs.literal is not None and lhs.affine is not None:
                    affine = {key: coeff * rhs.literal
                              for key, coeff in lhs.affine.items()}
                elif lhs.literal is not None and rhs.affine is not None:
                    affine = {key: coeff * lhs.literal
                              for key, coeff in rhs.affine.items()}
        elif kind == "and":
            literal = rhs.literal if rhs.literal is not None else lhs.literal
            other = lhs if rhs.literal is not None else rhs
            other_hi = a_hi if other is lhs else b_hi
            if literal is not None and (literal + 1) & literal == 0 \
                    and other_hi <= literal:
                return other  # the mask is the identity: drop it
            lo, hi = 0, min(a_hi, b_hi)
        elif kind in ("or", "xor"):
            lo = 0
            hi = (1 << max(a_hi.bit_length(), b_hi.bit_length())) - 1
        elif kind == "shl":
            if rhs.literal is not None:
                count = rhs.literal % bits
                if a_hi << count <= mask:
                    expr = f"{lhs.paren} << {count}"
                    lo, hi = a_lo << count, a_hi << count
                if is32 and lhs.affine is not None:
                    affine = {key: coeff << count
                              for key, coeff in lhs.affine.items()}
        elif kind == "shru":
            if rhs.literal is not None:
                count = rhs.literal % bits
                expr = f"{lhs.paren} >> {count}"
                lo, hi = a_lo >> count, a_hi >> count
        if expr is None:
            expr = _BINOPS[code].format(a=lhs.paren, b=rhs.paren)
        return _Value(
            expr,
            locals_read=lhs.locals_read | rhs.locals_read,
            reads_global=lhs.reads_global or rhs.reads_global,
            reads_memory=lhs.reads_memory or rhs.reads_memory,
            ops=lhs.ops + rhs.ops + 1,
            lo=lo, hi=hi, affine=affine,
            temps=lhs.temps | rhs.temps,
        )

    def _access(self, code: int, table: Dict[int, str], address: _Value,
                offset: int, width: int) -> Tuple[bool, str]:
        """Lower one access's address, with no bounds check.

        Returns ``(True, element index)`` into the typed plane when the
        access is provably width-aligned, else ``(False, byte address)``.
        Every index is provably non-negative (a negative Python index
        would read from the end), so an out-of-range one faults in the
        access itself and ``_wrap_entry`` maps the fault to the trap.

        A deferred address reads the locals' current values (a write to
        one would have spilled it); if every temporary in it is a hoist,
        whose locals its open loop never writes, its affine form is its
        real value. That is its exact value when the range lattice bounds
        it (computed without a wrap), and the access indexes straight from
        it (``_pD[l1 + 2312]``); a versioned loop's fast copy also rebuilds
        an unbounded one, under the preflight that keeps it from wrapping.
        Any other address is its canonical i32 expression.
        """
        rebuild = address.affine is not None and not address.is_var \
            and address.temps <= self._hoisted_names()
        if rebuild and address.hi is None:
            rebuild = self.fast is not None \
                and self._require_in_bounds(address, offset, width)
        shift = self._plane_shift(code, table, address, offset, width)
        if rebuild:
            if address.temps:
                self.bypassed.update(address.temps)
            effective = dict(address.affine)
            effective[-1] = effective.get(-1, 0) + offset
            if shift is not None:
                return True, _affine_expr(effective, width)
            return False, _affine_expr(effective, 1)
        if shift is None:
            return False, \
                f"{address.paren} + {offset}" if offset else address.expr
        if offset:
            return True, f"({address.paren} + {offset}) >> {shift}"
        return True, f"{address.paren} >> {shift}"

    def _plane_shift(self, code: int, table: Dict[int, str], address: _Value,
                     offset: int, width: int) -> Optional[int]:
        """The plane shift when the access is provably width-aligned.

        An affine address with every coefficient and the total constant
        offset divisible by the width is aligned — masking preserves that
        (2^32 is a multiple of every plane width), so the proof needs no
        wrap analysis.
        """
        if not self.use_planes or code not in table or width not in (2, 4, 8):
            return None
        if address.affine is None:
            return None
        constant = address.affine.get(-1, 0) + offset
        if constant % width:
            return None
        for key, coeff in address.affine.items():
            if key >= 0 and coeff % width:
                return None
        return width.bit_length() - 1

    # -- loop versioning ----------------------------------------------------------

    def _can_version(self, index: int) -> bool:
        if self.version_depth > 0 or index in self.no_version:
            return False
        info = self.analysis.get(index)
        return (info is not None and info.versionable
                and self.func.body[index].arg.arity == 0)

    def _fast_bound(self, local: int) -> Optional[tuple]:
        """``(numeric, symbolic)`` loop-wide max of a local read by an
        address inside the versioned region, or None when unboundable.

        A local the region never writes is its own (runtime) bound. A
        local written inside the region is only boundable when it is the
        induction variable of a loop the access is structurally inside
        (its ctx is still open): there the guard has passed, so the value
        is at most the guard bound.
        """
        fast = self.fast
        if local not in fast.root.writes:
            return None, f"l{local}"
        for ctx in reversed(self.loop_ctxs):
            induction = ctx.info.induction
            if induction is None or induction.local != local \
                    or ctx.index < fast.root.start:
                continue
            ok, conjunct = induction.fast_path_sound()
            if not ok:
                return None
            if conjunct:
                fast.require(conjunct)
            if induction.max_numeric is not None:
                return max(induction.max_numeric, 0), None
            part, reads = induction.max_parts()
            if reads & fast.root.writes:
                return None
            return None, part
        return None

    def _require_in_bounds(self, address: _Value, offset: int,
                           width: int) -> bool:
        """Record the preflight requirement ``max_address + width <= _ml``
        under which an unbounded address may be rebuilt mask-free; False
        (the probe fails) when it cannot be bounded at loop entry."""
        fast = self.fast
        if address.affine is None:
            fast.failed = True
            return False
        effective = dict(address.affine)
        effective[-1] = effective.get(-1, 0) + offset
        numeric = effective[-1] + width
        symbolic: List[str] = []
        for local, coeff in sorted(effective.items()):
            if local < 0 or coeff == 0:
                continue
            bound = self._fast_bound(local)
            if bound is None:
                fast.failed = True
                return False
            bound_numeric, bound_symbolic = bound
            if bound_numeric is not None:
                numeric += coeff * bound_numeric
            elif coeff == 1:
                symbolic.append(bound_symbolic)
            else:
                symbolic.append(f"{coeff} * {bound_symbolic}")
        if symbolic:
            fast.require(" + ".join(symbolic + [str(numeric)]) + " <= _ml")
        else:
            fast.require_numeric(numeric)
        return True

    def _compile_versioned_loop(self, index: int) -> int:
        """Emit a fast/safe versioned pair for the loop at ``index``.

        The fast copy computes the addresses the range lattice cannot
        bound mask-free (through planes when aligned) under a single
        preflight conjunction evaluated at loop entry: every such address
        stays below the memory size, so none wraps. The safe copy is the
        plain lowering, taken whenever the preflight fails, including by
        every program that would trap; both copies fault at the same
        access as the interpreter. When the two copies come out
        identical, the loop is emitted once with no preflight; when the
        probe needed no condition at all, it is that one copy, and the
        loop is compiled only once.
        """
        info = self.analysis[index]
        stop = info.end + 1
        self._spill_all()
        height = len(self.stack)
        frames_len = len(self.frames)
        snapshot = (self.next_temp, self.next_hoist)
        known = self.known
        outer = self.out

        self.version_depth += 1
        fast = _FastCtx(info)
        _ok, conjunct = info.induction.fast_path_sound()
        if conjunct:
            fast.require(conjunct)
        self.fast = fast
        fast_out = _Emitter()
        fast_out.indent = outer.indent + 1
        self.out = fast_out
        self.known = dict(known)
        self._compile_range(index, stop)
        self.fast = None
        fast_counters = (self.next_temp, self.next_hoist)

        del self.frames[frames_len:]
        self._reset_stack(height)
        self.next_temp, self.next_hoist = snapshot
        self.out = outer

        conditions = fast.conditions()
        if fast.failed or len(conditions) > _MAX_PREFLIGHT:
            # Probe failed: compile this loop in place, unversioned —
            # but let its inner loops try their own versions.
            self.no_version.add(index)
            self.version_depth -= 1
            self.known = known
            self._compile_range(index, stop)
            return stop

        # With no condition, no address needed the preflight (nor would
        # any inner loop's): the probe already is the plain lowering.
        safe_out = fast_out
        if conditions:
            safe_out = _Emitter()
            safe_out.indent = outer.indent + 1
            self.out = safe_out
            self.known = known
            self._compile_range(index, stop)
            self.out = outer
        self.version_depth -= 1
        self.next_temp = max(fast_counters[0], self.next_temp)
        self.next_hoist = max(fast_counters[1], self.next_hoist)

        if fast_out.lines == safe_out.lines:
            # The preflight would drop nothing: emit the loop once, one
            # (single-space) indentation level out.
            outer.lines.extend(line[1:] for line in safe_out.lines)
            outer.count += safe_out.count
        else:
            outer.emit("_ml = len(_m)")
            outer.emit(f"if {' and '.join(conditions)}:")
            outer.extend(fast_out)
            outer.emit("else:")
            outer.extend(safe_out)

        del self.frames[frames_len:]
        self._reset_stack(height)
        return stop


# Only hoists are named h<digits>, and every generated line is indented.
_HOIST_READ = re.compile(r"h\d+")
_HOIST_ASSIGNED = re.compile(r" (h\d+) = ")


def _drop_unread_hoists(lines: List[str], candidates: set) -> None:
    """Delete each preheader hoist among ``candidates`` that no other
    line reads. The candidates are the hoists some address indexed
    straight from its affine form was built from, bypassing them; the
    hoists a deleted line read become candidates in turn. (A versioned
    loop's two copies may each assign a hoist.)"""
    if not candidates:
        return
    text = "\n".join(lines) + "\n"
    mentions = Counter(_HOIST_READ.findall(text))
    assigned = Counter(_HOIST_ASSIGNED.findall(text))
    spans = []
    while candidates:
        read_by_dead = set()
        for name in candidates:
            if not assigned[name] or mentions[name] != assigned[name]:
                continue
            assigned[name] = 0
            assignment = f" {name} = "
            position = text.find(assignment)
            while position >= 0:
                end = text.index("\n", position) + 1
                spans.append((text.rfind("\n", 0, position) + 1, end))
                for read in _HOIST_READ.findall(
                        text, position + len(assignment), end):
                    mentions[read] -= 1
                    read_by_dead.add(read)
                position = text.find(assignment, end)
        candidates = read_by_dead
    if spans:
        kept, cursor = [], 0
        for start, end in sorted(spans):
            kept.append(text[cursor:start])
            cursor = end
        kept.append(text[cursor:])
        lines[:] = "".join(kept).split("\n")[:-1]


def _affine_expr(affine: Dict[int, int], scale: int) -> str:
    """Rebuild an affine form as real-arithmetic source, divided by
    ``scale`` (1 for byte addresses; the access width for plane indices,
    only called when every term is divisible)."""
    terms = []
    for local, coeff in sorted(affine.items()):
        if local < 0 or coeff == 0:
            continue
        scaled = coeff // scale
        terms.append(f"l{local}" if scaled == 1 else f"l{local} * {scaled}")
    constant = affine.get(-1, 0) // scale
    if constant or not terms:
        terms.append(str(constant))
    return " + ".join(terms)


class AotCompiler(Engine):
    """Engine that compiles functions to Python closures at load time."""

    name = "aot"

    def _make_compiler(self, module: Module,
                       func_index: int) -> _FunctionCompiler:
        func = module.functions[func_index - len(module.imported_funcs)]
        return _FunctionCompiler(module, func, func_index,
                                 Memory.planes_supported)

    def compile_function(self, module: Module, func_index: int) -> tuple:
        """Lower one function to its (code object, source) artifact. The
        lowering depends only on the module, so instances share it; only
        the ``exec`` into an instance's namespace is theirs."""
        source = self._make_compiler(module, func_index).compile()
        return (_pycompile(source, func_index), source)

    def link(self, module: Module, instance: Instance,
             artifacts: Sequence[tuple]) -> List[Callable]:
        """Exec every function's code object into the instance's one
        namespace; return their public entry points."""
        namespace = instance.namespace
        namespace.update(_HELPERS)
        memory = instance.memory
        namespace.update(
            _inst=instance,
            # The fast call table: host bindings as-is (they are ordinary
            # Python callables), local functions *unwrapped*.
            # instance.funcs keeps the wrapped entry points for the
            # embedder.
            _f=list(instance.funcs),
            _ft=instance.func_types,
            _g=instance.globals,
            _mem=memory,
            _m=memory.data if memory is not None else b"",
            _tbl=instance.table,
        )
        if memory is not None and memory.planes_supported:
            # Generated code reads the planes per access; the code that
            # executes `memory.grow` rebinds them (see _REBIND_PLANES).
            for fmt, plane_name in _PLANE_NAMES.items():
                namespace[plane_name] = memory.plane(fmt)
        for type_index, func_type in enumerate(module.types):
            namespace[f"_sig{type_index}"] = func_type
        base = len(module.imported_funcs)
        entries = []
        for func_index, (code, source) in enumerate(artifacts, base):
            exec(code, namespace)
            compiled = namespace[f"_wasm_f{func_index}"]
            compiled.__wasm_source__ = source  # aid debugging and tests
            # Internal Wasm->Wasm calls skip the coercing wrapper: values
            # produced inside the sandbox are already canonical.
            namespace["_f"].append(compiled)
            entries.append(_wrap_entry(
                compiled, module.func_type(func_index).params, instance))
        return entries


#: The names every generated function may read besides its instance's.
_HELPERS = {
    "_trap": _trap,
    "_f32r": num.f32_round,
    "_clz": num.clz,
    "_ctz": num.ctz,
    "_popcnt": num.popcnt,
    "_rotl": num.rotl,
    "_rotr": num.rotr,
    "_divs": num.idiv_s,
    "_divu": num.idiv_u,
    "_rems": num.irem_s,
    "_remu": num.irem_u,
    "_shrs": num.shr_s,
    "_trunc": num.trunc_to_int,
    "_ext": num.extend_signed,
    "_fdiv": _fdiv,
    "_fmin": num.fmin,
    "_fmax": num.fmax,
    "_fceil": num.fceil,
    "_ffloor": num.ffloor,
    "_ftrunc": num.ftrunc,
    "_fnearest": num.fnearest,
    "_fsqrt": num.fsqrt,
    "_copysign": math.copysign,
    "_isnan": math.isnan,
    "_ri32f32": num.i32_reinterpret_f32,
    "_ri64f64": num.i64_reinterpret_f64,
    "_rf32i32": num.f32_reinterpret_i32,
    "_rf64i64": num.f64_reinterpret_i64,
    "_upI16": S_I16.unpack_from,
    "_upI32": S_I32.unpack_from,
    "_upI64": S_I64.unpack_from,
    "_upF32": S_F32.unpack_from,
    "_upF64": S_F64.unpack_from,
    "_pkI16": S_I16.pack_into,
    "_pkI32": S_I32.pack_into,
    "_pkI64": S_I64.pack_into,
    "_pkF32": S_F32.pack_into,
    "_pkF64": S_F64.pack_into,
}


def _pycompile(source: str, func_index: int):
    """CPython-compile one lowered function; its nesting limits (20
    loops, ~100 indentation levels) surface as a typed error."""
    try:
        return compile(source, f"<wasm-aot f{func_index}>", "exec")
    except (SyntaxError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        raise WasmError(f"AOT: function {func_index} nests too deeply for "
                        f"the Python lowering ({reason})") from None


#: What an out-of-range access raises: a typed plane's or the bytearray's
#: ``IndexError``, or ``struct.error`` from ``unpack_from``/``pack_into``.
#: Each checks before it touches memory, so a faulting store writes nothing.
_FAULTS = (IndexError, struct.error)


def _faulted_in_wasm(exc: BaseException) -> bool:
    """Whether ``exc`` was raised by a memory access in generated code.

    The innermost frame of the traceback is the one whose statement
    raised. A generated function's accesses call C code with no frame of
    its own, so that frame is the generated function; a fault inside a
    host import or a numerics helper ends in that Python frame instead.
    """
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_filename.startswith("<wasm-aot")


def _wrap_entry(compiled: Callable, param_types,
                instance: Instance) -> Callable:
    """The public boundary: coerce host-supplied arguments once, and map
    an access fault to the interpreter's trap.

    Exports, the start function and a host's re-entry all come through
    here, so a fault in a re-entered call traps at its own entry. An
    entry point held past :meth:`Instance.close` finds its generated
    code's namespace cleared and traps too.
    """
    from repro.wasm.interpreter import _coerce

    def entry(*args):
        if len(args) != len(param_types):
            raise TrapError(
                f"expected {len(param_types)} arguments, got {len(args)}"
            )
        try:
            return compiled(*(
                _coerce(value, valtype)
                for value, valtype in zip(args, param_types)
            ))
        except _FAULTS as exc:
            if _faulted_in_wasm(exc):
                raise TrapError("out-of-bounds memory access") from None
            raise
        except NameError:
            if instance.closed:
                raise TrapError("instance is closed") from None
            raise

    entry.__wasm_source__ = compiled.__wasm_source__
    entry.compiled = compiled
    return entry

"""Straight-line hot loops and the inline truncation fast path.

A function called from inside a ``loop`` (directly or through another
such function) is *hot*: its small counted loops are emitted as one copy
of the body per trip, with the induction local a literal in each copy,
so conversions, addresses, running counters and ``if``s on it fold. The
interpreter is the oracle: every program here runs on both engines and
must agree on the result, the trap type and message, the final memory
and the call depth afterwards. The generated source pins which loops
unroll and which keep their ``while True``.
"""

from __future__ import annotations

import math
import re
import struct

import pytest

from repro.errors import TrapError
from repro.walc import compile_source
from repro.wasm import AotCompiler, Interpreter, ModuleBuilder
from repro.wasm import aotopt
from repro.wasm import opcodes as op
from repro.wasm.decoder import decode_module
from repro.wasm.types import F32, F64, I32, I64

# -- helpers ------------------------------------------------------------------


def _outcomes(binary: bytes, export: str, *args):
    """``(result or trap, final memory, call depth)`` on each engine."""
    outcomes = []
    for engine in (Interpreter(), AotCompiler()):
        instance = engine.instantiate(binary)
        try:
            result = ("value", instance.invoke(export, *args))
        except TrapError as trap:
            result = (type(trap).__name__, str(trap))
        memory = bytes(instance.memory.data) if instance.memory else b""
        outcomes.append((result, memory, instance.call_depth))
    return outcomes


def _agree(binary: bytes, export: str, *args):
    reference, optimised = _outcomes(binary, export, *args)
    assert optimised == reference
    return reference[0]


def _loops_kept(module, func_index: int, source: str) -> dict:
    """LOOP index -> whether the source still has its ``while True``."""
    func = module.functions[func_index - len(module.imported_funcs)]
    return {index: f"while True:  # loop @{index}" in source
            for index in aotopt.analyze(func)}


# -- the unroll corpus ---------------------------------------------------------

_CORPUS = """
memory 1;

fn kernel(n: i32, x: f64) -> f64 {
  var total: f64 = 0.0;
  for (var a: i32 = 0; a < 0; a = a + 1) { total = total + 1000.0; }
  for (var b: i32 = 0; b < 1; b = b + 1) { total = total + (b as f64) + 0.5; }
  for (var c: i32 = 5; c < 7; c = c + 1) { store_i32(c * 4, c * 3); }
  var term: f64 = 1.0;
  for (var i: i32 = 1; i <= 11; i = i + 1) {
    term = term * x / (i as f64);
    total = total + term;
  }
  for (var j: i32 = 0; j < 16; j = j + 1) {
    if (j == 5) { total = total * 2.0; } else { total = total + 1.0; }
  }
  var pos: i32 = 0;
  for (var p: i32 = 0; p < 3; p = p + 1) {
    for (var q: i32 = 0; q < 4; q = q + 1) {
      store_f64(256 + pos * 8,
                load_f64(256 + pos * 8) + ((p * 4 + q) as f64));
      pos = pos + 1;
    }
  }
  for (var s: i32 = 0; s < 4; s = s + 1) {
    store_i32(n + s * 4096, s + 1);
  }
  return total + (pos as f64);
}

fn early(n: i32) -> i32 {
  for (var i: i32 = 0; i < 3; i = i + 1) {
    store_i32(512 + i * 4, i + n);
    if (i == n) { return i * 10; }
  }
  return 99;
}

fn first(n: i32) -> i32 {
  for (var i: i32 = 0; i < 3; i = i + 1) {
    store_i32(768 + i * 4, n);
    return i + n;
  }
  return 77;
}

export fn run(n: i32, x: f64, reps: i32) -> f64 {
  var r: f64 = 0.0;
  for (var k: i32 = 0; k < reps; k = k + 1) {
    r = r + kernel(n, x) + ((early(k) + first(n)) as f64);
  }
  return r;
}
"""


def test_corpus_loops_are_straight_line_code():
    binary = compile_source(_CORPUS)
    module = decode_module(binary)
    hot = aotopt.hot_functions(module)
    run = module.export("run").index
    callees = {instr.arg for instr in
               module.functions[run - len(module.imported_funcs)].body
               if instr.opcode == op.CALL}
    assert hot == frozenset(callees) and len(hot) == 3
    for func_index in hot:
        source = AotCompiler().compile_function(module, func_index)[1]
        assert "while True" not in source, source
        assert "_fdiv(" not in source
    kernel = AotCompiler().compile_function(
        module, min(callees))[1]
    # Conversions of the induction fold, and so does the `if (j == 5)`:
    # one arm per copy, and no test at all.
    for k in range(1, 12):
        assert f"/ ({k}.0)" in kernel
    assert "if " not in kernel.split("\n", 2)[2]
    # The running counter addresses a literal slot in every copy.
    assert all(f"_pD[{32 + slot}]" in kernel for slot in range(12))


@pytest.mark.parametrize("n, reps", [
    (1024, 1),                 # every store lands
    (1024, 3),
    (65536 - 4096 * 2, 1),     # the store of copy 2 faults
    (65536 - 4096 * 3 - 2, 2),  # copy 3 faults after copies 0..2 stored
    (65536 - 3, 1),            # copy 0 faults
    (0xFFFF_F000, 1),          # copy 0 faults; copy 1's address wraps
])
def test_corpus_agrees_with_the_interpreter(n, reps):
    binary = compile_source(_CORPUS)
    for x in (0.75, -1.5, 3.0):
        _agree(binary, "run", n, x, reps)


def test_out_of_bounds_copy_traps_after_the_earlier_copies_stored():
    binary = compile_source(_CORPUS)
    n = 65536 - 4096 * 2
    (result, memory, depth), _ = _outcomes(binary, "run", n, 0.5, 1)
    assert result == ("TrapError", "out-of-bounds memory access")
    assert depth == 0
    stored = [struct.unpack_from("<I", memory, n + s * 4096)[0]
              for s in range(2)]
    assert stored == [1, 2]


_TRIANGLE = """
memory 1;

fn triangle(base: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < 4; i = i + 1) {
    for (var j: i32 = 0; j < i; j = j + 1) {
      store_i32(base + j * 4, i * 10 + j);
      t = t + load_i32(base + j * 4);
    }
  }
  return t;
}

export fn f(base: i32) -> i32 {
  var t: i32 = 0;
  for (var k: i32 = 0; k < 2; k = k + 1) { t = t + triangle(base); }
  return t;
}
"""


def test_inner_loop_bounded_by_the_induction_reads_its_copy_value():
    """``for (j = 0; j < i; ...)`` inside an unrolled loop over ``i``: its
    guard reads ``i`` as each copy's literal, and its versioning
    preflight reads ``i`` by name, so each copy first stores its value."""
    binary = compile_source(_TRIANGLE)
    module = decode_module(binary)
    loops = aotopt.analyze(module.functions[0])
    outer = min(loops)
    i = loops[outer].induction.local
    source = AotCompiler().compile_function(module, 0)[1]
    assert f"while True:  # loop @{outer}" not in source
    assert "len(_m)" in source, source
    for k in range(4):
        assert f"l{i} = {k}\n" in source, source
    for base in (0, 1000, 65536 - 12, 65536 - 8, 65536 - 4, 0xFFFF_FFF8):
        _agree(binary, "f", base)


_JOINS = """
memory 1;

fn joins(n: i32) -> i32 {
  var t: i32 = 0;
  var i: i32 = 5;
  if (n > 0) {
    i = 0;
    while (i < 3) { t = t + i * 100; i = i + 1; }
  }
  var x: i32 = 1;
  if (n > 1) { x = 3; } else { t = t + x * 10; }
  store_i32(x * 4, t);
  return t + i * 1000 + load_i32(x * 4);
}

export fn f(n: i32) -> i32 {
  var t: i32 = 0;
  for (var k: i32 = 0; k < 2; k = k + 1) { t = t + joins(n); }
  return t;
}
"""


def test_known_literals_end_where_paths_join():
    """In a hot function ``i`` and ``x`` are known literals on some paths
    only: after the ``if`` around the unrolled loop ``i`` is 3 or 5, read
    from its variable (so the loop stores its exit value); the ``else``
    arm sees ``x`` as 1, not the then arm's 3; after the ``if`` ``x`` is
    1 or 3."""
    binary = compile_source(_JOINS)
    module = decode_module(binary)
    assert 0 in aotopt.hot_functions(module)
    source = AotCompiler().compile_function(module, 0)[1]
    assert "while True" not in source
    for n in (-1, 0, 1, 2, 7):
        _agree(binary, "f", n)


# -- loops that must stay loops -------------------------------------------------

_NEGATIVES = """
memory 1;

fn with_continue(n: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < 4; i = i + 1) {
    if (i == n) { continue; }
    t = t + i;
  }
  return t;
}

fn with_break(n: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < 4; i = i + 1) {
    if (i == n) { break; }
    t = t + i;
  }
  return t;
}

fn over_budget(n: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < 100; i = i + 1) {
    store_i32(i * 4, t);
    t = t + i * n;
  }
  return t;
}

fn runtime_bound(n: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < n; i = i + 1) { t = t + i; }
  return t;
}

export fn drive(n: i32) -> i32 {
  var t: i32 = 0;
  for (var k: i32 = 0; k < 2; k = k + 1) {
    t = t + with_continue(n) + with_break(n) + over_budget(n)
          + runtime_bound(n);
  }
  return t;
}

export fn cold(n: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < 4; i = i + 1) { t = t + i * n; }
  return t;
}
"""


def _indirect_module() -> bytes:
    """``drive(n)`` calls ``g`` through the table inside a loop; ``g``
    holds a 4-trip counted loop. A ``call_indirect`` makes nothing hot."""
    builder = ModuleBuilder()
    builder.add_table(1, 1)
    sig = builder.add_type([I32], [I32])
    g = builder.add_function(sig)
    i, t = g.add_local(I32), g.add_local(I32)
    g.i32_const(0).local_set(i)
    g.block().loop()
    g.local_get(i).i32_const(4).emit(op.I32_LT_U).emit(op.I32_EQZ).br_if(1)
    g.local_get(t).local_get(i).local_get(0).emit(op.I32_MUL)
    g.emit(op.I32_ADD).local_set(t)
    g.local_get(i).i32_const(1).emit(op.I32_ADD).local_set(i)
    g.br(0).end().end()
    g.local_get(t)
    drive = builder.add_function(sig)
    k, total = drive.add_local(I32), drive.add_local(I32)
    drive.i32_const(0).local_set(k)
    drive.block().loop()
    drive.local_get(k).i32_const(3).emit(op.I32_LT_U).emit(op.I32_EQZ)
    drive.br_if(1)
    drive.local_get(total).local_get(0).i32_const(0)
    drive.emit(op.CALL_INDIRECT, sig, 0).emit(op.I32_ADD).local_set(total)
    drive.local_get(k).i32_const(1).emit(op.I32_ADD).local_set(k)
    drive.br(0).end().end()
    drive.local_get(total)
    builder.add_element(0, [g.index])
    builder.export_function("drive", drive.index)
    return builder.build()


def test_loops_that_do_not_qualify_keep_their_loop():
    """A ``continue``, a ``break``, a trip count over the budget, a
    runtime bound, a function no loop reaches, and one reached only
    through ``call_indirect``: each loop stays a ``while True``."""
    binary = compile_source(_NEGATIVES)
    module = decode_module(binary)
    hot = aotopt.hot_functions(module)
    cold = module.export("cold").index
    assert cold not in hot and len(hot) == 4
    for func_index in sorted(hot) + [cold]:
        source = AotCompiler().compile_function(module, func_index)[1]
        kept = _loops_kept(module, func_index, source)
        assert kept and all(kept.values()), (func_index, source)
    for n in (0, 2, 3, 7):
        _agree(binary, "drive", n)
        _agree(binary, "cold", n)

    binary = _indirect_module()
    module = decode_module(binary)
    assert aotopt.hot_functions(module) == frozenset()
    source = AotCompiler().compile_function(module, 0)[1]
    assert all(_loops_kept(module, 0, source).values()), source
    _agree(binary, "drive", 5)


def test_budget_bounds_trips_times_loop_length():
    """A loop of ``trips`` trips and ``length`` instructions, none of them
    in an inner loop, unrolls only while ``trips * length <=
    UNROLL_BUDGET``."""
    def module_with(trips: int) -> bytes:
        return compile_source(f"""
memory 1;
fn body(n: i32) -> i32 {{
  var t: i32 = 0;
  for (var i: i32 = 0; i < {trips}; i = i + 1) {{ t = t + i * n; }}
  return t;
}}
export fn f(n: i32) -> i32 {{
  var t: i32 = 0;
  for (var k: i32 = 0; k < 2; k = k + 1) {{ t = t + body(n + k); }}
  return t;
}}
""")
    module = decode_module(module_with(1))
    func = module.functions[0]
    (info,) = aotopt.analyze(func).values()
    length = info.end - info.start
    fits = aotopt.UNROLL_BUDGET // length
    for trips, unrolled in ((fits, True), (fits + 1, False)):
        binary = module_with(trips)
        module = decode_module(binary)
        func = module.functions[0]
        assert bool(aotopt.unroll_plan(func.body,
                                       aotopt.analyze(func))) == unrolled
        source = AotCompiler().compile_function(module, 0)[1]
        assert ("while True" not in source) == unrolled
        _agree(binary, "f", 3)


def _nest(trips) -> bytes:
    """``nest(n)``: four nested counted loops of ``trips``, innermost
    last, adding ``n`` once per innermost trip; a loop calls it."""
    a, b, c, d = trips
    return compile_source(f"""
memory 1;
fn nest(n: i32) -> i32 {{
  var t: i32 = 0;
  for (var a: i32 = 0; a < {a}; a = a + 1) {{
    for (var b: i32 = 0; b < {b}; b = b + 1) {{
      for (var c: i32 = 0; c < {c}; c = c + 1) {{
        for (var d: i32 = 0; d < {d}; d = d + 1) {{ t = t + n; }}
      }}
    }}
  }}
  return t;
}}
export fn f(n: i32) -> i32 {{
  var t: i32 = 0;
  for (var k: i32 = 0; k < 2; k = k + 1) {{ t = t + nest(n + k); }}
  return t;
}}
""")


def test_budget_counts_inner_loops_as_emitted():
    """Each loop of this nest has trips * length <= 400, but unrolled
    inside one another they would emit 10,010 copies of the innermost
    body: only the innermost loop unrolls, and the source stays small.
    Small trip counts still unroll the whole nest."""
    binary = _nest((5, 7, 11, 26))
    module = decode_module(binary)
    func = module.functions[0]
    loops = aotopt.analyze(func)
    assert all(info.induction.trips * (info.end - info.start) <= 400
               for info in loops.values())
    innermost = max(loops)
    assert set(aotopt.unroll_plan(func.body, loops)) == {innermost}
    source = AotCompiler().compile_function(module, 0)[1]
    assert source.count("\n") < 100, source.count("\n")
    assert all(f"while True:  # loop @{index}" in source
               for index in loops if index != innermost)
    _agree(binary, "f", 3)

    binary = _nest((2, 2, 2, 3))
    module = decode_module(binary)
    func = module.functions[0]
    assert set(aotopt.unroll_plan(func.body, aotopt.analyze(func))) \
        == set(aotopt.analyze(func))
    assert "while True" not in AotCompiler().compile_function(module, 0)[1]
    _agree(binary, "f", 3)


# -- float-to-int truncation at its bounds ------------------------------------

_TRUNC_OPS = {
    op.I32_TRUNC_F32_S: (F32, I32, True, 32),
    op.I32_TRUNC_F32_U: (F32, I32, False, 32),
    op.I32_TRUNC_F64_S: (F64, I32, True, 32),
    op.I32_TRUNC_F64_U: (F64, I32, False, 32),
    op.I64_TRUNC_F32_S: (F32, I64, True, 64),
    op.I64_TRUNC_F32_U: (F32, I64, False, 64),
    op.I64_TRUNC_F64_S: (F64, I64, True, 64),
    op.I64_TRUNC_F64_U: (F64, I64, False, 64),
}


def _f32_step(value: float, direction: float) -> float:
    """The next f32 after ``value`` (an f32) toward ``direction``."""
    if value == direction:
        return value
    bits = struct.unpack("<I", struct.pack("<f", value))[0]
    away = (direction > value) == (value >= 0.0)
    if value == 0.0:
        bits = 1 if direction > 0 else 0x8000_0001
    else:
        bits += 1 if away else -1
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _trunc_inputs(source, signed: bool, bits: int) -> list:
    """Both bounds at N and N+1 (the extreme valid input and the first
    invalid one, as the source type has them), a fraction just inside
    each bound where the type has one, -0.0, NaN and the infinities."""
    if source == F64:
        step, exact = math.nextafter, float
    else:
        step = _f32_step

        def exact(value) -> float:
            return struct.unpack("<f", struct.pack("<f", float(value)))[0]
    low = -(1 << (bits - 1)) if signed else 0
    high = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
    upper_invalid = exact(high + 1)           # a power of two: exact
    upper_valid = step(upper_invalid, 0.0)
    edge = exact(low - 1)
    if edge <= low - 1:                       # low - 1 is a float: invalid
        lower_invalid, lower_valid = edge, step(edge, 0.0)
    else:                                     # it rounded up to low
        lower_valid, lower_invalid = edge, step(edge, -math.inf)
    return [upper_invalid, upper_valid, step(upper_valid, 0.0),
            lower_invalid, lower_valid, step(lower_valid, 0.0),
            exact(high + 0.5), exact(low - 0.5), -0.5, -0.0, 0.0,
            math.nan, math.inf, -math.inf, 2.75, -2.75]


def _trunc_module(code: int) -> bytes:
    source, result, _signed, _bits = _TRUNC_OPS[code]
    builder = ModuleBuilder()
    f = builder.add_function(builder.add_type([source], [result]))
    f.local_get(0).emit(code)
    builder.export_function("f", f.index)
    return builder.build()


@pytest.mark.parametrize("code", sorted(_TRUNC_OPS), ids=op.name)
def test_trunc_agrees_at_its_bounds(code):
    source, _result, signed, bits = _TRUNC_OPS[code]
    binary = _trunc_module(code)
    seen = set()
    for value in _trunc_inputs(source, signed, bits):
        outcome = _agree(binary, "f", value)
        seen.add(outcome[0])
    assert seen == {"value", "TrapError"}


@pytest.mark.parametrize("code", sorted(_TRUNC_OPS), ids=op.name)
def test_trunc_calls_its_helper_only_outside_the_range(code):
    source = AotCompiler().compile_function(
        decode_module(_trunc_module(code)), 0)[1]
    assert re.search(r"= int\(l0\)[^\n]* if [^\n]* else _trunc\(l0, ",
                     source), source


# -- the interpreter's call depth is the AOT's ---------------------------------


def test_call_depth_after_an_unrolled_trap_is_restored():
    binary = compile_source(_CORPUS)
    for engine in (Interpreter(), AotCompiler()):
        instance = engine.instantiate(binary)
        with pytest.raises(TrapError):
            instance.invoke("run", 65536 - 3, 1.0, 2)
        assert instance.call_depth == 0
        assert instance.invoke("run", 1024, 1.0, 1) == \
            Interpreter().instantiate(binary).invoke("run", 1024, 1.0, 1)

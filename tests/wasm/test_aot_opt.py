"""The AOT optimisation passes: generated-code shape, plane coherence.

The differential suite (test_opt_differential.py) pins *behaviour*; this
file pins the *mechanism* — that the optimiser actually emits what it
promises (plane indexing, no per-access bounds check, a preflight only
where the two loop copies differ, mask-free induction arithmetic,
loop-invariant hoists, control flow without unwinding scaffolding,
helper-free signed arithmetic, leaf frames), that planes track
``memory.grow``, and that traps fall back to the byte-identical safe
path.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import TrapError
from repro.walc import compile_source
from repro.wasm import AotCompiler, Interpreter, Memory, ModuleBuilder
from repro.wasm import aotopt
from repro.wasm import opcodes as op
from repro.wasm.decoder import decode_module
from repro.wasm.types import F64, I32
from repro.workloads.attested import build_attested_app
from repro.workloads.genann.wasm_impl import build_attested_ann
from repro.workloads.minidb.wasmcore import compile_dbcore
from repro.workloads.polybench import all_kernels


def _f64_stream_kernel(runtime_bound: bool = False) -> bytes:
    """for (i = 0; i < 64; i++) mem_f64[i*8] = mem_f64[i*8] * 2.0 + p0*3.0

    Affine aligned f64 traffic plus a loop-invariant float expression —
    the shape every optimisation pass fires on. With ``runtime_bound``
    the loop runs ``i < p1`` (unsigned) instead, so the range lattice
    cannot bound ``i * 8``.
    """
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    params = [F64, I32] if runtime_bound else [F64]
    f = builder.add_function(builder.add_type(params, []))
    i = f.add_local(I32)
    f.i32_const(0).local_set(i)
    f.block()
    f.loop()
    if runtime_bound:
        f.local_get(i).local_get(1).emit(op.I32_LT_U)
    else:
        f.local_get(i).i32_const(64).emit(op.I32_LT_S)
    f.emit(op.I32_EQZ).br_if(1)
    f.local_get(i).i32_const(8).emit(op.I32_MUL)       # address
    f.local_get(i).i32_const(8).emit(op.I32_MUL)
    f.emit(op.F64_LOAD, 0)
    f.f64_const(2.0).emit(op.F64_MUL)
    f.local_get(0).f64_const(3.0).emit(op.F64_MUL).emit(op.F64_ADD)
    f.emit(op.F64_STORE, 0)
    f.local_get(i).i32_const(1).emit(op.I32_ADD).local_set(i)
    f.br(0)
    f.end()
    f.end()
    builder.export_function("f", f.index)
    return builder.build()


def _source(binary: bytes) -> str:
    module = decode_module(binary)
    _, source = AotCompiler().compile_function(module, 0)
    return source


def _versioned_copies(source: str) -> list:
    """``(fast, safe)`` line lists of every versioned loop in ``source``:
    the suites under the ``if`` that follows each ``_ml = len(_m)`` and
    under its ``else:``."""
    lines = source.splitlines()
    copies = []
    for index, line in enumerate(lines):
        if line.strip() == "_ml = len(_m)":
            header = lines[index + 1]
            assert header.strip().startswith("if ") and "<= _ml" in header
            fast = _suite(lines, index + 1)
            otherwise = index + 2 + len(fast)
            assert lines[otherwise].strip() == "else:", source
            copies.append((fast, _suite(lines, otherwise)))
    return copies


_ACCESS = re.compile(r"_p[HIQFD]\[|_m\[|\(_m, ")


def _accesses(lines) -> list:
    """The lines of ``lines`` that index linear memory."""
    return [line for line in lines if _ACCESS.search(line)]


# -- generated-code shape -----------------------------------------------------


@pytest.mark.skipif(not Memory.planes_supported,
                    reason="typed planes need a little-endian host")
def test_opt2_emits_planes_preflight_and_no_masks():
    """No access carries a bounds check: an out-of-range one faults. A
    constant-bound loop's addresses are range-bounded, so it is one copy
    indexing its plane straight from the induction local, with no
    preflight; a runtime-bound loop is still versioned, with address
    masks only in the copy its preflight rejects."""
    source = _source(_f64_stream_kernel())
    assert "len(_m)" not in source and "out-of-bounds" not in source
    assert "t0 = _pD[l1]" in source and "_pD[l1] = " in source
    assert "& 0xFFFFFFFF" not in source
    assert source.count("while True:") == 1

    source = _source(_f64_stream_kernel(runtime_bound=True))
    assert "out-of-bounds" not in source
    ((fast, safe),) = _versioned_copies(source)
    assert "t0 = _pD[l2]" in "\n".join(fast)
    assert all("& 0xFFFFFFFF" not in line for line in _accesses(fast))
    assert _accesses(safe) and all("& 0xFFFFFFFF" in line
                                   for line in _accesses(safe))


def test_opt2_hoists_loop_invariant_expression():
    source = _source(_f64_stream_kernel())
    # p0 * 3.0 is pure and loop-invariant: computed once in a preheader
    # (once per copy in a versioned loop).
    assert "h0 = " in source
    for line in source.splitlines():
        if "3.0" in line:
            assert line.strip().startswith("h"), line


# -- control lowering and frames on the workload modules ---------------------

_VERIFIER_KEY = bytes([4]) + bytes(range(64))
_WHILE = re.compile(r"while True:  # (block|loop|if) @(\d+)$")


def _workload_modules():
    """(name, decoded module) for every Wasm build the workloads run."""
    for kernel in all_kernels():
        for size in (kernel.default_size, max(1, kernel.default_size // 4)):
            yield (f"{kernel.name}/{size}",
                   decode_module(compile_source(kernel.walc_source(size))))
    yield "dbcore", decode_module(compile_dbcore())
    yield "wasi-ra", decode_module(
        build_attested_app(_VERIFIER_KEY, "verifier", 7000))
    yield "genann", decode_module(
        build_attested_ann(_VERIFIER_KEY, "verifier", 7000))


def _sources(module):
    """(function, generated source) for each local function."""
    base = len(module.imported_funcs)
    for offset, func in enumerate(module.functions):
        yield func, AotCompiler().compile_function(module, base + offset)[1]


def _targeted(body) -> set:
    """Opener indices of the constructs some branch targets."""
    open_stack, targeted = [], set()
    for index, instr in enumerate(body):
        if instr.opcode in (op.BLOCK, op.LOOP, op.IF):
            open_stack.append(index)
        elif instr.opcode == op.END and open_stack:
            open_stack.pop()
        elif instr.opcode in (op.BR, op.BR_IF, op.BR_TABLE):
            depths = [instr.arg] if instr.opcode != op.BR_TABLE \
                else list(instr.arg[0]) + [instr.arg[1]]
            targeted.update(open_stack[-1 - depth] for depth in depths
                            if depth < len(open_stack))
    return targeted


def _suite(lines, header: int):
    """The lines of the indented suite under ``lines[header]``."""
    indent = len(lines[header]) - len(lines[header].lstrip())
    suite = []
    for line in lines[header + 1:]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        suite.append(line)
    return suite


def test_workload_codegen_needs_no_unwinding():
    """In every function of every workload build: no ``_br`` unwinding,
    a ``while True`` only for a construct some branch targets, no
    sign-interpretation helper, and no try/finally frame in a leaf."""
    for name, module in _workload_modules():
        for func, source in _sources(module):
            where = (name, source.split("(")[0])
            assert "_br" not in source, where
            assert "_s32(" not in source and "_s64(" not in source, where
            targeted = _targeted(func.body)
            for line in source.splitlines():
                if "while True" in line:
                    match = _WHILE.search(line)
                    assert match and int(match.group(2)) in targeted, \
                        (where, line)
            if not any(instr.opcode in (op.CALL, op.CALL_INDIRECT)
                       for instr in func.body):
                assert "try:" not in source, where
                assert "_inst.call_depth >= " in source, where
            else:
                assert "_inst.enter_call()" in source, where


def test_workload_accesses_carry_no_bounds_check():
    """In every function of every workload build: no access compares
    against ``len(_m)``, and the memory length is read only by the
    preflight of a versioned loop whose fast and safe copies differ."""
    for name, module in _workload_modules():
        for func, source in _sources(module):
            where = (name, source.split("(")[0])
            assert "> len(_m)" not in source, where
            assert "out-of-bounds" not in source, where
            copies = _versioned_copies(source)
            assert source.count("len(_m)") == len(copies), where
            for fast, safe in copies:
                assert fast != safe, where


def _callees(module, func_index: int) -> list:
    base = len(module.imported_funcs)
    return [instr.arg for instr in module.functions[func_index - base].body
            if instr.opcode == op.CALL]


def test_genann_weights_index_planes_from_the_running_counter():
    """Genann's weight cursor ``pos`` is a running counter in hot
    functions whose counted loops unroll, so in every copy it is a
    literal: each weight access of ``ann_run`` and ``ann_train_one``
    indexes ``_pD`` with a literal and no mask, and every weight is
    reached."""
    module = decode_module(build_attested_ann(_VERIFIER_KEY, "verifier",
                                              7000))
    (train_one,) = set(_callees(module, module.export("ann_train").index))
    run = _callees(module, train_one)[0]
    for func_index in (run, train_one):
        source = AotCompiler().compile_function(module, func_index)[1]
        indices = set()
        for line in source.splitlines():
            for index in re.findall(r"_pD\[([^]]*)\]", line):
                assert index.isdigit(), (func_index, line)
                indices.add(int(index))
            if "_pD[" in line:
                assert "& 0xFFFFFFFF" not in line, (func_index, line)
        # The weights lie below the hidden and output areas.
        weights = min(indices)
        assert set(range(weights, weights + 35)) <= indices


def _counter_module(shape: str) -> bytes:
    """``f(p)``: a 4-trip counted loop over ``i`` stores ``i`` at
    ``mem32[c * 4 + 64]`` and steps a counter ``c``; ``f`` returns ``c``.

    ``"counted"`` is the plain shape. Each other shape adds one twist: a
    step-less ``continue`` (never taken) in the loop, as ``br_if`` or as
    ``br`` in an ``if``; a runtime loop bound ``p``; the parameter as
    the counter; a step of 2^30, whose masked address ``c * 4 + 64``
    wraps back to 64 every time; or a guard ``i < 0xF0000000`` stepped by
    0x70000000, which wraps ``i`` and so runs 9 times, not the 3 the
    bound alone suggests.
    """
    wraps = shape == "wrapping_guard"
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([I32], [I32]))
    i = f.add_local(I32)
    c = 0 if shape == "parameter" else f.add_local(I32)
    f.i32_const(0).local_set(i)
    f.block()
    f.loop()
    f.local_get(i)
    if shape == "runtime_bound":
        f.local_get(0)
    else:
        f.i32_const(0xF000_0000 if wraps else 4)
    f.emit(op.I32_LT_U).emit(op.I32_EQZ).br_if(1)
    if shape == "stepless_br_if":
        f.local_get(0).i32_const(12345).emit(op.I32_EQ).br_if(0)
    if shape == "stepless_br":
        f.local_get(0).i32_const(12345).emit(op.I32_EQ)
        f.if_().br(1).end()
    f.local_get(c).i32_const(4).emit(op.I32_MUL).i32_const(64)
    f.emit(op.I32_ADD).local_get(i).emit(op.I32_STORE, 0)
    f.local_get(c).i32_const(1 << 30 if shape in ("overflow", "wrapping_guard")
                             else 1)
    f.emit(op.I32_ADD).local_set(c)
    f.local_get(i).i32_const(0x7000_0000 if wraps else 1)
    f.emit(op.I32_ADD).local_set(i)
    f.br(0)
    f.end()
    f.end()
    f.local_get(c)
    builder.export_function("f", f.index)
    return builder.build()


_COUNTER_ARGUMENT = {"runtime_bound": 4, "parameter": (1 << 30) - 1}


@pytest.mark.parametrize("shape", ["counted", "stepless_br_if",
                                   "stepless_br", "runtime_bound",
                                   "parameter", "overflow",
                                   "wrapping_guard"])
def test_running_counter_rule(shape):
    """Both engines agree on the result and the final memory."""
    binary = _counter_module(shape)
    argument = _COUNTER_ARGUMENT.get(shape, 0)
    outcomes = []
    for engine in (Interpreter(), AotCompiler()):
        instance = engine.instantiate(binary)
        outcomes.append((instance.invoke("f", argument),
                         bytes(instance.memory.data)))
    assert outcomes[0] == outcomes[1]


def _stale_address_module(versioned: bool) -> bytes:
    """``f(p)`` takes the address ``p + c * 4`` (``c * 4`` with no ``p``
    unless ``versioned``), then changes ``c``, then loads at that address
    plus 4: the address was materialised before ``c`` changed, so the
    load must index from that temporary, never rebuild ``c * 4`` from the
    affine form with the new ``c``. ``c`` is a running counter: written
    by constants only, or stepped in a 4-trip loop (``versioned``, where
    ``p`` leaves the address unbounded, so the fast copy sees it)."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    builder.add_data(0, bytes(range(256)))
    f = builder.add_function(builder.add_type([I32], [I32]))
    c, i, total = f.add_local(I32), f.add_local(I32), f.add_local(I32)

    def body():
        if versioned:
            f.local_get(0)
        f.local_get(c).i32_const(4).emit(op.I32_MUL)
        if versioned:
            f.emit(op.I32_ADD)
            f.local_get(c).i32_const(1).emit(op.I32_ADD).local_set(c)
        else:
            f.i32_const(0).local_set(c)
        f.i32_const(4).emit(op.I32_ADD).emit(op.I32_LOAD, 0)
        f.local_get(total).emit(op.I32_ADD).local_set(total)

    if versioned:
        f.i32_const(0).local_set(i)
        f.block()
        f.loop()
        f.local_get(i).i32_const(4).emit(op.I32_LT_U)
        f.emit(op.I32_EQZ).br_if(1)
        body()
        f.local_get(i).i32_const(1).emit(op.I32_ADD).local_set(i)
        f.br(0)
        f.end()
        f.end()
    else:
        f.i32_const(8).local_set(c)
        body()
    f.local_get(total)
    builder.export_function("f", f.index)
    return builder.build()


@pytest.mark.parametrize("versioned", [False, True])
def test_address_taken_before_its_local_changes_keeps_the_old_value(
        versioned):
    binary = _stale_address_module(versioned)
    results = [engine.instantiate(binary).invoke("f", 16)
               for engine in (Interpreter(), AotCompiler())]
    assert results[0] == results[1]


def test_genann_exp_taylor_loop_is_helper_free():
    """Genann's sigmoid spends its time in ``exp_shared``'s 11-step Taylor
    loop, ``term * r / (i as f64)``: the function is hot, so the loop is
    11 straight-line divisions by the float literals 1.0 to 11.0, with
    neither ``_fdiv`` nor a sign helper."""
    module = decode_module(build_attested_ann(_VERIFIER_KEY, "verifier",
                                              7000))
    (source,) = [source for _, source in _sources(module)
                 if "0.6931471805599453" in source]
    divisions = re.findall(r"^ +l\d+ = \(l\d+ \* l\d+\) / \((\d+\.0)\)$",
                           source, re.MULTILINE)
    assert divisions == [f"{k}.0" for k in range(1, 12)], source
    assert "_fdiv(" not in source and "_s32(" not in source, source


def test_polybench_codegen_is_compact():
    """The 30 quarter-size kernels lower to at least 40% fewer lines than
    the ``while True``/``_br`` capsule lowering's 17,777, and to fewer
    than the 3,075 they took before unread hoists were dropped."""
    lines = 0
    for kernel in all_kernels():
        module = decode_module(compile_source(
            kernel.walc_source(max(1, kernel.default_size // 4))))
        lines += sum(source.count("\n") for _, source in _sources(module))
    assert lines <= 0.6 * 17_777, lines
    assert lines < 3_075, lines


_HOIST = re.compile(r"^ *(h\d+) = ", re.MULTILINE)


def test_workload_hoists_are_all_read():
    """Every preheader hoist ``hN`` a workload function assigns is read
    by some other line of that function."""
    for name, module in _workload_modules():
        for _, source in _sources(module):
            for hoist in set(_HOIST.findall(source)):
                reads = len(re.findall(rf"\b{hoist}\b", source))
                assert reads > len(re.findall(rf"^ *{hoist} = ", source,
                                              re.MULTILINE)), \
                    (name, hoist, source)


def test_a_bypassed_hoist_that_is_read_elsewhere_stays():
    """``i * 64`` is hoisted out of the inner loop; the fast copy indexes
    its plane straight from the affine form, bypassing the hoist, but
    the stored value ``i * 64 + 1`` still reads it, so it must stay."""
    binary = compile_source("""
memory 1;
export fn f(n: i32) -> i32 {
  var t: i32 = 0;
  for (var i: i32 = 0; i < n; i = i + 1) {
    for (var j: i32 = 0; j < 4; j = j + 1) {
      store_i32(i * 64 + j * 4, i * 64 + 1);
      t = t + load_i32(i * 64 + j * 4);
    }
  }
  return t;
}
""")
    ((fast, safe),) = _versioned_copies(_source(binary))
    assert any(line.strip().startswith("h0 = ") for line in fast)
    indices = [index for line in fast
               for index in re.findall(r"_pI\[([^]]*)\]", line)]
    assert indices and not any("h0" in index for index in indices)
    for n in (0, 3, 1024, 1025):
        outcomes = []
        for engine in (Interpreter(), AotCompiler()):
            instance = engine.instantiate(binary)
            try:
                outcomes.append(instance.invoke("f", n))
            except TrapError as trap:
                outcomes.append(str(trap))
        assert outcomes[0] == outcomes[1], n


def test_only_genann_and_dbcore_have_hot_functions():
    """A function is hot when a loop calls it, directly or through a hot
    function. No PolyBench build (so nothing ``cold-deploy`` compiles)
    and not the WASI-RA app has one; in dbcore none of the hot functions
    holds a loop with a trip count, so nothing there unrolls either."""
    for name, module in _workload_modules():
        hot = aotopt.hot_functions(module)
        assert hot is aotopt.hot_functions(module)  # memoised
        if name == "genann":
            assert len(hot) == 4
        elif name == "dbcore":
            assert len(hot) == 12 and len(module.functions) == 32
            base = len(module.imported_funcs)
            for func_index in hot:
                func = module.functions[func_index - base]
                assert all(aotopt.unroll_trips(func.body, info) is None
                           for info in aotopt.analyze(func).values())
        else:
            assert hot == frozenset(), name


def test_genann_hot_loops_are_straight_line():
    """In the attested Genann build, ``exp_shared``, ``sigmoid``,
    ``ann_run`` and ``ann_train_one`` are hot and emit no ``while True``
    for a loop with a compile-time trip count; ``exp_shared``'s 2^k loops,
    bounded by a runtime value, stay loops, as do the loops of
    ``ann_init``, ``ann_accuracy`` and ``ann_weight_checksum``; and every
    ``_trunc`` call is the fallback arm of the inline range test."""
    module = decode_module(build_attested_ann(_VERIFIER_KEY, "verifier",
                                              7000))
    base = len(module.imported_funcs)
    (train_one,) = set(_callees(module, module.export("ann_train").index))
    run = _callees(module, train_one)[0]
    (sigmoid,) = set(_callees(module, run))
    (exp_shared,) = set(_callees(module, sigmoid))
    assert aotopt.hot_functions(module) == {train_one, run, sigmoid,
                                            exp_shared}
    for func_index in (train_one, run, sigmoid, exp_shared):
        func = module.functions[func_index - base]
        source = AotCompiler().compile_function(module, func_index)[1]
        for index, info in aotopt.analyze(func).items():
            kept = f"while True:  # loop @{index}" in source
            assert kept == (info.induction is None
                            or info.induction.trips is None), \
                (func_index, index)
        if func_index == exp_shared:
            assert source.count("while True:  # loop") == 2
    for name in ("ann_init", "ann_accuracy", "ann_weight_checksum"):
        func_index = module.export(name).index
        func = module.functions[func_index - base]
        source = AotCompiler().compile_function(module, func_index)[1]
        assert all(f"while True:  # loop @{index}" in source
                   for index in aotopt.analyze(func)), name
    for _, source in _sources(module):
        assert source.count("_trunc(") == source.count(" else _trunc(")


def test_codegen_is_deterministic():
    # The artifact is cacheable only if a recompile reproduces it.
    binary = _f64_stream_kernel()
    assert _source(binary) == _source(binary)


# -- typed memory planes ------------------------------------------------------


@pytest.mark.skipif(not Memory.planes_supported,
                    reason="typed planes need a little-endian host")
def test_memory_planes_alias_data():
    memory = Memory(1, 2)
    plane = memory.plane("I")
    memory.data[0:4] = (0x44332211).to_bytes(4, "little")
    assert plane[0] == 0x44332211
    plane[1] = 0xDEADBEEF
    assert memory.data[4:8] == (0xDEADBEEF).to_bytes(4, "little")


def test_grow_inside_loop_stays_coherent_with_interpreter():
    """A loop that grows memory then writes into the new pages: planes are
    re-requested after every grow, so both engines see the stores."""
    builder = ModuleBuilder()
    builder.add_memory(1, 4)
    f = builder.add_function(builder.add_type([], [I32]))
    f.add_local(I32)  # i
    f.i32_const(0).local_set(0)
    f.block()
    f.loop()
    f.local_get(0).i32_const(3).emit(op.I32_LT_U)
    f.emit(op.I32_EQZ).br_if(1)
    f.i32_const(1).emit(op.MEMORY_GROW).emit(op.DROP)
    # Store into the page that just appeared.
    f.local_get(0).i32_const(65_536).emit(op.I32_MUL)
    f.local_get(0).i32_const(7).emit(op.I32_ADD)
    f.emit(op.I32_STORE, 65_536)
    f.local_get(0).i32_const(1).emit(op.I32_ADD).local_set(0)
    f.br(0)
    f.end()
    f.end()
    # Checksum the three stores.
    f.i32_const(65_536).emit(op.I32_LOAD, 0)
    f.i32_const(131_072).emit(op.I32_LOAD, 0)
    f.emit(op.I32_ADD)
    f.i32_const(196_608).emit(op.I32_LOAD, 0)
    f.emit(op.I32_ADD)
    builder.export_function("f", f.index)
    binary = builder.build()

    expected = Interpreter().instantiate(binary).invoke("f")
    assert AotCompiler().instantiate(binary).invoke("f") == expected


# -- trap fallback ------------------------------------------------------------


def test_preflight_failure_takes_safe_path_and_traps_identically():
    """An OOB loop fails the preflight, runs the safe copy, and traps with
    the interpreter's message at the interpreter's iteration."""
    builder = ModuleBuilder()
    builder.add_memory(1, 1)
    f = builder.add_function(builder.add_type([], [I32]))
    f.add_local(I32)
    f.i32_const(0).local_set(0)
    f.block()
    f.loop()
    f.local_get(0).i32_const(20_000).emit(op.I32_LT_U)
    f.emit(op.I32_EQZ).br_if(1)
    f.local_get(0).i32_const(4).emit(op.I32_MUL)
    f.local_get(0).emit(op.I32_STORE, 0)
    f.local_get(0).i32_const(1).emit(op.I32_ADD).local_set(0)
    f.br(0)
    f.end()
    f.end()
    f.local_get(0)
    builder.export_function("f", f.index)
    binary = builder.build()

    memories = []
    for engine in (Interpreter(), AotCompiler()):
        instance = engine.instantiate(binary)
        with pytest.raises(TrapError) as info:
            instance.invoke("f")
        assert str(info.value) == "out-of-bounds memory access"
        memories.append(bytes(instance.memory.data))
    assert memories[0] == memories[1]

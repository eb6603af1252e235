"""Static analyses feeding the AOT engine's optimisation passes.

The AOT lowering (:mod:`repro.wasm.aot`) runs a pre-pass over each decoded
function body before generating code. For every ``loop`` construct it
records

* the set of locals written anywhere in the loop region (the base fact for
  loop-invariant code motion: an expression reading none of them computes
  the same value on every iteration);
* whether the region contains calls or ``memory.grow`` (either one makes
  the memory length loop-variant, ruling out a versioning preflight);
* a **monotone induction pattern**, when the loop matches the canonical
  counted shape the walc compiler emits::

      i32.const C ; local.set $i          ; init (immediately before)
      block
        loop
          local.get $i
          (i32.const N | local.get $n)    ; loop-invariant bound
          i32.lt_s / lt_u / le_s / le_u
          i32.eqz
          br_if 1                         ; exit to the enclosing block
          ...body...
          local.get $i ; i32.const S ; i32.add ; local.set $i ; br <loop>
        end
      end

  with *every* write to ``$i`` inside the region being that exact
  ``+= S``-then-branch-to-loop-header step (``continue`` statements
  duplicate it mid-body) and no ``local.tee $i`` anywhere.

Soundness of the induction claim (the basis for the versioning preflight
and mask elimination in :mod:`repro.wasm.aot`):

* whenever the loop *body* executes, the guard has just passed, so the
  induction local is at most ``max`` (``N-1`` for ``lt``, ``N`` for
  ``le``); every step is immediately followed by an unconditional branch,
  so no memory access can observe a post-step value;
* for **unsigned** guards this bounds the raw (canonical, non-negative)
  value directly;
* for **signed** guards the raw value equals the signed value only while
  it stays below 2^31. The init constant is required and must be in
  ``[0, 2^31)``; the compiler additionally requires ``max + step < 2^31``
  (a compile-time check for constant bounds, a preflight conjunct for
  local bounds) before entering an unchecked fast path, which inductively
  pins the raw value below 2^31 for the whole loop.

A counted loop also has a **trip count** when its init and bound are
compile-time constants, its step cannot wrap, and every branch back to
its header is that step followed by ``br``: a ``br_if`` or ``br_table``
to the header, or a ``br`` that skips the step, could re-run the body
with the same value any number of times.

A second pre-pass, :func:`python_loops`, decides the control lowering:
which ``block``/``loop``/``if`` constructs need a Python ``while True:``
at all (see its docstring).

:func:`hot_functions` marks, once per module, the functions a ``loop``
calls, directly or through another such function, and
:func:`unroll_plan` picks the counted loops of those that the lowering
emits as straight-line copies, one per trip: a trip count, no branch out
of the body but the guard's exit and the final back edge, and at most
:data:`UNROLL_BUDGET` instructions emitted, inner loops included.

Everything here is shape matching over the flat instruction list — the
decoder already resolved each ``block``/``loop``/``if`` to its matching
``end`` index (``Instr.target``), so regions are index ranges.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.wasm import numerics as num
from repro.wasm import opcodes as op
from repro.wasm.module import Function, Instr, Module

#: Opcodes that touch linear memory (loads and stores of every width).
ACCESS_OPS = frozenset((
    op.I32_LOAD, op.I64_LOAD, op.F32_LOAD, op.F64_LOAD,
    op.I32_LOAD8_U, op.I32_LOAD8_S, op.I32_LOAD16_U, op.I32_LOAD16_S,
    op.I64_LOAD8_U, op.I64_LOAD8_S, op.I64_LOAD16_U, op.I64_LOAD16_S,
    op.I64_LOAD32_U, op.I64_LOAD32_S,
    op.I32_STORE, op.I64_STORE, op.F32_STORE, op.F64_STORE,
    op.I32_STORE8, op.I32_STORE16, op.I64_STORE8, op.I64_STORE16,
    op.I64_STORE32,
))

_GUARD_RELOPS = {
    op.I32_LT_S: (True, False),
    op.I32_LT_U: (False, False),
    op.I32_LE_S: (True, True),
    op.I32_LE_U: (False, True),
}

#: Binops we constant-fold inside a guard's bound expression. walc emits
#: ``i < N - 1`` literally (CONST N; CONST 1; SUB), so a strict two-token
#: bound match would miss the stencil kernels' trip counts.
_BOUND_FOLD_OPS = {
    op.I32_ADD: lambda a, b: a + b,
    op.I32_SUB: lambda a, b: a - b,
    op.I32_MUL: lambda a, b: a * b,
}

_SIGN_BIT32 = 1 << 31


def signed_text(text: str, bits: int = 32) -> str:
    """Source for the signed reading of the canonical ``bits``-wide
    integer that the atomic or parenthesised source ``text`` computes.

    Flipping the sign bit maps signed order onto unsigned order; taking
    the bias back off gives the two's-complement value, with no call.
    """
    sign = 1 << (bits - 1)
    return f"(({text} ^ {sign}) - {sign})"


class Induction:
    """The counted-loop pattern: ``for i = C; i < N; i += S``."""

    __slots__ = ("local", "init", "step", "bound_const", "bound_local",
                 "signed", "inclusive", "back_edges_step", "body_start")

    def __init__(self, local: int, init: Optional[int], step: int,
                 bound_const: Optional[int], bound_local: Optional[int],
                 signed: bool, inclusive: bool,
                 back_edges_step: bool, body_start: int) -> None:
        self.local = local
        self.init = init
        self.step = step
        self.bound_const = bound_const
        self.bound_local = bound_local
        self.signed = signed
        self.inclusive = inclusive
        #: Every branch to the loop header is the step followed by ``br``.
        self.back_edges_step = back_edges_step
        #: Index of the first body instruction after the guard's ``br_if``.
        self.body_start = body_start

    @property
    def max_numeric(self) -> Optional[int]:
        """Largest value the local can hold at a body access point, when
        the bound is a compile-time constant. May be negative (the loop
        then never runs and every derived claim is vacuous)."""
        if self.bound_const is None:
            return None
        bound = num.s32(self.bound_const) if self.signed else self.bound_const
        return bound if self.inclusive else bound - 1

    def max_parts(self) -> Tuple[Optional[str], Set[int]]:
        """A real-arithmetic Python expression for the access-point max
        when the bound is a local, plus the locals it reads."""
        if self.bound_local is None:
            return None, set()
        name = f"l{self.bound_local}"
        bound = signed_text(name) if self.signed else name
        if self.inclusive:
            return bound, {self.bound_local}
        return f"({bound} - 1)", {self.bound_local}

    @property
    def loop_lo(self) -> int:
        """Loop-wide lower bound on the raw local value."""
        return self.init if self.init is not None else 0

    @property
    def loop_hi(self) -> Optional[int]:
        """Loop-wide upper bound on the raw local value, or None if
        unknowable at compile time. Covers every point in the region —
        including the first guard evaluation, which is why a known init
        and a constant bound are both required: body points are bounded
        by ``max`` (guard just passed), the guard itself sees either the
        init or a post-step value ``<= max + step``."""
        maximum = self.max_numeric
        if maximum is None or self.init is None:
            return None
        return max(self.init, maximum + self.step)

    @property
    def trips(self) -> Optional[int]:
        """How often the body runs per loop entry, when that is a
        compile-time constant: a known init and constant bound, a step
        that cannot wrap past the guard, and a step on every back edge."""
        maximum = self.max_numeric
        if not self.back_edges_step or maximum is None or self.init is None:
            return None
        ceiling = _SIGN_BIT32 - 1 if self.signed else num.MASK32
        if maximum + self.step > ceiling:
            return None
        if maximum < self.init:
            return 0
        return (maximum - self.init) // self.step + 1

    def fast_path_sound(self) -> Tuple[bool, Optional[str]]:
        """Whether the induction claim may back an *unchecked* fast path.

        Returns ``(ok, conjunct)``: ``conjunct`` is an extra preflight
        condition string to emit (signed loops with a local bound), or
        None when the claim holds unconditionally / by compile-time check.
        """
        if not self.signed:
            return True, None
        if not 0 <= self.init < _SIGN_BIT32:
            return False, None
        if self.bound_const is not None:
            maximum = self.max_numeric
            return maximum + self.step < _SIGN_BIT32, None
        # Local bound: require max + step < 2^31 at loop entry.
        ceiling = _SIGN_BIT32 - self.step - (1 if self.inclusive else 0)
        return True, f"{signed_text(f'l{self.bound_local}')} <= {ceiling}"


class LoopInfo:
    """Per-``loop`` facts: region extent, written locals, eligibility."""

    __slots__ = ("start", "end", "writes", "has_call", "has_grow",
                 "has_access", "induction", "versionable")

    def __init__(self, start: int, end: int) -> None:
        self.start = start          #: index of the LOOP instruction
        self.end = end              #: index of its matching END
        self.writes: Set[int] = set()
        self.has_call = False
        self.has_grow = False
        self.has_access = False
        self.induction: Optional[Induction] = None
        self.versionable = False


_OPENERS = (op.BLOCK, op.LOOP, op.IF)
_BRANCHES = (op.BR, op.BR_IF, op.BR_TABLE)


def python_loops(body: List[Instr]) -> Set[int]:
    """The constructs (by opener index) lowered to a ``while True:``.

    Python can only ``break`` or ``continue`` its innermost loop, so a
    construct needs one only when some branch targets it:

    * a targeted ``loop`` is a ``while True:`` whose back edges are
      ``continue``;
    * a targeted ``block``/``if`` needs none when its ``end`` directly
      follows the ``end`` of an inner Python loop (possibly through the
      ends of constructs that need none either) and every branch to it
      lies inside that loop: leaving the loop with ``break`` lands
      exactly on the construct's ``end``. Otherwise it becomes a
      ``while True:`` capsule that a ``break`` leaves.

    Everything else lowers to a plain suite (``block``, ``loop``) or a
    plain ``if``/``else``. Branches in dead code count as targeting:
    that only ever keeps a loop the lowering could have dropped.
    """
    sources, opener_of_end = _branch_sources(body)
    loops: Set[int] = set()
    # Ends were recorded in body order, so inner constructs are decided
    # before the constructs around them.
    for end, start in opener_of_end.items():
        if start not in sources:
            continue
        if body[start].opcode != op.LOOP:
            exit_loop = _exit_loop(end, opener_of_end, loops)
            if exit_loop is not None and all(
                    exit_loop < source < body[exit_loop].target
                    for source in sources[start]):
                continue
        loops.add(start)
    return loops


def _branch_depths(instr: Instr) -> Tuple[int, ...]:
    if instr.opcode == op.BR_TABLE:
        return tuple(instr.arg[0]) + (instr.arg[1],)
    return (instr.arg,)


def _branch_sources(body: List[Instr]) -> Tuple[Dict[int, List[int]],
                                                Dict[int, int]]:
    """``(opener -> indices of the branches targeting it, end -> opener)``."""
    sources: Dict[int, List[int]] = {}
    opener_of_end: Dict[int, int] = {}
    open_stack: List[int] = []
    for index, instr in enumerate(body):
        code = instr.opcode
        if code in _OPENERS:
            open_stack.append(index)
        elif code == op.END:
            if open_stack:
                opener_of_end[index] = open_stack.pop()
        elif code in _BRANCHES:
            if code == op.BR_TABLE:
                depths = set(instr.arg[0]) | {instr.arg[1]}
            else:
                depths = (instr.arg,)
            for depth in depths:
                if depth < len(open_stack):
                    target = open_stack[-1 - depth]
                    sources.setdefault(target, []).append(index)
    return sources, opener_of_end


def _exit_loop(end: int, opener_of_end: Dict[int, int],
               loops: Set[int]) -> Optional[int]:
    """The Python loop whose ``break`` lands on the ``end`` at ``end``."""
    index = end - 1
    while index in opener_of_end:
        inner = opener_of_end[index]
        if inner in loops:
            return inner
        index -= 1
    return None


def analyze(func: Function) -> Dict[int, LoopInfo]:
    """Analyse every loop in ``func``; keyed by LOOP instruction index.
    Computed once per function and memoised on it."""
    loops = getattr(func, "_aot_loops", None)
    if loops is None:
        body = func.body
        loops = {index: _analyze_loop(body, index, instr.target)
                 for index, instr in enumerate(body)
                 if instr.opcode == op.LOOP}
        func._aot_loops = loops  # type: ignore[attr-defined]
    return loops


def _analyze_loop(body: List[Instr], start: int, end: int) -> LoopInfo:
    info = LoopInfo(start, end)
    for index in range(start + 1, end):
        code = body[index].opcode
        if code in (op.LOCAL_SET, op.LOCAL_TEE):
            info.writes.add(body[index].arg)
        elif code in (op.CALL, op.CALL_INDIRECT):
            info.has_call = True
        elif code == op.MEMORY_GROW:
            info.has_grow = True
        elif code in ACCESS_OPS:
            info.has_access = True
    info.induction = _match_induction(body, start, end, info)
    info.versionable = (
        info.induction is not None
        and not info.has_call
        and not info.has_grow
        and info.has_access
        and info.induction.fast_path_sound()[0]
    )
    return info


def _match_induction(body: List[Instr], start: int, end: int,
                     info: LoopInfo) -> Optional[Induction]:
    # The loop must sit directly inside a dedicated exit block whose end
    # immediately follows ours — the shape `block { loop { .. } }` that
    # both walc and the test builder produce for counted loops.
    if start < 1 or body[start - 1].opcode != op.BLOCK \
            or body[start - 1].target != end + 1:
        return None
    if end - start < 6:
        return None
    if body[start + 1].opcode != op.LOCAL_GET:
        return None
    local = body[start + 1].arg
    bound_const = bound_local = None
    cursor = start + 2
    if body[cursor].opcode == op.I32_CONST:
        # Allow a constant-folded bound: `i < N - 1` style guards reach
        # us as CONST N; CONST 1; SUB (walc does not pre-fold).
        bound_const = body[cursor].arg
        cursor += 1
        while (cursor + 1 < end
                and body[cursor].opcode == op.I32_CONST
                and body[cursor + 1].opcode in _BOUND_FOLD_OPS):
            bound_const = _BOUND_FOLD_OPS[body[cursor + 1].opcode](
                bound_const, body[cursor].arg) & num.MASK32
            cursor += 2
    elif body[cursor].opcode == op.LOCAL_GET and body[cursor].arg != local:
        bound_local = body[cursor].arg
        cursor += 1
    else:
        return None
    if cursor + 2 >= end:
        return None
    relop = _GUARD_RELOPS.get(body[cursor].opcode)
    if relop is None:
        return None
    signed, inclusive = relop
    if body[cursor + 1].opcode != op.I32_EQZ:
        return None
    if body[cursor + 2].opcode != op.BR_IF or body[cursor + 2].arg != 1:
        return None
    # A bound read from a local must be invariant across the region.
    if bound_local is not None and bound_local in info.writes:
        return None

    # Optional init immediately before the exit block.
    init = None
    if (start >= 3 and body[start - 2].opcode == op.LOCAL_SET
            and body[start - 2].arg == local
            and body[start - 3].opcode == op.I32_CONST):
        init = body[start - 3].arg
    if signed and (init is None or not 0 <= init < _SIGN_BIT32):
        return None

    # Every write to the induction local must be the canonical step
    # followed by an unconditional branch back to this loop's header.
    # Separately, note whether every branch back to the header steps
    # first: the trip count needs that, the value range does not.
    step = None
    saw_step = False
    back_edges_step = True
    depth = 0  # labels opened since the loop header
    index = start + 1
    while index < end:
        instr = body[index]
        code = instr.opcode
        if code == op.LOCAL_TEE and instr.arg == local:
            return None
        if code == op.BR and instr.arg == depth:
            previous = body[index - 1]
            if previous.opcode != op.LOCAL_SET or previous.arg != local:
                back_edges_step = False
        elif (code == op.BR_IF and instr.arg == depth) or (
                code == op.BR_TABLE
                and depth in set(instr.arg[0]) | {instr.arg[1]}):
            back_edges_step = False
        if code == op.LOCAL_SET and instr.arg == local:
            if (index < 3 + start
                    or body[index - 3].opcode != op.LOCAL_GET
                    or body[index - 3].arg != local
                    or body[index - 2].opcode != op.I32_CONST
                    or body[index - 1].opcode != op.I32_ADD):
                return None
            increment = body[index - 2].arg
            if not 1 <= increment < _SIGN_BIT32:
                return None
            if step is not None and step != increment:
                return None
            step = increment
            following = body[index + 1] if index + 1 < end else None
            if following is None or following.opcode != op.BR \
                    or following.arg != depth:
                return None
            saw_step = True
        if code in (op.BLOCK, op.LOOP, op.IF):
            depth += 1
        elif code == op.END:
            depth -= 1
        index += 1
    if not saw_step:
        return None
    return Induction(local, init, step, bound_const, bound_local,
                     signed, inclusive, back_edges_step, cursor + 3)


def written_locals(body: List[Instr], opener: int) -> Set[int]:
    """The locals written anywhere in the construct opened at ``opener``."""
    return {body[index].arg
            for index in range(opener + 1, body[opener].target)
            if body[index].opcode in (op.LOCAL_SET, op.LOCAL_TEE)}


#: Full unrolling budget, in Wasm instructions: the code a loop emits once
#: unrolled, trips times its length with the loops inside counted as they
#: are emitted. 1,000 admits every counted nest of the hot Genann
#: functions; the largest, in ``ann_train_one``, emits 4 copies of 208.
#: Counting inner loops as emitted keeps a nest from multiplying: a
#: budget on each loop's own length alone let a four-deep nest of small
#: loops emit 10,000 copies.
UNROLL_BUDGET = 1000


def unroll_trips(body: List[Instr], info: LoopInfo) -> Optional[int]:
    """The trip count of a loop whose shape allows full unrolling, else
    None (:func:`unroll_plan` applies the budget).

    The loop needs a trip count; it and its exit block must yield no
    value; its last instructions must be the step and ``br 0``; and apart
    from the guard's exit and that back edge no branch in it may target
    the loop or a construct around it (a ``continue`` or a ``break``
    would; a ``return`` may stay). Each copy of the body then runs
    straight through to the next one.
    """
    induction = info.induction
    trips = induction.trips if induction is not None else None
    if trips is None:
        return None
    start, end = info.start, info.end
    if body[start].arg.arity or body[start - 1].arg.arity:
        return None
    back_edge, step = body[end - 1], body[end - 2]
    if back_edge.opcode != op.BR or back_edge.arg != 0 \
            or step.opcode != op.LOCAL_SET or step.arg != induction.local:
        return None
    depth = 0  # constructs opened since the loop header
    for index in range(induction.body_start, end - 1):
        instr = body[index]
        code = instr.opcode
        if code in _OPENERS:
            depth += 1
        elif code == op.END:
            depth -= 1
        elif code in _BRANCHES and max(_branch_depths(instr)) >= depth:
            return None
    return trips


def unroll_plan(body: List[Instr],
                loops: Dict[int, LoopInfo]) -> Dict[int, int]:
    """LOOP index -> trips, for every loop to emit as straight-line
    copies: :func:`unroll_trips` allows it, and its trips times its
    emitted length are within :data:`UNROLL_BUDGET`."""
    plan: Dict[int, int] = {}
    emitted: Dict[int, int] = {}
    # A loop's region holds only shorter loops, so inner loops come first.
    for start in sorted(loops, key=lambda index: loops[index].end - index):
        info = loops[start]
        length = info.end - start
        cursor = start
        for inner in sorted(index for index in emitted
                            if start < index < info.end):
            if inner > cursor:  # outermost of the loops inside
                length += emitted[inner] - (loops[inner].end - inner)
                cursor = loops[inner].end
        trips = unroll_trips(body, info)
        if trips is not None and trips * length <= UNROLL_BUDGET:
            plan[start] = trips
            length *= trips
        emitted[start] = length
    return plan


def hot_functions(module: Module) -> FrozenSet[int]:
    """The *hot* local functions of ``module``, by function index.

    A function is hot when a direct ``call`` inside some ``loop`` region
    reaches it, or a hot function calls it directly: it may run many
    times per invocation, so straight-line code for its small counted
    loops repays its compile cost. A ``call_indirect`` makes no callee
    hot. Computed once per module (code-cache artifacts are keyed by
    module content) and memoised on it.
    """
    hot = getattr(module, "_aot_hot_functions", None)
    if hot is not None:
        return hot
    base = len(module.imported_funcs)
    reached: Set[int] = set()
    for func in module.functions:
        for info in analyze(func).values():
            if info.has_call:
                reached.update(instr.arg
                               for instr in func.body[info.start:info.end]
                               if instr.opcode == op.CALL)
    pending = [index for index in reached if index >= base]
    while pending:
        for instr in module.functions[pending.pop() - base].body:
            if instr.opcode == op.CALL and instr.arg not in reached:
                reached.add(instr.arg)
                if instr.arg >= base:
                    pending.append(instr.arg)
    hot = frozenset(index for index in reached if index >= base)
    module._aot_hot_functions = hot  # type: ignore[attr-defined]
    return hot

"""Helpers for building tiny test modules."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.wasm import ModuleBuilder
from repro.wasm import opcodes as op
from repro.wasm.types import I32, ValType


def build_single(params: Sequence[ValType], results: Sequence[ValType],
                 emit: Callable, locals: Sequence[ValType] = (),
                 memory: Optional[tuple] = None,
                 export: str = "f") -> bytes:
    """A module with one exported function whose body ``emit`` writes."""
    builder = ModuleBuilder()
    if memory is not None:
        builder.add_memory(*memory)
    type_index = builder.add_type(params, results)
    function = builder.add_function(type_index)
    for valtype in locals:
        function.add_local(valtype)
    emit(function)
    builder.export_function(export, function.index)
    return builder.build()


def run_single(engine, params, results, emit, args=(), **kwargs):
    """Build, instantiate and invoke in one step."""
    binary = build_single(params, results, emit, **kwargs)
    instance = engine.instantiate(binary)
    return instance.invoke("f", *args)


def build_loop_nest(depth: int) -> bytes:
    """``f(n)``: ``depth`` nested loops, every one the target of a branch;
    the innermost counts ``n`` (>= 1) down, branching back to the
    outermost loop's header each time, and ``f`` returns the count."""
    builder = ModuleBuilder()
    f = builder.add_function(builder.add_type([I32], [I32]))
    f.add_local(I32)  # the count
    for _ in range(depth):
        f.loop()
    for inner in range(depth - 1):
        f.i32_const(0).br_if(inner)  # never taken
    f.local_get(1).i32_const(1).emit(op.I32_ADD).local_set(1)
    f.local_get(0).i32_const(1).emit(op.I32_SUB).local_tee(0)
    f.br_if(depth - 1)
    for _ in range(depth):
        f.end()
    f.local_get(1)
    builder.export_function("f", f.index)
    return builder.build()

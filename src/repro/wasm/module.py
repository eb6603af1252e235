"""Decoded-module representation shared by validator, interpreter and AOT.

A decoded function body is a flat list of :class:`Instr`; the structured
instructions (``block``, ``loop``, ``if``) carry the indices of their
matching ``else``/``end`` so both execution engines can jump without
rescanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.errors import LinkError
from repro.wasm.types import BlockType, FuncType, GlobalType, Limits, ValType


@dataclass
class Instr:
    """One decoded instruction.

    ``arg`` depends on the opcode:

    * block/loop/if: a :class:`BlockType`; ``target`` holds the matching
      ``end`` index and ``else_target`` the ``else`` index (if only);
    * br/br_if: the label depth;
    * br_table: ``(tuple_of_depths, default_depth)``;
    * call: function index; call_indirect: type index;
    * local/global ops: the variable index;
    * memory ops: the static offset;
    * consts: the literal value.
    """

    opcode: int
    arg: Union[None, int, float, BlockType, Tuple] = None
    target: int = -1
    else_target: int = -1


@dataclass
class ImportedFunc:
    module: str
    name: str
    type_index: int


@dataclass
class Function:
    """A locally defined function: signature index, locals, decoded body."""

    type_index: int
    locals: List[ValType] = field(default_factory=list)
    body: List[Instr] = field(default_factory=list)
    # Size in bytes of the encoded body; drives load-time accounting (Fig. 4).
    body_size: int = 0
    name: Optional[str] = None


@dataclass
class Table:
    limits: Limits


@dataclass
class MemorySpec:
    limits: Limits


@dataclass
class Global:
    type: GlobalType
    init: Union[int, float]
    # Index of an imported global the initialiser copies, or None.
    init_global: Optional[int] = None


@dataclass
class Export:
    name: str
    kind: str  # "func" | "table" | "memory" | "global"
    index: int


@dataclass
class ElementSegment:
    table_index: int
    offset: int
    func_indices: List[int]


@dataclass
class DataSegment:
    memory_index: int
    offset: int
    data: bytes


@dataclass
class Module:
    """A fully decoded module, ready for validation and instantiation."""

    types: List[FuncType] = field(default_factory=list)
    imported_funcs: List[ImportedFunc] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)
    tables: List[Table] = field(default_factory=list)
    memories: List[MemorySpec] = field(default_factory=list)
    globals: List[Global] = field(default_factory=list)
    exports: List[Export] = field(default_factory=list)
    elements: List[ElementSegment] = field(default_factory=list)
    data_segments: List[DataSegment] = field(default_factory=list)
    start: Optional[int] = None
    custom_sections: List[Tuple[str, bytes]] = field(default_factory=list)
    binary_size: int = 0

    @property
    def func_count(self) -> int:
        """Total function-index space (imports first, then local)."""
        return len(self.imported_funcs) + len(self.functions)

    def func_type(self, func_index: int) -> FuncType:
        """Signature of a function by its index in the joint index space."""
        imported = len(self.imported_funcs)
        if func_index < imported:
            return self.types[self.imported_funcs[func_index].type_index]
        return self.types[self.functions[func_index - imported].type_index]

    def export(self, name: str) -> Export:
        for export in self.exports:
            if export.name == name:
                return export
        raise LinkError(f"no export named {name!r}")

"""WebAssembly binary decoder.

Parses an MVP binary into :class:`repro.wasm.module.Module`. Function
bodies are decoded into flat instruction lists with structured-control
targets (``end`` / ``else`` indices) resolved in a single fix-up pass, so
the interpreter never rescans for block boundaries.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import DecodeError
from repro.wasm import opcodes as op
from repro.wasm.leb128 import decode_signed, decode_unsigned
from repro.wasm.module import (
    DataSegment,
    ElementSegment,
    Export,
    Function,
    Global,
    ImportedFunc,
    Instr,
    MemorySpec,
    Module,
    Table,
)
from repro.wasm.types import (
    EMPTY_BLOCK_TYPE,
    FUNC_TYPE_TAG,
    FUNCREF,
    BlockType,
    FuncType,
    GlobalType,
    Limits,
    ValType,
)

_MAGIC = b"\x00asm"
_VERSION = b"\x01\x00\x00\x00"

_EXPORT_KINDS = {0x00: "func", 0x01: "table", 0x02: "memory", 0x03: "global"}


class _Reader:
    """A byte cursor with spec-aligned primitive readers."""

    def __init__(self, data: bytes, offset: int = 0, end: int = None) -> None:
        self.data = data
        self.offset = offset
        self.end = len(data) if end is None else end

    @property
    def exhausted(self) -> bool:
        return self.offset >= self.end

    def byte(self) -> int:
        if self.offset >= self.end:
            raise DecodeError("unexpected end of binary")
        value = self.data[self.offset]
        self.offset += 1
        return value

    def nested(self, size: int) -> "_Reader":
        """Split off the next ``size`` bytes (a section or a function
        body) as a reader of their own."""
        end = self.offset + size
        if end > self.end:
            raise DecodeError("declared size overruns the enclosing span")
        nested = _Reader(self.data, self.offset, end)
        self.offset = end
        return nested

    def raw(self, size: int) -> bytes:
        if self.offset + size > self.end:
            raise DecodeError("unexpected end of binary")
        value = self.data[self.offset : self.offset + size]
        self.offset += size
        return value

    def u32(self) -> int:
        value, self.offset = decode_unsigned(self.data, self.offset, 32)
        return value

    def s32(self) -> int:
        value, self.offset = decode_signed(self.data, self.offset, 32)
        return value

    def s64(self) -> int:
        value, self.offset = decode_signed(self.data, self.offset, 64)
        return value

    def f32(self) -> float:
        return struct.unpack("<f", self.raw(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def name(self) -> str:
        size = self.u32()
        try:
            return self.raw(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("malformed UTF-8 name") from exc

    def valtype(self) -> ValType:
        return ValType.from_byte(self.byte())

    def limits(self) -> Limits:
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            minimum = self.u32()
            return Limits(minimum, self.u32())
        raise DecodeError(f"invalid limits flag 0x{flag:02x}")

    def blocktype(self) -> BlockType:
        byte = self.byte()
        if byte == EMPTY_BLOCK_TYPE:
            return BlockType.empty()
        return BlockType.single(ValType.from_byte(byte))


def decode_module(binary: bytes) -> Module:
    """Decode a complete Wasm binary into a :class:`Module`."""
    if len(binary) < 8:
        raise DecodeError("binary shorter than the Wasm header")
    if binary[:4] != _MAGIC:
        raise DecodeError("missing \\0asm magic")
    if binary[4:8] != _VERSION:
        raise DecodeError("unsupported Wasm version")

    module = Module(binary_size=len(binary))
    reader = _Reader(binary, 8)
    func_type_indices: List[int] = []
    last_section = 0

    while not reader.exhausted:
        section_id = reader.byte()
        size = reader.u32()
        section = reader.nested(size)
        if section_id != 0:
            if section_id <= last_section:
                raise DecodeError(f"out-of-order section id {section_id}")
            last_section = section_id

        if section_id == 0:
            name = section.name()
            module.custom_sections.append((name, bytes(section.raw(section.end - section.offset))))
        elif section_id == 1:
            _decode_types(section, module)
        elif section_id == 2:
            _decode_imports(section, module)
        elif section_id == 3:
            count = section.u32()
            func_type_indices = [section.u32() for _ in range(count)]
        elif section_id == 4:
            _decode_tables(section, module)
        elif section_id == 5:
            _decode_memories(section, module)
        elif section_id == 6:
            _decode_globals(section, module)
        elif section_id == 7:
            _decode_exports(section, module)
        elif section_id == 8:
            module.start = section.u32()
        elif section_id == 9:
            _decode_elements(section, module)
        elif section_id == 10:
            _decode_code(section, module, func_type_indices)
        elif section_id == 11:
            _decode_data(section, module)
        else:
            raise DecodeError(f"unknown section id {section_id}")

    if len(func_type_indices) != len(module.functions):
        raise DecodeError("function and code section lengths disagree")
    return module


def _decode_types(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    for _ in range(count):
        if reader.byte() != FUNC_TYPE_TAG:
            raise DecodeError("function type must start with 0x60")
        params = tuple(reader.valtype() for _ in range(reader.u32()))
        results = tuple(reader.valtype() for _ in range(reader.u32()))
        if len(results) > 1:
            raise DecodeError("multi-value results are not supported (MVP)")
        module.types.append(FuncType(params, results))


def _decode_imports(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    for _ in range(count):
        mod_name = reader.name()
        field = reader.name()
        kind = reader.byte()
        if kind == 0x00:
            type_index = reader.u32()
            if type_index >= len(module.types):
                raise DecodeError("import references unknown type")
            module.imported_funcs.append(ImportedFunc(mod_name, field, type_index))
        else:
            raise DecodeError(
                f"unsupported import kind 0x{kind:02x} (only functions)"
            )


def _decode_tables(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    if count > 1:
        raise DecodeError("at most one table in the MVP")
    for _ in range(count):
        if reader.byte() != FUNCREF:
            raise DecodeError("table element type must be funcref")
        module.tables.append(Table(reader.limits()))


def _decode_memories(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    if count > 1:
        raise DecodeError("at most one memory in the MVP")
    for _ in range(count):
        limits = reader.limits()
        limits.validate(65536)
        module.memories.append(MemorySpec(limits))


def _decode_const_expr(reader: _Reader) -> Tuple[ValType, object, object]:
    """Decode a constant initialiser: (type, value, imported-global-index)."""
    opcode = reader.byte()
    if opcode == op.I32_CONST:
        result = (ValType.I32, reader.s32() & 0xFFFFFFFF, None)
    elif opcode == op.I64_CONST:
        result = (ValType.I64, reader.s64() & 0xFFFFFFFFFFFFFFFF, None)
    elif opcode == op.F32_CONST:
        result = (ValType.F32, reader.f32(), None)
    elif opcode == op.F64_CONST:
        result = (ValType.F64, reader.f64(), None)
    elif opcode == op.GLOBAL_GET:
        result = (None, None, reader.u32())
    else:
        raise DecodeError(f"unsupported constant expression opcode 0x{opcode:02x}")
    if reader.byte() != op.END:
        raise DecodeError("constant expression must end with end")
    return result


def _decode_globals(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    for _ in range(count):
        valtype = reader.valtype()
        mutable_flag = reader.byte()
        if mutable_flag not in (0x00, 0x01):
            raise DecodeError("invalid global mutability flag")
        init_type, value, init_global = _decode_const_expr(reader)
        if init_global is None and init_type != valtype:
            raise DecodeError("global initialiser type mismatch")
        module.globals.append(
            Global(GlobalType(valtype, mutable_flag == 0x01), value, init_global)
        )


def _decode_exports(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    seen = set()
    for _ in range(count):
        name = reader.name()
        if name in seen:
            raise DecodeError(f"duplicate export name {name!r}")
        seen.add(name)
        kind = reader.byte()
        if kind not in _EXPORT_KINDS:
            raise DecodeError(f"invalid export kind 0x{kind:02x}")
        module.exports.append(Export(name, _EXPORT_KINDS[kind], reader.u32()))


def _decode_elements(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    for _ in range(count):
        table_index = reader.u32()
        if table_index != 0:
            raise DecodeError("element segment must target table 0")
        init_type, offset, init_global = _decode_const_expr(reader)
        if init_global is not None or init_type != ValType.I32:
            raise DecodeError("element offset must be an i32 constant")
        indices = [reader.u32() for _ in range(reader.u32())]
        module.elements.append(ElementSegment(table_index, offset, indices))


def _decode_data(reader: _Reader, module: Module) -> None:
    count = reader.u32()
    for _ in range(count):
        memory_index = reader.u32()
        if memory_index != 0:
            raise DecodeError("data segment must target memory 0")
        init_type, offset, init_global = _decode_const_expr(reader)
        if init_global is not None or init_type != ValType.I32:
            raise DecodeError("data offset must be an i32 constant")
        size = reader.u32()
        module.data_segments.append(DataSegment(memory_index, offset, bytes(reader.raw(size))))


def _decode_code(reader: _Reader, module: Module, type_indices: List[int]) -> None:
    count = reader.u32()
    if count != len(type_indices):
        raise DecodeError("function and code section lengths disagree")
    for index in range(count):
        body_size = reader.u32()
        body = reader.nested(body_size)
        locals_list: List[ValType] = []
        for _ in range(body.u32()):
            repeat = body.u32()
            valtype = body.valtype()
            if len(locals_list) + repeat > 1 << 20:
                raise DecodeError("too many locals")
            locals_list.extend([valtype] * repeat)
        instrs = _decode_expr(body)
        function = Function(
            type_index=type_indices[index],
            locals=locals_list,
            body=instrs,
            body_size=body_size,
        )
        module.functions.append(function)


def _decode_expr(reader: _Reader) -> List[Instr]:
    """Decode a function body and resolve structured-control targets."""
    instrs: List[Instr] = []
    # Stack of indices of open block/loop/if instructions.
    control: List[int] = []
    while True:
        opcode = reader.byte()
        if opcode in (op.BLOCK, op.LOOP, op.IF):
            instr = Instr(opcode, reader.blocktype())
            control.append(len(instrs))
            instrs.append(instr)
        elif opcode == op.ELSE:
            if not control:
                raise DecodeError("else outside of if")
            opener = instrs[control[-1]]
            if opener.opcode != op.IF or opener.else_target != -1:
                raise DecodeError("else must follow an if")
            opener.else_target = len(instrs)
            instrs.append(Instr(opcode))
        elif opcode == op.END:
            if not control:
                # Terminating end of the function body.
                if not reader.exhausted:
                    raise DecodeError("trailing bytes after function end")
                instrs.append(Instr(opcode))
                return instrs
            opener_index = control.pop()
            instrs[opener_index].target = len(instrs)
            instrs.append(Instr(opcode))
        elif opcode in (op.BR, op.BR_IF):
            instrs.append(Instr(opcode, reader.u32()))
        elif opcode == op.BR_TABLE:
            depths = tuple(reader.u32() for _ in range(reader.u32()))
            default = reader.u32()
            instrs.append(Instr(opcode, (depths, default)))
        elif opcode == op.CALL:
            instrs.append(Instr(opcode, reader.u32()))
        elif opcode == op.CALL_INDIRECT:
            type_index = reader.u32()
            if reader.byte() != 0x00:
                raise DecodeError("call_indirect table index must be 0")
            instrs.append(Instr(opcode, type_index))
        elif opcode in (
            op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE,
            op.GLOBAL_GET, op.GLOBAL_SET,
        ):
            instrs.append(Instr(opcode, reader.u32()))
        elif op.I32_LOAD <= opcode <= op.I64_STORE32:
            align = reader.u32()
            if align > 3:
                raise DecodeError("memory alignment too large")
            instrs.append(Instr(opcode, reader.u32()))
        elif opcode in (op.MEMORY_SIZE, op.MEMORY_GROW):
            if reader.byte() != 0x00:
                raise DecodeError("memory index must be 0")
            instrs.append(Instr(opcode))
        elif opcode == op.I32_CONST:
            instrs.append(Instr(opcode, reader.s32() & 0xFFFFFFFF))
        elif opcode == op.I64_CONST:
            instrs.append(Instr(opcode, reader.s64() & 0xFFFFFFFFFFFFFFFF))
        elif opcode == op.F32_CONST:
            instrs.append(Instr(opcode, reader.f32()))
        elif opcode == op.F64_CONST:
            instrs.append(Instr(opcode, reader.f64()))
        elif opcode in op.NAMES:
            instrs.append(Instr(opcode))
        else:
            raise DecodeError(f"unknown opcode 0x{opcode:02x}")

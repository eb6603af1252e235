"""The interpreting execution engine.

A classic structured-control interpreter: a value stack of Python objects,
a label stack of ``(continuation_pc, arity, stack_height, is_loop)``
records, and one dispatch loop over the decoded instruction list. This is
the slow engine; the paper reports AOT execution ~28x faster than
interpretation, an ablation reproduced in ``benchmarks/bench_ablation_aot.py``.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

from repro.errors import TrapError
from repro.wasm import numerics as num
from repro.wasm import opcodes as op
from repro.wasm.module import Function, Module
from repro.wasm.runtime import Engine, Instance, S_F32, S_F64, S_I16, S_I32, S_I64
from repro.wasm.types import ValType

_MASK32 = num.MASK32
_MASK64 = num.MASK64


class Interpreter(Engine):
    """Engine that interprets decoded instruction lists directly."""

    name = "interpreter"

    def compile_function(self, module: Module, func_index: int) -> Function:
        """Nothing to compile: the artifact is the decoded function."""
        return module.functions[func_index - len(module.imported_funcs)]

    def link(self, module: Module, instance: Instance,
             artifacts: Sequence[Function]) -> List[Callable]:
        return [_bind(module, instance, func) for func in artifacts]


def _bind(module: Module, instance: Instance, func: Function) -> Callable:
    func_type = module.types[func.type_index]
    param_types = func_type.params
    result_arity = len(func_type.results)
    local_types = func.locals
    body = func.body

    def invoke(*args):
        if len(args) != len(param_types):
            raise TrapError(
                f"expected {len(param_types)} arguments, got {len(args)}"
            )
        locals_list = [
            _coerce(value, valtype)
            for value, valtype in zip(args, param_types)
        ]
        locals_list.extend(t.zero() for t in local_types)
        instance.enter_call()
        try:
            stack = _run(module, instance, body, locals_list, result_arity)
        finally:
            instance.exit_call()
        if result_arity == 0:
            return None
        return stack[-1]

    return invoke


def _coerce(value, valtype: ValType):
    """A host-supplied argument as a ``valtype`` value; one that has none
    (NaN or ±inf for an integer, an integer past the float range) traps."""
    try:
        if valtype == ValType.I32:
            return int(value) & _MASK32
        if valtype == ValType.I64:
            return int(value) & _MASK64
        if valtype == ValType.F32:
            return num.f32_round(float(value))
        return float(value)
    except (ValueError, OverflowError):
        raise TrapError(
            f"argument has no {valtype.mnemonic} value") from None


def _run(module: Module, instance: Instance, body, locals_list,
         result_arity: int) -> List:
    stack: List = []
    # (continuation_pc, arity, stack_height, is_loop); the implicit function
    # frame returns past the end of the body.
    labels = [(len(body), result_arity, 0, False)]
    funcs = instance.funcs
    func_types = instance.func_types
    globals_list = instance.globals
    memory = instance.memory
    mem = memory.data if memory is not None else None
    pc = 0
    size = len(body)

    while pc < size:
        instr = body[pc]
        code = instr.opcode

        # --- hot path: locals and constants ---
        if code == op.LOCAL_GET:
            stack.append(locals_list[instr.arg])
        elif code == op.LOCAL_SET:
            locals_list[instr.arg] = stack.pop()
        elif code == op.LOCAL_TEE:
            locals_list[instr.arg] = stack[-1]
        elif code == op.I32_CONST or code == op.I64_CONST \
                or code == op.F32_CONST or code == op.F64_CONST:
            stack.append(instr.arg)

        # --- control ---
        elif code == op.BLOCK:
            labels.append((instr.target + 1, instr.arg.arity, len(stack), False))
        elif code == op.LOOP:
            labels.append((pc + 1, 0, len(stack), True))
        elif code == op.IF:
            condition = stack.pop()
            labels.append((instr.target + 1, instr.arg.arity, len(stack), False))
            if not condition:
                if instr.else_target != -1:
                    pc = instr.else_target + 1
                else:
                    pc = instr.target  # the end pops the label
                continue
        elif code == op.ELSE:
            # Fell out of the true branch: skip to the matching end.
            pc = labels[-1][0] - 1
            continue
        elif code == op.END:
            labels.pop()
        elif code == op.BR:
            pc = _branch(stack, labels, instr.arg)
            continue
        elif code == op.BR_IF:
            if stack.pop():
                pc = _branch(stack, labels, instr.arg)
                continue
        elif code == op.BR_TABLE:
            depths, default = instr.arg
            index = stack.pop()
            depth = depths[index] if index < len(depths) else default
            pc = _branch(stack, labels, depth)
            continue
        elif code == op.RETURN:
            if result_arity:
                return stack[-result_arity:]
            return stack
        elif code == op.CALL:
            func_index = instr.arg
            arity = len(func_types[func_index].params)
            if arity:
                args = stack[-arity:]
                del stack[-arity:]
                result = funcs[func_index](*args)
            else:
                result = funcs[func_index]()
            if func_types[func_index].results:
                stack.append(result)
        elif code == op.CALL_INDIRECT:
            element = stack.pop()
            func_index = instance.table.get(element)
            expected = module.types[instr.arg]
            if func_types[func_index] != expected:
                raise TrapError("indirect call signature mismatch")
            arity = len(expected.params)
            if arity:
                args = stack[-arity:]
                del stack[-arity:]
                result = funcs[func_index](*args)
            else:
                result = funcs[func_index]()
            if expected.results:
                stack.append(result)
        elif code == op.UNREACHABLE:
            raise TrapError("unreachable executed")
        elif code == op.NOP:
            pass
        elif code == op.DROP:
            stack.pop()
        elif code == op.SELECT:
            condition = stack.pop()
            if condition:
                stack.pop()
            else:
                stack[-2] = stack[-1]
                stack.pop()

        # --- globals ---
        elif code == op.GLOBAL_GET:
            stack.append(globals_list[instr.arg].value)
        elif code == op.GLOBAL_SET:
            globals_list[instr.arg].value = stack.pop()

        # --- memory loads ---
        elif code == op.I32_LOAD:
            address = stack[-1] + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = S_I32.unpack_from(mem, address)[0]
        elif code == op.I64_LOAD:
            address = stack[-1] + instr.arg
            if address + 8 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = S_I64.unpack_from(mem, address)[0]
        elif code == op.F32_LOAD:
            address = stack[-1] + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = S_F32.unpack_from(mem, address)[0]
        elif code == op.F64_LOAD:
            address = stack[-1] + instr.arg
            if address + 8 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = S_F64.unpack_from(mem, address)[0]
        elif code == op.I32_LOAD8_U or code == op.I64_LOAD8_U:
            address = stack[-1] + instr.arg
            if address >= len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = mem[address]
        elif code == op.I32_LOAD8_S or code == op.I64_LOAD8_S:
            address = stack[-1] + instr.arg
            if address >= len(mem):
                raise TrapError("out-of-bounds memory access")
            byte = mem[address]
            bits = 32 if code == op.I32_LOAD8_S else 64
            stack[-1] = num.extend_signed(byte, 8, bits)
        elif code == op.I32_LOAD16_U or code == op.I64_LOAD16_U:
            address = stack[-1] + instr.arg
            if address + 2 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = S_I16.unpack_from(mem, address)[0]
        elif code == op.I32_LOAD16_S or code == op.I64_LOAD16_S:
            address = stack[-1] + instr.arg
            if address + 2 > len(mem):
                raise TrapError("out-of-bounds memory access")
            bits = 32 if code == op.I32_LOAD16_S else 64
            stack[-1] = num.extend_signed(S_I16.unpack_from(mem, address)[0], 16, bits)
        elif code == op.I64_LOAD32_U:
            address = stack[-1] + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = S_I32.unpack_from(mem, address)[0]
        elif code == op.I64_LOAD32_S:
            address = stack[-1] + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            stack[-1] = num.extend_signed(S_I32.unpack_from(mem, address)[0], 32, 64)

        # --- memory stores ---
        elif code == op.I32_STORE:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            S_I32.pack_into(mem, address, value)
        elif code == op.I64_STORE:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address + 8 > len(mem):
                raise TrapError("out-of-bounds memory access")
            S_I64.pack_into(mem, address, value)
        elif code == op.F32_STORE:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            S_F32.pack_into(mem, address, value)
        elif code == op.F64_STORE:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address + 8 > len(mem):
                raise TrapError("out-of-bounds memory access")
            S_F64.pack_into(mem, address, value)
        elif code == op.I32_STORE8 or code == op.I64_STORE8:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address >= len(mem):
                raise TrapError("out-of-bounds memory access")
            mem[address] = value & 0xFF
        elif code == op.I32_STORE16 or code == op.I64_STORE16:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address + 2 > len(mem):
                raise TrapError("out-of-bounds memory access")
            S_I16.pack_into(mem, address, value & 0xFFFF)
        elif code == op.I64_STORE32:
            value = stack.pop()
            address = stack.pop() + instr.arg
            if address + 4 > len(mem):
                raise TrapError("out-of-bounds memory access")
            S_I32.pack_into(mem, address, value & _MASK32)
        elif code == op.MEMORY_SIZE:
            stack.append(memory.size_pages)
        elif code == op.MEMORY_GROW:
            stack[-1] = memory.grow(stack[-1]) & _MASK32

        # --- i32 comparisons ---
        elif code == op.I32_EQZ:
            stack[-1] = 1 if stack[-1] == 0 else 0
        elif code == op.I32_EQ:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] == rhs else 0
        elif code == op.I32_NE:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] != rhs else 0
        elif code == op.I32_LT_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s32(stack[-1]) < num.s32(rhs) else 0
        elif code == op.I32_LT_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] < rhs else 0
        elif code == op.I32_GT_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s32(stack[-1]) > num.s32(rhs) else 0
        elif code == op.I32_GT_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] > rhs else 0
        elif code == op.I32_LE_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s32(stack[-1]) <= num.s32(rhs) else 0
        elif code == op.I32_LE_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] <= rhs else 0
        elif code == op.I32_GE_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s32(stack[-1]) >= num.s32(rhs) else 0
        elif code == op.I32_GE_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] >= rhs else 0

        # --- i64 comparisons ---
        elif code == op.I64_EQZ:
            stack[-1] = 1 if stack[-1] == 0 else 0
        elif code == op.I64_EQ:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] == rhs else 0
        elif code == op.I64_NE:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] != rhs else 0
        elif code == op.I64_LT_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s64(stack[-1]) < num.s64(rhs) else 0
        elif code == op.I64_LT_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] < rhs else 0
        elif code == op.I64_GT_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s64(stack[-1]) > num.s64(rhs) else 0
        elif code == op.I64_GT_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] > rhs else 0
        elif code == op.I64_LE_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s64(stack[-1]) <= num.s64(rhs) else 0
        elif code == op.I64_LE_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] <= rhs else 0
        elif code == op.I64_GE_S:
            rhs = stack.pop()
            stack[-1] = 1 if num.s64(stack[-1]) >= num.s64(rhs) else 0
        elif code == op.I64_GE_U:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] >= rhs else 0

        # --- float comparisons (NaN-aware via Python semantics) ---
        elif code == op.F32_EQ or code == op.F64_EQ:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] == rhs else 0
        elif code == op.F32_NE or code == op.F64_NE:
            rhs = stack.pop()
            lhs = stack[-1]
            stack[-1] = 1 if (lhs != rhs or math.isnan(lhs) or math.isnan(rhs)) else 0
        elif code == op.F32_LT or code == op.F64_LT:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] < rhs else 0
        elif code == op.F32_GT or code == op.F64_GT:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] > rhs else 0
        elif code == op.F32_LE or code == op.F64_LE:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] <= rhs else 0
        elif code == op.F32_GE or code == op.F64_GE:
            rhs = stack.pop()
            stack[-1] = 1 if stack[-1] >= rhs else 0

        # --- i32 arithmetic ---
        elif code == op.I32_ADD:
            rhs = stack.pop()
            stack[-1] = (stack[-1] + rhs) & _MASK32
        elif code == op.I32_SUB:
            rhs = stack.pop()
            stack[-1] = (stack[-1] - rhs) & _MASK32
        elif code == op.I32_MUL:
            rhs = stack.pop()
            stack[-1] = (stack[-1] * rhs) & _MASK32
        elif code == op.I32_DIV_S:
            rhs = stack.pop()
            stack[-1] = num.idiv_s(stack[-1], rhs, 32)
        elif code == op.I32_DIV_U:
            rhs = stack.pop()
            stack[-1] = num.idiv_u(stack[-1], rhs)
        elif code == op.I32_REM_S:
            rhs = stack.pop()
            stack[-1] = num.irem_s(stack[-1], rhs, 32)
        elif code == op.I32_REM_U:
            rhs = stack.pop()
            stack[-1] = num.irem_u(stack[-1], rhs)
        elif code == op.I32_AND:
            rhs = stack.pop()
            stack[-1] &= rhs
        elif code == op.I32_OR:
            rhs = stack.pop()
            stack[-1] |= rhs
        elif code == op.I32_XOR:
            rhs = stack.pop()
            stack[-1] ^= rhs
        elif code == op.I32_SHL:
            rhs = stack.pop()
            stack[-1] = (stack[-1] << (rhs % 32)) & _MASK32
        elif code == op.I32_SHR_U:
            rhs = stack.pop()
            stack[-1] >>= rhs % 32
        elif code == op.I32_SHR_S:
            rhs = stack.pop()
            stack[-1] = num.shr_s(stack[-1], rhs, 32)
        elif code == op.I32_ROTL:
            rhs = stack.pop()
            stack[-1] = num.rotl(stack[-1], rhs, 32)
        elif code == op.I32_ROTR:
            rhs = stack.pop()
            stack[-1] = num.rotr(stack[-1], rhs, 32)
        elif code == op.I32_CLZ:
            stack[-1] = num.clz(stack[-1], 32)
        elif code == op.I32_CTZ:
            stack[-1] = num.ctz(stack[-1], 32)
        elif code == op.I32_POPCNT:
            stack[-1] = num.popcnt(stack[-1])

        # --- i64 arithmetic ---
        elif code == op.I64_ADD:
            rhs = stack.pop()
            stack[-1] = (stack[-1] + rhs) & _MASK64
        elif code == op.I64_SUB:
            rhs = stack.pop()
            stack[-1] = (stack[-1] - rhs) & _MASK64
        elif code == op.I64_MUL:
            rhs = stack.pop()
            stack[-1] = (stack[-1] * rhs) & _MASK64
        elif code == op.I64_DIV_S:
            rhs = stack.pop()
            stack[-1] = num.idiv_s(stack[-1], rhs, 64)
        elif code == op.I64_DIV_U:
            rhs = stack.pop()
            stack[-1] = num.idiv_u(stack[-1], rhs)
        elif code == op.I64_REM_S:
            rhs = stack.pop()
            stack[-1] = num.irem_s(stack[-1], rhs, 64)
        elif code == op.I64_REM_U:
            rhs = stack.pop()
            stack[-1] = num.irem_u(stack[-1], rhs)
        elif code == op.I64_AND:
            rhs = stack.pop()
            stack[-1] &= rhs
        elif code == op.I64_OR:
            rhs = stack.pop()
            stack[-1] |= rhs
        elif code == op.I64_XOR:
            rhs = stack.pop()
            stack[-1] ^= rhs
        elif code == op.I64_SHL:
            rhs = stack.pop()
            stack[-1] = (stack[-1] << (rhs % 64)) & _MASK64
        elif code == op.I64_SHR_U:
            rhs = stack.pop()
            stack[-1] >>= rhs % 64
        elif code == op.I64_SHR_S:
            rhs = stack.pop()
            stack[-1] = num.shr_s(stack[-1], rhs, 64)
        elif code == op.I64_ROTL:
            rhs = stack.pop()
            stack[-1] = num.rotl(stack[-1], rhs, 64)
        elif code == op.I64_ROTR:
            rhs = stack.pop()
            stack[-1] = num.rotr(stack[-1], rhs, 64)
        elif code == op.I64_CLZ:
            stack[-1] = num.clz(stack[-1], 64)
        elif code == op.I64_CTZ:
            stack[-1] = num.ctz(stack[-1], 64)
        elif code == op.I64_POPCNT:
            stack[-1] = num.popcnt(stack[-1])

        # --- f64 arithmetic ---
        elif code == op.F64_ADD:
            rhs = stack.pop()
            stack[-1] += rhs
        elif code == op.F64_SUB:
            rhs = stack.pop()
            stack[-1] -= rhs
        elif code == op.F64_MUL:
            rhs = stack.pop()
            stack[-1] *= rhs
        elif code == op.F64_DIV:
            rhs = stack.pop()
            stack[-1] = _fdiv(stack[-1], rhs)
        elif code == op.F64_MIN:
            rhs = stack.pop()
            stack[-1] = num.fmin(stack[-1], rhs)
        elif code == op.F64_MAX:
            rhs = stack.pop()
            stack[-1] = num.fmax(stack[-1], rhs)
        elif code == op.F64_COPYSIGN:
            rhs = stack.pop()
            stack[-1] = math.copysign(stack[-1], rhs)
        elif code == op.F64_ABS:
            stack[-1] = abs(stack[-1])
        elif code == op.F64_NEG:
            stack[-1] = -stack[-1]
        elif code == op.F64_CEIL:
            stack[-1] = num.fceil(stack[-1])
        elif code == op.F64_FLOOR:
            stack[-1] = num.ffloor(stack[-1])
        elif code == op.F64_TRUNC:
            stack[-1] = num.ftrunc(stack[-1])
        elif code == op.F64_NEAREST:
            stack[-1] = num.fnearest(stack[-1])
        elif code == op.F64_SQRT:
            stack[-1] = num.fsqrt(stack[-1])

        # --- f32 arithmetic (round every result to f32) ---
        elif code == op.F32_ADD:
            rhs = stack.pop()
            stack[-1] = num.f32_round(stack[-1] + rhs)
        elif code == op.F32_SUB:
            rhs = stack.pop()
            stack[-1] = num.f32_round(stack[-1] - rhs)
        elif code == op.F32_MUL:
            rhs = stack.pop()
            stack[-1] = num.f32_round(stack[-1] * rhs)
        elif code == op.F32_DIV:
            rhs = stack.pop()
            stack[-1] = num.f32_round(_fdiv(stack[-1], rhs))
        elif code == op.F32_MIN:
            rhs = stack.pop()
            stack[-1] = num.fmin(stack[-1], rhs)
        elif code == op.F32_MAX:
            rhs = stack.pop()
            stack[-1] = num.fmax(stack[-1], rhs)
        elif code == op.F32_COPYSIGN:
            rhs = stack.pop()
            stack[-1] = math.copysign(stack[-1], rhs)
        elif code == op.F32_ABS:
            stack[-1] = abs(stack[-1])
        elif code == op.F32_NEG:
            stack[-1] = -stack[-1]
        elif code == op.F32_CEIL:
            stack[-1] = num.fceil(stack[-1])
        elif code == op.F32_FLOOR:
            stack[-1] = num.ffloor(stack[-1])
        elif code == op.F32_TRUNC:
            stack[-1] = num.ftrunc(stack[-1])
        elif code == op.F32_NEAREST:
            stack[-1] = num.fnearest(stack[-1])
        elif code == op.F32_SQRT:
            stack[-1] = num.f32_round(num.fsqrt(stack[-1]))

        # --- conversions ---
        elif code == op.I32_WRAP_I64:
            stack[-1] &= _MASK32
        elif code == op.I64_EXTEND_I32_U:
            pass  # already an unsigned int
        elif code == op.I64_EXTEND_I32_S:
            stack[-1] = num.s32(stack[-1]) & _MASK64
        elif code == op.I32_TRUNC_F32_S or code == op.I32_TRUNC_F64_S:
            stack[-1] = num.trunc_to_int(stack[-1], True, 32)
        elif code == op.I32_TRUNC_F32_U or code == op.I32_TRUNC_F64_U:
            stack[-1] = num.trunc_to_int(stack[-1], False, 32)
        elif code == op.I64_TRUNC_F32_S or code == op.I64_TRUNC_F64_S:
            stack[-1] = num.trunc_to_int(stack[-1], True, 64)
        elif code == op.I64_TRUNC_F32_U or code == op.I64_TRUNC_F64_U:
            stack[-1] = num.trunc_to_int(stack[-1], False, 64)
        elif code == op.F32_CONVERT_I32_S:
            stack[-1] = num.f32_round(float(num.s32(stack[-1])))
        elif code == op.F32_CONVERT_I32_U or code == op.F32_CONVERT_I64_U:
            stack[-1] = num.f32_round(float(stack[-1]))
        elif code == op.F32_CONVERT_I64_S:
            stack[-1] = num.f32_round(float(num.s64(stack[-1])))
        elif code == op.F64_CONVERT_I32_S:
            stack[-1] = float(num.s32(stack[-1]))
        elif code == op.F64_CONVERT_I32_U or code == op.F64_CONVERT_I64_U:
            stack[-1] = float(stack[-1])
        elif code == op.F64_CONVERT_I64_S:
            stack[-1] = float(num.s64(stack[-1]))
        elif code == op.F32_DEMOTE_F64:
            stack[-1] = num.f32_round(stack[-1])
        elif code == op.F64_PROMOTE_F32:
            pass
        elif code == op.I32_REINTERPRET_F32:
            stack[-1] = num.i32_reinterpret_f32(stack[-1])
        elif code == op.I64_REINTERPRET_F64:
            stack[-1] = num.i64_reinterpret_f64(stack[-1])
        elif code == op.F32_REINTERPRET_I32:
            stack[-1] = num.f32_reinterpret_i32(stack[-1])
        elif code == op.F64_REINTERPRET_I64:
            stack[-1] = num.f64_reinterpret_i64(stack[-1])
        elif code == op.I32_EXTEND8_S:
            stack[-1] = num.extend_signed(stack[-1], 8, 32)
        elif code == op.I32_EXTEND16_S:
            stack[-1] = num.extend_signed(stack[-1], 16, 32)
        elif code == op.I64_EXTEND8_S:
            stack[-1] = num.extend_signed(stack[-1], 8, 64)
        elif code == op.I64_EXTEND16_S:
            stack[-1] = num.extend_signed(stack[-1], 16, 64)
        elif code == op.I64_EXTEND32_S:
            stack[-1] = num.extend_signed(stack[-1], 32, 64)
        else:
            raise TrapError(f"unimplemented opcode {op.name(code)}")

        pc += 1

    return stack


def _branch(stack: List, labels: List, depth: int) -> int:
    """Unwind to the label ``depth`` levels out; returns the new pc."""
    index = len(labels) - 1 - depth
    continuation, arity, height, is_loop = labels[index]
    if arity:
        kept = stack[-arity:]
        del stack[height:]
        stack.extend(kept)
    else:
        del stack[height:]
    if is_loop:
        del labels[index + 1 :]
    else:
        del labels[index:]
    return continuation


#: Backwards-compatible alias: the helper moved to ``numerics`` so the
#: AOT engine shares it without importing the interpreter internals.
_fdiv = num.fdiv

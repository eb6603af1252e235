"""A from-scratch WebAssembly MVP virtual machine.

This package replaces WAMR in the paper's stack: a binary decoder and
encoder (builder), the spec validation algorithm, an interpreting engine
and an ahead-of-time engine that lowers Wasm to Python closures.
"""

from repro.wasm.aot import AotCompiler
from repro.wasm.builder import FunctionBuilder, ModuleBuilder
from repro.wasm.codecache import DEFAULT_CACHE, CodeCache
from repro.wasm.decoder import decode_module
from repro.wasm.interpreter import Interpreter
from repro.wasm.module import Module
from repro.wasm.runtime import (
    Engine,
    HostFunction,
    Instance,
    Memory,
    Table,
)
from repro.wasm.types import F32, F64, I32, I64, PAGE_SIZE, FuncType, ValType
from repro.wasm.validation import validate_module

__all__ = [
    "AotCompiler",
    "Interpreter",
    "Engine",
    "CodeCache",
    "DEFAULT_CACHE",
    "ModuleBuilder",
    "FunctionBuilder",
    "decode_module",
    "validate_module",
    "Module",
    "Instance",
    "Memory",
    "Table",
    "HostFunction",
    "FuncType",
    "ValType",
    "I32",
    "I64",
    "F32",
    "F64",
    "PAGE_SIZE",
]

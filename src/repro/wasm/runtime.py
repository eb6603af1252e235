"""Runtime structures shared by the interpreter and the AOT engine.

An :class:`Engine` runs a module in WAMR's three steps
(``wasm_runtime_load``, ``wasm_runtime_instantiate``,
``wasm_runtime_deinstantiate``): :meth:`Engine.load` decodes, validates
and compiles a binary once, or returns its code-cache entry;
:meth:`Engine.instantiate` links a fresh :class:`Instance` from it; and
:meth:`Instance.close` frees that instance's memory and code. An instance
owns a linear :class:`Memory`, a funcref :class:`Table`, globals and a
function index space mixing host imports and local functions. Engines
differ only in what they compile a decoded
:class:`~repro.wasm.module.Function` to and how they link it.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import LinkError, TrapError, ValidationError
from repro.wasm import codecache
from repro.wasm.codecache import CacheEntry
from repro.wasm.decoder import decode_module
from repro.wasm.module import Module
from repro.wasm.types import PAGE_SIZE, FuncType, ValType
from repro.wasm.validation import validate_module

# Bounded well below CPython's own recursion limit: one Wasm frame costs
# up to three Python frames in the interpreting engine.
MAX_CALL_DEPTH = 256


class Memory:
    """A growable linear memory backed by a single ``bytearray``.

    The backing buffer grows in place (``bytearray.extend``) so references
    captured by compiled code stay valid across ``memory.grow``.

    Besides raw byte access through ``data``, the memory exposes *typed
    planes*: ``memoryview(data).cast(fmt)`` views reinterpreting the whole
    buffer as an array of 2/4/8-byte elements. The AOT engine indexes these
    directly for accesses it proves naturally aligned, skipping the
    ``struct`` pack/unpack layer. Wasm values are little-endian, so planes
    are only available on little-endian hosts (``planes_supported``);
    callers must fall back to the struct path otherwise.

    ``bytearray.extend`` raises ``BufferError`` while any view is exported,
    so :meth:`grow` releases every plane first; a holder re-requests its
    planes after a grow (the AOT code that executes ``memory.grow``
    rebinds its instance's plane globals), which lazily rebuilds them over
    the grown buffer.
    """

    #: Plane element formats and widths; linear memory is always a whole
    #: number of 64 KiB pages, so every cast divides the buffer exactly.
    PLANE_FORMATS = {"H": 2, "I": 4, "Q": 8, "f": 4, "d": 8}

    #: Typed planes alias the raw bytes, so they are only meaningful where
    #: host element order matches Wasm's little-endian layout.
    planes_supported = sys.byteorder == "little"

    def __init__(self, min_pages: int, max_pages: Optional[int] = None,
                 hard_cap_bytes: Optional[int] = None) -> None:
        self.max_pages = max_pages
        self.hard_cap_bytes = hard_cap_bytes
        if hard_cap_bytes is not None and min_pages * PAGE_SIZE > hard_cap_bytes:
            raise TrapError("initial memory exceeds the platform heap cap")
        self.data = bytearray(min_pages * PAGE_SIZE)
        self._planes: Dict[str, memoryview] = {}

    @property
    def size_pages(self) -> int:
        return len(self.data) // PAGE_SIZE

    def plane(self, fmt: str) -> memoryview:
        """The buffer viewed as an array of ``fmt`` elements (cached)."""
        if not self.planes_supported:
            raise BufferError("typed planes need a little-endian host")
        view = self._planes.get(fmt)
        if view is None:
            if fmt not in self.PLANE_FORMATS:
                raise ValueError(f"unsupported plane format {fmt!r}")
            view = memoryview(self.data).cast(fmt)
            self._planes[fmt] = view
        return view

    def _release_planes(self) -> None:
        planes, self._planes = self._planes, {}
        for view in planes.values():
            view.release()

    def grow(self, delta_pages: int) -> int:
        """Grow by ``delta_pages``; returns old size in pages, or -1."""
        old = self.size_pages
        new = old + delta_pages
        if new > 65536:
            return -1
        if self.max_pages is not None and new > self.max_pages:
            return -1
        if (self.hard_cap_bytes is not None
                and new * PAGE_SIZE > self.hard_cap_bytes):
            return -1
        # Exported memoryviews pin the buffer; drop them for the resize.
        self._release_planes()
        self.data.extend(bytes(delta_pages * PAGE_SIZE))
        return old

    # -- typed access (used by hosts and the interpreter) ---------------------

    def read(self, address: int, size: int) -> bytes:
        if address < 0 or address + size > len(self.data):
            raise TrapError("out-of-bounds memory read")
        return bytes(self.data[address : address + size])

    def write(self, address: int, payload: bytes) -> None:
        if address < 0 or address + len(payload) > len(self.data):
            raise TrapError("out-of-bounds memory write")
        self.data[address : address + len(payload)] = payload


class Table:
    """A funcref table; unset elements trap on call_indirect."""

    def __init__(self, minimum: int, maximum: Optional[int] = None) -> None:
        self.maximum = maximum
        self.elements: List[Optional[int]] = [None] * minimum

    def get(self, index: int) -> int:
        if index < 0 or index >= len(self.elements):
            raise TrapError("table index out of bounds")
        element = self.elements[index]
        if element is None:
            raise TrapError("uninitialised table element")
        return element


class GlobalInstance:
    """A mutable or immutable global cell."""

    __slots__ = ("value", "mutable", "valtype")

    def __init__(self, valtype: ValType, value, mutable: bool) -> None:
        self.valtype = valtype
        self.value = value
        self.mutable = mutable


class HostFunction:
    """An imported function provided by the embedder (e.g. the WASI layer).

    ``fn`` is called as ``fn(instance, *args)`` and must return ``None``,
    a single value, or a tuple matching the declared result arity.
    """

    def __init__(self, func_type: FuncType, fn: Callable, name: str = "") -> None:
        self.func_type = func_type
        self.fn = fn
        self.name = name


Imports = Dict[str, Dict[str, HostFunction]]


class Instance:
    """An instantiated module with its runtime state."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.memory: Optional[Memory] = None
        self.table: Optional[Table] = None
        self.globals: List[GlobalInstance] = []
        # Joint function index space; each entry is a Python callable taking
        # positional Wasm values.
        self.funcs: List[Callable] = []
        self.func_types: List[FuncType] = []
        self.call_depth = 0
        self._export_cache: Dict[str, Callable] = {}
        #: The globals of the instance's generated code (AOT engine).
        self.namespace: dict = {}
        self.closed = False

    def close(self) -> None:
        """Free the instance's memory and code now (idempotent).

        Its functions, host bindings and generated code all refer back to
        the instance, so without this it would wait for a full garbage
        collection. A closed instance's exports trap, also one taken
        before the close: every later call fails the depth check each
        call already makes (the AOT entry maps its cleared namespace).
        """
        self.closed = True
        self.call_depth = math.inf
        self.funcs.clear()
        self._export_cache.clear()
        self.namespace.clear()
        self.memory = None

    def enter_call(self) -> None:
        self.call_depth += 1
        if self.call_depth > MAX_CALL_DEPTH:
            # Undo only this frame's increment: every frame that did enter
            # runs exit_call while the trap unwinds it.
            self.call_depth -= 1
            raise TrapError("instance is closed" if self.closed
                            else "call stack exhausted")

    def exit_call(self) -> None:
        self.call_depth -= 1

    def exported_function(self, name: str) -> Callable:
        cached = self._export_cache.get(name)
        if cached is not None:
            return cached
        if self.closed:
            raise TrapError("instance is closed")
        export = self.module.export(name)
        if export.kind != "func":
            raise LinkError(f"export {name!r} is a {export.kind}, not a function")
        fn = self.funcs[export.index]
        self._export_cache[name] = fn
        return fn

    def invoke(self, name: str, *args):
        """Call an exported function with Python values."""
        return self.exported_function(name)(*args)


class Engine:
    """Interface implemented by the interpreter and the AOT compiler."""

    #: Human-readable engine name, used in benchmark labels and as the
    #: engine's part of a code-cache key.
    name = "abstract"

    def compile_function(self, module: Module, func_index: int) -> object:
        """Compile one local function to an instance-independent artifact,
        which :meth:`link` binds to an instance."""
        raise NotImplementedError

    def link(self, module: Module, instance: Instance,
             artifacts: Sequence[object]) -> List[Callable]:
        """The entry points of the local functions, bound to ``instance``."""
        raise NotImplementedError

    def load(self, binary: bytes, code_cache=codecache.DEFAULT,
             key: Optional[str] = None) -> CacheEntry:
        """Decode, validate and compile every function of ``binary`` once.

        ``code_cache`` selects the content-addressed code cache:
        :data:`repro.wasm.codecache.DEFAULT` uses the process-wide cache,
        ``None`` bypasses it, a :class:`~repro.wasm.codecache.CodeCache`
        uses that one. On a hit the cached entry is returned and nothing
        is decoded, validated or compiled. ``key`` is the binary's content
        address when the caller has hashed it already; a binary that fails
        to decode, validate or compile is never cached.
        """
        cache = codecache.resolve(code_cache)
        if cache is not None:
            if key is None:
                key = codecache.CodeCache.module_key(binary)
            entry = cache.lookup(key, self.name)
            if entry is not None:
                return entry
        module = decode_module(binary)
        validate_module(module)
        base = len(module.imported_funcs)
        artifacts = tuple(self.compile_function(module, base + offset)
                          for offset in range(len(module.functions)))
        if cache is None:
            return CacheEntry(module, artifacts)
        return cache.store(key, self.name, module, artifacts)

    def instantiate(self, loaded: Union[CacheEntry, bytes],
                    imports: Optional[Imports] = None,
                    memory_cap_bytes: Optional[int] = None,
                    code_cache=codecache.DEFAULT) -> Instance:
        """Link a fresh instance from a loaded module, loading a binary
        first (through ``code_cache``, see :meth:`load`).

        ``memory_cap_bytes`` lets the embedding platform (OP-TEE's secure
        heap in this reproduction) cap the linear memory irrespective of the
        module's own limits. Runtime state (memory, table, globals) is
        always built fresh.
        """
        if isinstance(loaded, (bytes, bytearray)):
            loaded = self.load(bytes(loaded), code_cache)
        module = loaded.module
        imports = imports or {}

        instance = Instance(module)

        for imported in module.imported_funcs:
            namespace = imports.get(imported.module, {})
            host = namespace.get(imported.name)
            if host is None:
                raise LinkError(
                    f"unresolved import {imported.module}.{imported.name}"
                )
            expected = module.types[imported.type_index]
            if host.func_type != expected:
                raise LinkError(
                    f"import {imported.module}.{imported.name}: "
                    f"signature {host.func_type} != declared {expected}"
                )
            instance.funcs.append(_bind_host(host, instance))
            instance.func_types.append(expected)

        if module.memories:
            limits = module.memories[0].limits
            instance.memory = Memory(
                limits.minimum, limits.maximum, hard_cap_bytes=memory_cap_bytes
            )
        if module.tables:
            limits = module.tables[0].limits
            instance.table = Table(limits.minimum, limits.maximum)

        for global_decl in module.globals:
            instance.globals.append(
                GlobalInstance(
                    global_decl.type.valtype,
                    global_decl.init,
                    global_decl.type.mutable,
                )
            )

        for segment in module.elements:
            table = instance.table
            if table is None:
                raise ValidationError("element segment without a table")
            end = segment.offset + len(segment.func_indices)
            if end > len(table.elements):
                raise TrapError("element segment out of bounds")
            for position, func_index in enumerate(segment.func_indices):
                table.elements[segment.offset + position] = func_index

        for segment in module.data_segments:
            if instance.memory is None:
                raise ValidationError("data segment without a memory")
            instance.memory.write(segment.offset, segment.data)

        base = len(module.imported_funcs)
        instance.func_types.extend(
            module.func_type(base + offset)
            for offset in range(len(module.functions)))
        instance.funcs.extend(self.link(module, instance, loaded.artifacts))

        if module.start is not None:
            instance.funcs[module.start]()
        return instance


def _bind_host(host: HostFunction, instance: Instance) -> Callable:
    def call(*args):
        result = host.fn(instance, *args)
        arity = len(host.func_type.results)
        if arity == 0:
            return None
        if arity == 1 and isinstance(result, tuple):
            return result[0]
        return result

    call.host = host  # type: ignore[attr-defined]
    return call


# Preformatted structs for typed memory access.
S_I32 = struct.Struct("<I")
S_I64 = struct.Struct("<Q")
S_F32 = struct.Struct("<f")
S_F64 = struct.Struct("<d")
S_I16 = struct.Struct("<H")

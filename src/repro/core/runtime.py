"""The WaTZ runtime: a trusted application hosting Wasm applications.

The flow of paper Fig. 2: the normal world places AOT bytecode in a shared
buffer and invokes the runtime TA; the runtime copies the bytecode into
secure memory *measuring it as it goes*, allocates executable pages
through the kernel extension, loads and instantiates the module with WASI +
WASI-RA bindings, and executes it. Each of Fig. 4's startup phases is a
step of its own, so ``repro.obs`` times them from outside
(``TraceAnalyzer.startup_phases``). Unloading an application (or closing
the session) closes its instance, which frees its memory and code at once.

A :class:`NormalWorldRuntime` (the WAMR-outside-the-TEE baseline of
Figs. 5/6/8) shares the engines but binds WASI to the cheap normal-world
clock and skips all world transitions.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.attester import Attester
from repro.core.measurement import Measurement, MeasuringCopier, measure_bytes
from repro.core.wasi_ra import WasiRa, build_wasi_ra_imports
from repro.errors import TeeBadParameters
from repro.optee.sharedmem import SharedBuffer
from repro.optee.ta import TaManifest, TrustedApplication
from repro.wasi import ProcExit, WasiEnvironment, build_wasi_imports
from repro.wasi.filesystem import TrustedStorageBacking, WasiFilesystem
from repro.wasm import AotCompiler, Interpreter
from repro.wasm.runtime import Imports, Instance

# Runtime TA commands.
CMD_LOAD = 1
CMD_INVOKE = 2
CMD_STDOUT = 3
CMD_MEASUREMENT = 4
CMD_UNLOAD = 5

#: Observed by the paper (§VI-B): loading an AOT module roughly doubles the
#: resident size because WAMR allocates a structure per relocation entry.
RELOCATION_OVERHEAD_FACTOR = 2

_ENGINES = {
    "aot": AotCompiler,
    "interpreter": Interpreter,
}


@dataclass
class LoadedApp:
    """A hosted Wasm application inside the runtime."""

    instance: Instance
    measurement: Measurement
    wasi_env: WasiEnvironment
    wasi_ra: Optional[WasiRa]
    allocated_bytes: int = 0
    executable_region: object = None


class WatzRuntime(TrustedApplication):
    """The WaTZ trusted application (the attester of Fig. 2)."""

    #: Execution engine, fixed per TA image as the paper builds one TA
    #: per configuration (``Device.open_watz(engine=...)``); "aot" is the
    #: paper's choice, "interpreter" the ablation baseline.
    engine_name = "aot"

    def open_session(self, api) -> None:
        super().open_session(api)
        self._apps: Dict[int, LoadedApp] = {}
        self._next_handle = 1

    def close_session(self) -> None:
        for app in self._apps.values():
            app.instance.close()
        self._apps.clear()

    # -- TA command dispatch ----------------------------------------------------

    def invoke(self, command: int, params: dict) -> dict:
        if not isinstance(params, dict):
            raise TeeBadParameters("TA parameters must be a dict")
        if command == CMD_LOAD:
            return self._cmd_load(params)
        if command == CMD_INVOKE:
            return self._cmd_invoke(params)
        if command == CMD_STDOUT:
            return {"stdout": self._app(params).wasi_env.stdout_text()}
        if command == CMD_MEASUREMENT:
            return {"measurement": self._app(params).measurement.hex}
        if command == CMD_UNLOAD:
            return self._cmd_unload(params)
        raise TeeBadParameters(f"unknown runtime command {command}")

    def _app(self, params: dict) -> LoadedApp:
        handle = params.get("app")
        app = self._apps.get(handle) if isinstance(handle, int) else None
        if app is None:
            raise TeeBadParameters("unknown application handle")
        return app

    # -- loading -------------------------------------------------------------------

    def _cmd_load(self, params: dict) -> dict:
        shared_buffer = params.get("bytecode")
        if not isinstance(shared_buffer, SharedBuffer):
            raise TeeBadParameters("bytecode must be a shared-memory buffer")
        size = params.get("size", shared_buffer.size)
        if not isinstance(size, int) or not 0 <= size <= shared_buffer.size:
            raise TeeBadParameters("bytecode size outside its shared buffer")
        args = params.get("args")
        if args is not None and not _is_str_sequence(args):
            raise TeeBadParameters("args must be a list of strings")
        entry = params.get("entry")
        if entry is not None:
            _check_call(entry, params.get("entry_args", ()))

        allocated, executable_region = self._alloc(size)
        handle = None
        try:
            bytecode, measurement = self._copy(shared_buffer, size)
            # The measurement is the binary's SHA-256, so it is the
            # content-addressed code cache's key: a binary loaded before
            # skips decode, validate and compile.
            engine = _ENGINES[self.engine_name]()
            loaded = engine.load(bytecode, key=measurement.hex)
            wasi_env, wasi_ra, imports = self._runtime_init(
                args, measurement, bool(params.get("filesystem")))
            instance = engine.instantiate(loaded, imports,
                                          memory_cap_bytes=self.api.heap_free)

            handle = self._next_handle
            self._next_handle += 1
            app = LoadedApp(
                instance=instance,
                measurement=measurement,
                wasi_env=wasi_env,
                wasi_ra=wasi_ra,
                allocated_bytes=allocated,
                executable_region=executable_region,
            )
            self._apps[handle] = app
            if entry is not None:
                self._run(app, entry, params.get("entry_args", ()))
            return {"app": handle, "measurement": measurement.hex}
        except BaseException:
            # A load that fails after allocating (a malformed module, a
            # link error, a trapping entry point) leaves nothing charged
            # and no half-loaded application behind.
            app = self._apps.pop(handle, None)
            if app is not None:
                app.instance.close()
            self.api.free_executable(executable_region)
            self.api.tee_free(allocated)
            raise

    def _alloc(self, size: int) -> Tuple[int, object]:
        """Fig. 4's memory allocation: a secure buffer for the bytecode,
        doubled for relocation bookkeeping (§VI-B), plus executable pages."""
        allocated = size * RELOCATION_OVERHEAD_FACTOR
        self.api.tee_malloc(allocated)
        try:
            return allocated, self.api.alloc_executable(size)
        except BaseException:
            self.api.tee_free(allocated)
            raise

    def _copy(self, shared_buffer: SharedBuffer,
              size: int) -> Tuple[bytes, Measurement]:
        """Copy the bytecode out of the shared buffer into secure memory,
        hashing every chunk on the way: the runtime loads exactly the
        bytes it measured. The copy is real data movement, paid on every
        load."""
        self.api.charge_ns(self.api.costs.shared_copy_ns(size))
        copier = MeasuringCopier()
        bytecode = copier.copy(shared_buffer.read(0, size))
        return bytecode, copier.finish()

    def _runtime_init(self, args, measurement: Measurement, filesystem: bool
                      ) -> Tuple[WasiEnvironment, WasiRa, Imports]:
        """Fig. 4's runtime initialisation: the WASI environment and the
        native symbols the module links against, bound to the finished
        measurement (WASI-RA's claim, the WASI-FS files' owner)."""
        api = self.api
        wasi_env = WasiEnvironment(
            args=args,
            clock_ns=api.get_system_time_ns,
            random_bytes=api.generate_random,
            wasi_dispatch=lambda: api.charge_ns(api.costs.wasi_dispatch_ns),
            filesystem=WasiFilesystem(TrustedStorageBacking(
                api, measurement.hex)) if filesystem else None,
        )
        wasi_ra = WasiRa(api, measurement.digest,
                         Attester(api.generate_random))
        imports = build_wasi_imports(wasi_env)
        imports.update(build_wasi_ra_imports(wasi_ra))
        return wasi_env, wasi_ra, imports

    # -- execution ------------------------------------------------------------------

    def _run(self, app: LoadedApp, function: str, args) -> object:
        try:
            return app.instance.invoke(function, *args)
        except ProcExit as exit_request:
            return exit_request.code

    def _cmd_invoke(self, params: dict) -> dict:
        app = self._app(params)
        function, args = params.get("function"), params.get("args", ())
        _check_call(function, args)
        return {"result": self._run(app, function, args)}

    def _cmd_unload(self, params: dict) -> dict:
        handle = params.get("app")
        if not isinstance(handle, int):
            raise TeeBadParameters("application handle must be an integer")
        app = self._apps.pop(handle, None)
        if app is not None:
            app.instance.close()
            self.api.tee_free(app.allocated_bytes)
            self.api.free_executable(app.executable_region)
        return {}


def _is_str_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, str) for item in value)


def _check_call(function, args) -> None:
    """A Wasm call from the normal world: an export name and numbers."""
    if not isinstance(function, str):
        raise TeeBadParameters("function must be an export name")
    if not isinstance(args, (list, tuple)) or not all(
            isinstance(arg, (int, float)) for arg in args):
        raise TeeBadParameters("args must be a list of numbers")


#: The canonical WaTZ TA manifest; heap size is workload-dependent and
#: overridden per benchmark exactly as the paper recompiles the TA.
def watz_manifest(heap_size: int, stack_size: int = 3 * 1024,
                  uuid: str = "watz-runtime") -> TaManifest:
    return TaManifest(uuid=uuid, name="watz", heap_size=heap_size,
                      stack_size=stack_size)


class NormalWorldRuntime:
    """WAMR running in the normal world (the unshielded baseline)."""

    def __init__(self, soc=None, engine_name: str = "aot") -> None:
        self._soc = soc
        self.engine_name = engine_name

    def load(self, bytecode: bytes,
             args: Optional[List[str]] = None,
             filesystem=None) -> LoadedApp:
        if self._soc is not None:
            clock_ns = self._soc.read_monotonic_ns
        else:
            clock_ns = lambda: time.perf_counter_ns()

        wasi_env = WasiEnvironment(args=args, clock_ns=clock_ns,
                                   random_bytes=os.urandom,
                                   filesystem=filesystem)
        imports = build_wasi_imports(wasi_env)
        engine = _ENGINES[self.engine_name]()
        instance = engine.instantiate(bytecode, imports)

        return LoadedApp(
            instance=instance,
            measurement=measure_bytes(bytecode),
            wasi_env=wasi_env,
            wasi_ra=None,
        )

    def invoke(self, app: LoadedApp, function: str, *args):
        try:
            return app.instance.invoke(function, *args)
        except ProcExit as exit_request:
            return exit_request.code

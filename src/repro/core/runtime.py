"""The WaTZ runtime: a trusted application hosting Wasm applications.

The flow of paper Fig. 2: the normal world places AOT bytecode in a shared
buffer and invokes the runtime TA; the runtime copies the bytecode into
secure memory *measuring it as it goes*, allocates executable pages
through the kernel extension, loads and instantiates the module with WASI +
WASI-RA bindings, and executes it. The per-phase startup breakdown (Fig. 4)
is recorded on every load. Unloading an application (or closing the
session) closes its instance, which frees its memory and code at once.

A :class:`NormalWorldRuntime` (the WAMR-outside-the-TEE baseline of
Figs. 5/6/8) shares the engines but binds WASI to the cheap normal-world
clock and skips all world transitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.attester import Attester
from repro.core.measurement import Measurement, MeasuringCopier
from repro.core.wasi_ra import WasiRa, build_wasi_ra_imports
from repro.errors import TeeBadParameters
from repro.optee.sharedmem import SharedBuffer
from repro.optee.ta import TaManifest, TrustedApplication
from repro.wasi import ProcExit, WasiEnvironment, build_wasi_imports
from repro.wasm import AotCompiler, Interpreter
from repro.wasm import codecache
from repro.wasm.runtime import Instance

# Runtime TA commands.
CMD_LOAD = 1
CMD_INVOKE = 2
CMD_STDOUT = 3
CMD_MEASUREMENT = 4
CMD_UNLOAD = 5
CMD_HOSTCALLS = 6

#: Observed by the paper (§VI-B): loading an AOT module roughly doubles the
#: resident size because WAMR allocates a structure per relocation entry.
RELOCATION_OVERHEAD_FACTOR = 2

_ENGINES = {
    "aot": AotCompiler,
    "interpreter": Interpreter,
}


@dataclass
class StartupBreakdown:
    """Fig. 4's phases. Real seconds, except the simulated transition."""

    transition_ns: int = 0
    alloc_s: float = 0.0
    runtime_init_s: float = 0.0
    load_s: float = 0.0
    hash_s: float = 0.0
    instantiate_s: float = 0.0
    execute_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (self.transition_ns * 1e-9 + self.alloc_s
                + self.runtime_init_s + self.load_s + self.hash_s
                + self.instantiate_s + self.execute_s)

    def fractions(self) -> Dict[str, float]:
        total = self.total_s or 1.0
        return {
            "transition": self.transition_ns * 1e-9 / total,
            "alloc": self.alloc_s / total,
            "runtime_init": self.runtime_init_s / total,
            "load": self.load_s / total,
            "hash": self.hash_s / total,
            "instantiate": self.instantiate_s / total,
            "execute": self.execute_s / total,
        }


@dataclass
class LoadedApp:
    """A hosted Wasm application inside the runtime."""

    instance: Instance
    measurement: Measurement
    wasi_env: WasiEnvironment
    wasi_ra: Optional[WasiRa]
    breakdown: StartupBreakdown
    allocated_bytes: int = 0
    executable_region: object = None
    #: repro.obs.record.HostCallLog when loaded with record_hostcalls.
    hostcall_log: object = None


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
        if command == CMD_HOSTCALLS:
            app = self._app(params)
            if app.hostcall_log is None:
                raise TeeBadParameters(
                    "application was not loaded with record_hostcalls")
            return {"log": app.hostcall_log.to_json()}
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

        api = self.api
        breakdown = StartupBreakdown(
            transition_ns=api.costs.world_enter_ns
        )

        # Phase 1: memory allocation — a secure buffer for the bytecode
        # (doubled for relocation bookkeeping, §VI-B) plus executable pages.
        started = time.perf_counter()
        allocated = size * RELOCATION_OVERHEAD_FACTOR
        api.tee_malloc(allocated)
        executable_region = None
        handle = None
        try:
            executable_region = api.alloc_executable(size)
            breakdown.alloc_s = time.perf_counter() - started

            # Phase 2: runtime initialisation — engine construction and
            # native symbol registration (the WASI and WASI-RA bindings).
            started = time.perf_counter()
            engine = _ENGINES[self.engine_name]()
            filesystem = None
            if params.get("filesystem"):
                # The WASI-FS extension (paper future work): files live in the
                # TA's GP Trusted Storage and persist across sessions.
                from repro.wasi.filesystem import (
                    TrustedStorageBacking,
                    WasiFilesystem,
                )

                filesystem = WasiFilesystem(TrustedStorageBacking(api))
            wasi_env = WasiEnvironment(
                args=args,
                clock_ns=api.get_system_time_ns,
                random_bytes=api.generate_random,
                wasi_dispatch=lambda: api.charge_ns(
                    api.costs.wasi_dispatch_ns),
                filesystem=filesystem,
            )
            imports = build_wasi_imports(wasi_env)
            breakdown.runtime_init_s = time.perf_counter() - started

            # Phase 3: loading — copy from the shared buffer into secure
            # memory, then parse, validate and AOT-process the module. This is
            # the paper's dominant phase (73% of startup, Fig. 4): "parses the
            # bytecode and creates the internal structures required to run",
            # including the relocation processing our AOT compilation stands
            # in for. The bytecode copy and its SimClock charge are real data
            # movement and are always paid.
            started = time.perf_counter()
            api.charge_ns(api.costs.shared_copy_ns(size))
            copier = MeasuringCopier()
            bytecode = copier.copy(shared_buffer.read(0, size))
            copy_s = time.perf_counter() - started

            # Phase 4: measurement (the hash later embedded in evidence).
            started = time.perf_counter()
            measurement = copier.finish()
            breakdown.hash_s = time.perf_counter() - started

            # The rest of the load. The measurement is the binary's SHA-256,
            # so it is the content-addressed code cache's key: a binary
            # loaded before skips decode, validate and compile.
            started = time.perf_counter()
            loaded = engine.load(
                bytecode,
                codecache.DEFAULT if params.get("code_cache", True) else None,
                key=measurement.hex)
            breakdown.load_s = copy_s + time.perf_counter() - started

            # WASI-RA needs the finished measurement as its claim.
            wasi_ra = WasiRa(api, measurement.digest,
                             Attester(api.generate_random))
            imports.update(build_wasi_ra_imports(wasi_ra))

            # Optional host-call recording (repro.obs): the log replays the
            # execution as a standalone deterministic benchmark.
            hostcall_log = None
            if params.get("record_hostcalls"):
                from repro.obs.record import record_host_calls

                imports, hostcall_log = record_host_calls(imports)

            # Phase 5: instantiation — memory/table/global setup and linking.
            started = time.perf_counter()
            instance = engine.instantiate(loaded, imports,
                                          memory_cap_bytes=api.heap_free)
            breakdown.instantiate_s = time.perf_counter() - started

            handle = self._next_handle
            self._next_handle += 1
            app = LoadedApp(
                instance=instance,
                measurement=measurement,
                wasi_env=wasi_env,
                wasi_ra=wasi_ra,
                breakdown=breakdown,
                allocated_bytes=allocated,
                executable_region=executable_region,
                hostcall_log=hostcall_log,
            )
            self._apps[handle] = app

            # Phase 6: optional immediate execution of the entry point.
            if entry is not None:
                started = time.perf_counter()
                self._run(app, entry, params.get("entry_args", ()))
                breakdown.execute_s = time.perf_counter() - started

            return {
                "app": handle,
                "measurement": measurement.hex,
                "breakdown": breakdown,
            }
        except BaseException:
            # A load that fails after allocating (a malformed module, a
            # link error, a trapping entry point) leaves nothing charged
            # and no half-loaded application behind.
            app = self._apps.pop(handle, None)
            if app is not None:
                app.instance.close()
            if executable_region is not None:
                api.free_executable(executable_region)
            api.tee_free(allocated)
            raise

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
             filesystem=None,
             code_cache=codecache.DEFAULT) -> LoadedApp:
        if self._soc is not None:
            clock_ns = self._soc.read_monotonic_ns
        else:
            clock_ns = lambda: time.perf_counter_ns()
        import os

        wasi_env = WasiEnvironment(args=args, clock_ns=clock_ns,
                                   random_bytes=os.urandom,
                                   filesystem=filesystem)
        imports = build_wasi_imports(wasi_env)
        engine = _ENGINES[self.engine_name]()
        started = time.perf_counter()
        instance = engine.instantiate(bytecode, imports,
                                      code_cache=code_cache)
        load_s = time.perf_counter() - started
        breakdown = StartupBreakdown(instantiate_s=load_s)
        from repro.core.measurement import measure_bytes

        return LoadedApp(
            instance=instance,
            measurement=measure_bytes(bytecode),
            wasi_env=wasi_env,
            wasi_ra=None,
            breakdown=breakdown,
        )

    def invoke(self, app: LoadedApp, function: str, *args):
        try:
            return app.instance.invoke(function, *args)
        except ProcExit as exit_request:
            return exit_request.code

"""Every registered WASI entry point charges the dispatch cost (ISSUE 2).

The CostModel's ``wasi_dispatch_ns`` is what separates the native-TA and
Wasm curves of Fig. 3a, so *every* implemented preview1 function must
charge it exactly once per call — a function that forgets the charge
silently deflates the WASI-indirection results. The test is parametrized
over the IMPLEMENTED table so adding a new entry point without the
charge fails here by construction.
"""

import pytest

from repro.hw import DEFAULT_COSTS, SimClock
from repro.walc import compile_source
from repro.wasi import IMPLEMENTED, ProcExit, WasiEnvironment
from repro.wasi.host import WASI_MODULE, build_wasi_imports
from repro.wasm import AotCompiler

# Safe argument vectors: pointers land in scratch linear memory, file
# descriptors stick to the always-present stdio set. Every call must
# return (or raise ProcExit) without trapping so the dispatch charge is
# observable.
_CALL_ARGS = {
    "args_sizes_get": (0, 8),
    "args_get": (0, 64),
    "environ_sizes_get": (0, 8),
    "environ_get": (0, 64),
    "clock_res_get": (1, 8),
    "clock_time_get": (1, 0, 8),
    "fd_write": (1, 0, 0, 16),
    "fd_read": (0, 0, 0, 16),
    "fd_close": (1,),
    "fd_seek": (1, 0, 0, 16),
    "fd_fdstat_get": (1, 32),
    "fd_prestat_get": (3, 0),
    "proc_exit": (0,),
    "sched_yield": (),
    "random_get": (0, 8),
}


def _traced_environment():
    clock = SimClock()
    env = WasiEnvironment(
        clock_ns=clock.now_ns,
        wasi_dispatch=lambda: clock.advance(DEFAULT_COSTS.wasi_dispatch_ns),
    )
    return clock, env


def _instance(env):
    # A minimal module with one memory page: the namespace's registered
    # HostFunctions are invoked against its instance directly.
    binary = compile_source("memory 1;")
    return AotCompiler().instantiate(binary, build_wasi_imports(env))


def test_call_table_covers_every_implemented_function():
    assert sorted(_CALL_ARGS) == sorted(IMPLEMENTED)


@pytest.mark.parametrize("name", IMPLEMENTED)
def test_registered_wasi_call_charges_dispatch_cost(name):
    clock, env = _traced_environment()
    instance = _instance(env)
    host = build_wasi_imports(env)[WASI_MODULE][name]
    before = clock.now_ns()
    try:
        host.fn(instance, *_CALL_ARGS[name])
    except ProcExit:
        assert name == "proc_exit"
    charged = clock.now_ns() - before
    assert charged == DEFAULT_COSTS.wasi_dispatch_ns, (
        f"{name} must charge the dispatch cost exactly once "
        f"(charged {charged} ns)"
    )


@pytest.mark.parametrize("name", IMPLEMENTED)
def test_dispatch_charge_is_identical_under_tracing(name):
    """The traced namespace charges exactly what the untraced one does."""
    from repro.obs import Tracer
    from repro.wasi import host as wasi_host

    clock, env = _traced_environment()
    instance = _instance(env)
    tracer = Tracer(sim_now=clock.now_ns)
    with tracer.observe():
        host = wasi_host.build_wasi_imports(env)[WASI_MODULE][name]
        before = clock.now_ns()
        try:
            host.fn(instance, *_CALL_ARGS[name])
        except ProcExit:
            assert name == "proc_exit"
    assert clock.now_ns() - before == DEFAULT_COSTS.wasi_dispatch_ns
    spans = tracer.spans()
    assert [s.name for s in spans] == [f"wasi.{name}"]
    assert spans[0].sim_ns == DEFAULT_COSTS.wasi_dispatch_ns

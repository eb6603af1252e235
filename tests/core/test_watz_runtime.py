"""The WaTZ runtime TA: loading, measuring, executing Wasm on the platform."""

import gc
import math
import weakref

import pytest

from repro.core.runtime import (
    CMD_INVOKE,
    CMD_LOAD,
    CMD_MEASUREMENT,
    CMD_STDOUT,
    CMD_UNLOAD,
    NormalWorldRuntime,
    RELOCATION_OVERHEAD_FACTOR,
)
from repro.core.measurement import measure_bytes
from repro.errors import (
    DecodeError,
    LinkError,
    TeeAccessDenied,
    TeeBadParameters,
    TeeOutOfMemory,
    TrapError,
    WasmError,
)
from repro.obs import Tracer, TraceAnalyzer
from repro.walc import compile_source
from repro.wasm.codecache import CodeCache, DEFAULT_CACHE
from tests.wasm.helpers import build_loop_nest

_APP = """
memory 1;
import fn wasi_snapshot_preview1.clock_time_get(a: i32, b: i64, c: i32) -> i32;
import fn wasi_snapshot_preview1.fd_write(a: i32, b: i32, c: i32, d: i32) -> i32;
data 100 (111, 107);  // "ok"

export fn add(a: i32, b: i32) -> i32 { return a + b; }

export fn now() -> i64 {
  clock_time_get(1, 1L, 64);
  return load_i64(64);
}

export fn say_ok() -> i32 {
  store_i32(0, 100);
  store_i32(4, 2);
  return fd_write(1, 0, 1, 16);
}
"""


@pytest.fixture
def watz(device):
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    binary = compile_source(_APP)
    loaded = device.load_wasm(session, binary)
    return device, session, loaded, binary


def test_load_reports_measurement(watz):
    device, session, loaded, binary = watz
    assert loaded["measurement"] == measure_bytes(binary).hex


def test_measurement_queryable_later(watz):
    device, session, loaded, binary = watz
    result = session.invoke(CMD_MEASUREMENT, {"app": loaded["app"]})
    assert result["measurement"] == measure_bytes(binary).hex


def test_invoke_exported_function(watz):
    device, session, loaded, _ = watz
    assert device.run_wasm(session, loaded["app"], "add", 20, 22) == 42


def test_wasi_clock_runs_on_simulated_time(watz):
    device, session, loaded, _ = watz
    first = device.run_wasm(session, loaded["app"], "now")
    second = device.run_wasm(session, loaded["app"], "now")
    assert second > first > 0


def test_wasm_clock_fetch_charges_figure_3a_cost(watz):
    device, session, loaded, _ = watz
    costs = device.soc.costs
    # Isolate the in-TA cost: measure around the TA-internal invocation.
    app = session.ta._apps[loaded["app"]]
    with device.soc.enter_secure_world():
        before = device.soc.clock.now_ns()
        app.instance.invoke("now")
        elapsed = device.soc.clock.now_ns() - before
    assert elapsed == costs.wasm_time_fetch_ns


def test_stdout_captured(watz):
    device, session, loaded, _ = watz
    assert device.run_wasm(session, loaded["app"], "say_ok") == 0
    assert device.read_stdout(session, loaded["app"]) == "ok"


def _observed_loads(device, session, binary, loads=1, **params):
    """Fig. 4's phases of ``loads`` cold loads of ``binary``, read from
    the spans of an observed run."""
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        for _ in range(loads):
            DEFAULT_CACHE.invalidate(CodeCache.module_key(binary))
            loaded = device.load_wasm(session, binary, **params)
    return loaded, TraceAnalyzer(tracer.spans()).startup_phases()


def test_startup_breakdown_phases_positive(device):
    # Each phase's minimum over five cold loads (every load decodes,
    # validates and compiles), so one pause in a millisecond-long phase
    # cannot decide which phase is largest.
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    _, loads = _observed_loads(device, session, compile_source(_APP), 5)
    assert len(loads) == 5
    phases = {phase: min(load[phase] for load in loads)
              for phase in loads[0]}
    assert phases["transition"] > 0
    assert phases["load"] > 0
    assert phases["hash"] > 0
    # Loading dominates (Fig. 4: ~73%).
    assert phases["load"] == max(phases.values())


def test_startup_transition_is_the_world_entry(device):
    """The transition phase is read from the world-entry steps that ran,
    and adds up to the cost model's normal-to-secure invocation."""
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    _, (phases,) = _observed_loads(device, session, compile_source(_APP))
    assert round(phases["transition"] * 1e9) \
        == device.soc.costs.world_enter_ns == 86_000


def test_load_accounts_relocation_overhead(device):
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    binary = compile_source(_APP)
    before = session.api.heap_used
    device.load_wasm(session, binary)
    used = session.api.heap_used - before
    # 2x for relocations plus the executable region itself.
    assert used >= len(binary) * RELOCATION_OVERHEAD_FACTOR + len(binary)


def test_load_fails_when_heap_cannot_hold_bytecode(testbed):
    device = testbed.create_device()
    session = device.open_watz(heap_size=256)  # smaller than the bytecode
    binary = compile_source(_APP)
    with pytest.raises(TeeOutOfMemory):
        device.load_wasm(session, binary)


def test_load_fails_when_heap_cannot_hold_wasm_memory(testbed):
    from repro.errors import TrapError

    device = testbed.create_device()
    # Enough for bytecode + relocations, not for the app's linear memory.
    session = device.open_watz(heap_size=2048)
    binary = compile_source(_APP)
    with pytest.raises(TrapError, match="heap cap"):
        device.load_wasm(session, binary)


def test_aot_needs_executable_pages_extension(testbed):
    """The paper's OP-TEE extension: without it, AOT loading fails."""
    device = testbed.create_device(allow_executable_pages=False)
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    binary = compile_source(_APP)
    with pytest.raises(TeeAccessDenied, match="executable"):
        device.load_wasm(session, binary)


def test_interpreter_engine_selectable(device):
    session = device.open_watz(heap_size=4 * 1024 * 1024,
                               engine="interpreter")
    binary = compile_source(_APP)
    loaded = device.load_wasm(session, binary)
    assert device.run_wasm(session, loaded["app"], "add", 1, 2) == 3


def test_multiple_apps_isolated(device):
    """Two hosted apps cannot see each other's memory (sandbox claim)."""
    session = device.open_watz(heap_size=8 * 1024 * 1024)
    source = """
memory 1;
var secret: i32 = 0;
export fn put(v: i32) { secret = v; store_i32(0, v); }
export fn get() -> i32 { return load_i32(0); }
"""
    binary = compile_source(source)
    first = device.load_wasm(session, binary)
    second = device.load_wasm(session, binary)
    device.run_wasm(session, first["app"], "put", 1234)
    assert device.run_wasm(session, first["app"], "get") == 1234
    assert device.run_wasm(session, second["app"], "get") == 0


def test_unload_returns_memory(device):
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    binary = compile_source(_APP)
    before = session.api.heap_used
    loaded = device.load_wasm(session, binary)
    session.invoke(CMD_UNLOAD, {"app": loaded["app"]})
    assert session.api.heap_used == before


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_unload_frees_the_app_without_gc(device, engine_name):
    """CMD_UNLOAD, and closing the session of an app never unloaded,
    free the app's linear memory and WASI-RA state at once, not at the
    next full garbage collection."""
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    binary = compile_source(_APP)

    def load():
        handle = device.load_wasm(session, binary)["app"]
        assert device.run_wasm(session, handle, "add", 2, 3) == 5
        app = session.ta._apps[handle]
        return (handle, weakref.ref(app.instance.memory),
                weakref.ref(app.wasi_ra))

    gc.disable()
    try:
        handle, memory, wasi_ra = load()
        session.invoke(CMD_UNLOAD, {"app": handle})
        assert memory() is None and wasi_ra() is None
        _, memory, wasi_ra = load()
        session.close()
        assert memory() is None and wasi_ra() is None
    finally:
        gc.enable()


def test_closed_instance_traps_typed(engine):
    instance = engine.instantiate(compile_source(
        "memory 1;\nexport fn f() -> i32 { return load_i32(0); }\n"
        "export fn k() -> i32 { return 7; }"))
    assert instance.invoke("f") == 0
    # Entry points taken before the close, as an embedder may hold them.
    held = [instance.exported_function(name) for name in ("f", "k")]
    instance.close()
    instance.close()
    assert instance.memory is None
    with pytest.raises(TrapError):
        instance.invoke("f")
    for entry in held:
        with pytest.raises(TrapError, match="closed"):
            entry()


def test_unknown_app_handle_rejected(watz):
    _, session, _, _ = watz
    with pytest.raises(TeeBadParameters):
        session.invoke(CMD_INVOKE, {"app": 999, "function": "add"})


def test_unknown_command_rejected(watz):
    _, session, _, _ = watz
    with pytest.raises(TeeBadParameters):
        session.invoke(77, {})


#: Normal-world parameters the TA must refuse with a typed error: (case,
#: command, params from (app handle, binary, staged shared buffer), error).
_HOSTILE_PARAMS = [
    ("unknown export", CMD_INVOKE,
     lambda app, binary, buf: {"app": app, "function": "missing"}, LinkError),
    ("no function", CMD_INVOKE,
     lambda app, binary, buf: {"app": app}, TeeBadParameters),
    ("function not a name", CMD_INVOKE,
     lambda app, binary, buf: {"app": app, "function": 7}, TeeBadParameters),
    ("list as app", CMD_INVOKE,
     lambda app, binary, buf: {"app": [app], "function": "add"},
     TeeBadParameters),
    ("args not a list", CMD_INVOKE,
     lambda app, binary, buf: {"app": app, "function": "add", "args": 5},
     TeeBadParameters),
    ("string args", CMD_INVOKE,
     lambda app, binary, buf: {"app": app, "function": "add",
                               "args": ("20", "22")}, TeeBadParameters),
    ("list as params", CMD_INVOKE,
     lambda app, binary, buf: [app, "add"], TeeBadParameters),
    ("no bytecode", CMD_LOAD, lambda app, binary, buf: {}, TeeBadParameters),
    ("bytes as bytecode", CMD_LOAD,
     lambda app, binary, buf: {"bytecode": binary}, TeeBadParameters),
    ("size past the buffer", CMD_LOAD,
     lambda app, binary, buf: {"bytecode": buf, "size": buf.size + 1},
     TeeBadParameters),
    ("list as unload handle", CMD_UNLOAD,
     lambda app, binary, buf: {"app": [app]}, TeeBadParameters),
]


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_malformed_params_fail_typed(device, engine_name):
    """Nothing the normal world passes escapes the TA untyped, and the
    TA neither charges secure memory for nor dies on a refused command."""
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    binary = compile_source(_APP)
    app = device.load_wasm(session, binary)["app"]
    buf = device.client.allocate_shared_memory(len(binary))
    buf.write(0, binary)
    heap_used = session.api.heap_used
    escaped = []
    for case, command, make_params, expected in _HOSTILE_PARAMS:
        try:
            session.invoke(command, make_params(app, binary, buf))
        except expected:
            continue
        except Exception as exc:  # noqa: BLE001 - the escape under test
            escaped.append((case, type(exc).__name__))
        else:
            escaped.append((case, "accepted"))
    buf.free()
    assert escaped == []
    assert session.api.heap_used == heap_used
    assert device.run_wasm(session, app, "add", 20, 22) == 42


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_failed_load_releases_what_it_charged(device, engine_name):
    """A CMD_LOAD that fails after allocating — a corrupted module, an
    unknown entry point — frees the secure heap and the executable region
    and registers no application."""
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    binary = compile_source(_APP)
    heap_used = session.api.heap_used
    corrupted = binary[:-3] + b"\xff\xff\xff"
    for _ in range(3):
        with pytest.raises(DecodeError):
            device.load_wasm(session, corrupted)
    with pytest.raises(LinkError):
        device.load_wasm(session, binary, entry="nosuch")
    assert session.api.heap_used == heap_used
    assert session.ta._apps == {}
    # The session still loads and runs the intact module.
    app = device.load_wasm(session, binary)["app"]
    assert device.run_wasm(session, app, "add", 20, 22) == 42


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_f32_argument_past_the_range_rounds_to_infinity(device, engine_name):
    """An f32 argument beyond the f32 range enters as infinity instead of
    escaping the TA as a builtin OverflowError."""
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    binary = compile_source("export fn f(x: f32) -> f32 { return x; }")
    app = device.load_wasm(session, binary)["app"]
    assert device.run_wasm(session, app, "f", 1e300) == math.inf
    assert device.run_wasm(session, app, "f", -1e300) == -math.inf


#: Host arguments with no value of the parameter's type.
_UNCONVERTIBLE_ARGS = [("i", math.nan), ("i", math.inf), ("i", -math.inf),
                       ("l", math.nan), ("l", math.inf), ("l", -math.inf),
                       ("f", 10 ** 400), ("d", 10 ** 400), ("d", -10 ** 400),
                       ("d", 10 ** 5000)]


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_unconvertible_arguments_trap(device, engine_name):
    """NaN or ±inf for an integer parameter, and an integer past the
    float range for a float one, are refused as traps, through CMD_INVOKE
    and through CMD_LOAD's entry point, leaving nothing charged."""
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    binary = compile_source(
        "export fn i(x: i32) -> i32 { return x; }\n"
        "export fn l(x: i64) -> i64 { return x; }\n"
        "export fn f(x: f32) -> f32 { return x; }\n"
        "export fn d(x: f64) -> f64 { return x; }")
    app = device.load_wasm(session, binary)["app"]
    heap_used = session.api.heap_used
    for function, arg in _UNCONVERTIBLE_ARGS:
        with pytest.raises(TrapError, match="argument"):
            device.run_wasm(session, app, function, arg)
        with pytest.raises(TrapError, match="argument"):
            device.load_wasm(session, binary, entry=function,
                             entry_args=(arg,))
    assert session.api.heap_used == heap_used
    assert list(session.ta._apps) == [app]
    assert device.run_wasm(session, app, "i", 7) == 7


def test_too_deep_nest_fails_load_typed(device):
    """A valid module past the AOT lowering's nesting limit is refused
    with a WasmError, leaving nothing charged."""
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    heap_used = session.api.heap_used
    with pytest.raises(WasmError, match="nests too deeply"):
        device.load_wasm(session, build_loop_nest(21))
    assert session.api.heap_used == heap_used
    assert session.ta._apps == {}


def test_entry_point_runs_at_load(device):
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    source = """
memory 1;
var started: i32 = 0;
export fn main() { started = 1; }
export fn check() -> i32 { return started; }
"""
    loaded, (phases,) = _observed_loads(device, session,
                                        compile_source(source), entry="main")
    assert phases["execute"] > 0
    assert device.run_wasm(session, loaded["app"], "check") == 1


def test_normal_world_runtime_matches_result(device):
    binary = compile_source(_APP)
    runtime = NormalWorldRuntime(device.soc)
    app = runtime.load(binary)
    assert runtime.invoke(app, "add", 20, 22) == 42
    assert app.measurement.digest == measure_bytes(binary).digest
    assert app.wasi_ra is None  # no attestation outside the TEE

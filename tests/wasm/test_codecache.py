"""The content-addressed code cache: sharing code, never state.

Covers the cache data structure (keying, LRU bound, stats, invalidation),
both engines' load integration (cache hits skip decode/compile, bypass
forces a recompile, a failed compile is not cached), the state-freshness
contract (instances built from cached artifacts share code objects but
never memories), and the runtime TA's ``CMD_LOAD`` (one hash per load,
identical SimClock charges cached vs uncached).
"""

import pytest

from repro.wasm import AotCompiler, Interpreter
from repro.wasm import opcodes as op
from repro.wasm.codecache import DEFAULT, CodeCache, resolve
from repro.wasm.decoder import decode_module
from repro.wasm.types import I32
from tests.wasm.helpers import build_single


def _counter_module() -> bytes:
    """mem[0] += 1; return mem[0] — observable per-instance state."""

    def emit(f):
        f.i32_const(0)
        f.i32_const(0)
        f.emit(op.I32_LOAD, 0)
        f.i32_const(1)
        f.emit(op.I32_ADD)
        f.emit(op.I32_STORE, 0)
        f.i32_const(0)
        f.emit(op.I32_LOAD, 0)

    return build_single([], [I32], emit, memory=(1, 1))


def _count_compiles(engine):
    """Wrap ``engine.compile_function``, returning the call log."""
    calls = []
    original = engine.compile_function

    def counting(module, func_index):
        calls.append(func_index)
        return original(module, func_index)

    engine.compile_function = counting
    return calls


# -- the cache data structure -------------------------------------------------


def test_module_key_is_content_hash():
    import hashlib

    binary = _counter_module()
    assert CodeCache.module_key(binary) == hashlib.sha256(binary).hexdigest()
    assert CodeCache.module_key(binary) == CodeCache.module_key(bytes(binary))
    assert CodeCache.module_key(b"x") != CodeCache.module_key(b"y")


def test_lookup_counts_hits_and_misses_but_peek_does_not():
    cache = CodeCache()
    binary = _counter_module()
    key = CodeCache.module_key(binary)
    assert cache.lookup(key, "aot") is None
    module = decode_module(binary)
    entry = cache.store(key, "aot", module)
    assert cache.lookup(key, "aot") is entry
    assert cache.peek(key, "aot") is entry
    assert cache.peek("missing", "aot") is None
    assert cache.stats() == {
        "entries": 1, "capacity": cache.capacity,
        "hits": 1, "misses": 1, "evictions": 0,
    }


def test_store_duplicate_keeps_entry_with_artifacts():
    cache = CodeCache()
    binary = _counter_module()
    key = CodeCache.module_key(binary)
    module = decode_module(binary)
    entry = cache.store(key, "aot", module, ("artifact",))
    again = cache.store(key, "aot", decode_module(binary), ("racer",))
    assert again is entry
    assert again.module is module and again.artifacts == ("artifact",)


def test_lru_eviction_keeps_cache_bounded():
    cache = CodeCache(capacity=3)
    module = decode_module(_counter_module())
    for i in range(5):
        cache.store(f"key{i}", "aot", module)
    assert len(cache) == 3
    assert cache.evictions == 2
    # Oldest entries went first.
    assert cache.peek("key0", "aot") is None
    assert cache.peek("key1", "aot") is None
    assert cache.peek("key4", "aot") is not None
    # A lookup refreshes recency: key2 survives the next insertion.
    cache.lookup("key2", "aot")
    cache.store("key5", "aot", module)
    assert cache.peek("key2", "aot") is not None
    assert cache.peek("key3", "aot") is None


def test_invalidate_and_clear():
    cache = CodeCache()
    module = decode_module(_counter_module())
    cache.store("k", "aot", module)
    cache.store("k", "interpreter", module)
    assert cache.invalidate("k", "aot") == 1
    assert cache.peek("k", "interpreter") is not None
    assert cache.invalidate("k") == 1
    assert len(cache) == 0
    cache.store("k", "aot", module)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        CodeCache(capacity=0)


def test_resolve_maps_knob_values():
    from repro.wasm.codecache import DEFAULT_CACHE

    cache = CodeCache()
    assert resolve(DEFAULT) is DEFAULT_CACHE
    assert resolve(None) is None
    assert resolve(cache) is cache
    for value in (True, False, "yes please"):
        with pytest.raises(TypeError):
            resolve(value)


# -- engine integration -------------------------------------------------------


def test_aot_warm_instantiate_skips_decode_and_compile():
    engine = AotCompiler()
    cache = CodeCache()
    binary = _counter_module()
    calls = _count_compiles(engine)

    first = engine.instantiate(binary, code_cache=cache)
    cold_compiles = len(calls)
    assert cold_compiles >= 1
    key = CodeCache.module_key(binary)
    entry = cache.peek(key, engine.name)
    assert entry is not None
    assert len(entry.artifacts) == cold_compiles

    second = engine.instantiate(binary, code_cache=cache)
    assert len(calls) == cold_compiles  # zero new compiles
    assert cache.stats()["hits"] == 1
    # Cached instantiation links against the same decoded module.
    assert second.module is first.module


def test_cached_instances_have_fresh_state():
    engine = AotCompiler()
    cache = CodeCache()
    binary = _counter_module()
    first = engine.instantiate(binary, code_cache=cache)
    second = engine.instantiate(binary, code_cache=cache)
    # Both instances run the shared code objects against their own memory.
    assert first.invoke("f") == 1
    assert first.invoke("f") == 2
    assert second.invoke("f") == 1
    assert first.invoke("f") == 3
    assert second.invoke("f") == 2


def test_bypass_forces_recompile():
    engine = AotCompiler()
    cache = CodeCache()
    binary = _counter_module()
    calls = _count_compiles(engine)
    engine.instantiate(binary, code_cache=cache)
    cold_compiles = len(calls)
    engine.instantiate(binary, code_cache=None)
    assert len(calls) == 2 * cold_compiles
    # The bypass never touched the cache.
    assert cache.stats()["hits"] == 0


def test_interpreter_caches_module_but_not_artifacts():
    engine = Interpreter()
    cache = CodeCache()
    binary = _counter_module()
    first = engine.instantiate(binary, code_cache=cache)
    entry = cache.peek(CodeCache.module_key(binary), engine.name)
    assert entry is not None
    # Nothing is compiled: the interpreter runs the decoded functions.
    assert entry.artifacts == tuple(entry.module.functions)
    second = engine.instantiate(binary, code_cache=cache)
    assert second.module is first.module
    assert first.invoke("f") == 1
    assert second.invoke("f") == 1


def test_entries_are_partitioned_by_engine():
    cache = CodeCache()
    binary = _counter_module()
    AotCompiler().instantiate(binary, code_cache=cache)
    Interpreter().instantiate(binary, code_cache=cache)
    key = CodeCache.module_key(binary)
    assert cache.peek(key, "aot") is not cache.peek(key, "interpreter")
    assert len(cache) == 2


def test_separate_aot_engines_share_artifacts():
    cache = CodeCache()
    binary = _counter_module()
    first = AotCompiler()
    first.instantiate(binary, code_cache=cache)
    second = AotCompiler()
    calls = _count_compiles(second)
    second.instantiate(binary, code_cache=cache)
    assert not calls, "same identity must reuse the cached artifact"


def test_failed_compile_is_not_cached():
    from repro.errors import WasmError
    from tests.wasm.helpers import build_loop_nest

    binary = build_loop_nest(21)  # past CPython's 20 nested loops
    cache = CodeCache()
    with pytest.raises(WasmError):
        AotCompiler().load(binary, cache)
    assert len(cache) == 0


# -- CMD_LOAD: warm and cold loads, SimClock invariance ------------------------


def _load_counter(device, session, **params):
    binary = _counter_module()
    return device.load_wasm(session, binary, **params)


def test_cmd_load_warm_hits_default_cache(device):
    from repro.wasm.codecache import DEFAULT_CACHE

    session = device.open_watz(heap_size=1 << 20)
    _load_counter(device, session)
    assert DEFAULT_CACHE.stats()["misses"] >= 1
    before_hits = DEFAULT_CACHE.stats()["hits"]
    loaded = _load_counter(device, session)
    assert DEFAULT_CACHE.stats()["hits"] == before_hits + 1
    # The warm instance still runs correctly with fresh state.
    assert device.run_wasm(session, loaded["app"], "f") == 1


def test_cmd_load_bypass_validates_once(device, monkeypatch):
    """The cold load that decodes the module validates it; instantiating
    the loaded module does not validate it again."""
    import repro.wasm.runtime as wasm_runtime
    from repro.wasm.codecache import DEFAULT_CACHE
    from repro.wasm.validation import validate_module

    validated = []

    def counting_validate(module):
        validated.append(module)
        validate_module(module)

    monkeypatch.setattr(wasm_runtime, "validate_module", counting_validate)
    session = device.open_watz(heap_size=1 << 20)
    DEFAULT_CACHE.invalidate(CodeCache.module_key(_counter_module()))
    misses = DEFAULT_CACHE.stats()["misses"]
    loaded = _load_counter(device, session)
    assert DEFAULT_CACHE.stats()["misses"] == misses + 1
    assert len(validated) == 1
    assert device.run_wasm(session, loaded["app"], "f") == 1


def test_cmd_load_simclock_charges_identical_cached_vs_uncached(testbed):
    """The cache saves wall-clock work, never simulated cost: every load
    pays the same SimClock charges (shared-memory copy) whether it hits
    or misses the cache."""
    from repro.wasm.codecache import DEFAULT_CACHE

    device = testbed.create_device()
    session = device.open_watz(heap_size=1 << 20)

    def charge():
        before = device.soc.clock.now_ns()
        _load_counter(device, session)
        return device.soc.clock.now_ns() - before

    cold = charge()
    warm = charge()
    DEFAULT_CACHE.invalidate(CodeCache.module_key(_counter_module()))
    missed = charge()
    assert cold == warm == missed


def test_cmd_load_hashes_once(device, monkeypatch):
    """The measurement is the binary's SHA-256, so ``CMD_LOAD`` keys the
    cache with it and never hashes the bytecode a second time."""
    from repro.wasm.codecache import DEFAULT_CACHE

    def second_hash(binary):
        raise AssertionError("CMD_LOAD hashed the bytecode twice")

    monkeypatch.setattr(CodeCache, "module_key", staticmethod(second_hash))
    session = device.open_watz(heap_size=1 << 20)
    loaded = _load_counter(device, session)
    assert DEFAULT_CACHE.peek(loaded["measurement"], "aot") is not None
    assert device.run_wasm(session, loaded["app"], "f") == 1

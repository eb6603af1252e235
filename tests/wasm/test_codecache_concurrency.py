"""The code cache under concurrency: shared code, never shared state.

The fleet gateway loads the same module binaries from many worker
threads at once. These tests pin the cache's concurrent contract:
racing cold loads of one binary converge to a single cache entry whose
artifacts are write-once, warm loads never recompile, the LRU bound
holds under parallel stores, and instances built from shared cached
code still never share memories.
"""

import threading

from repro.wasm import AotCompiler
from repro.wasm import opcodes as op
from repro.wasm.codecache import CodeCache
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


def _const_module(value: int) -> bytes:
    """return value — distinct content hash per value."""
    return build_single([], [I32], lambda f: f.i32_const(value))


def _run_threads(count, target):
    barrier = threading.Barrier(count)
    failures = []

    def wrapped(index):
        barrier.wait()  # maximise overlap: all threads enter together
        try:
            target(index)
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=wrapped, args=(index,))
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures


def test_parallel_cold_loads_of_same_binary_converge():
    engine = AotCompiler()
    cache = CodeCache()
    binary = _counter_module()
    instances = [None] * 8

    def load(index):
        instances[index] = engine.instantiate(binary, code_cache=cache)

    _run_threads(8, load)
    # However the compile race resolved, the cache holds exactly one
    # entry for this content hash, and its artifacts are populated.
    assert len(cache) == 1
    entry = cache.peek(CodeCache.module_key(binary), engine.name)
    assert entry is not None and entry.artifacts
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 8
    assert stats["misses"] >= 1
    # Shared code, fresh state: every instance has its own memory.
    assert all(instance.invoke("f") == 1 for instance in instances)
    assert all(instance.invoke("f") == 2 for instance in instances)


def test_warm_parallel_loads_never_recompile():
    engine = AotCompiler()
    cache = CodeCache()
    binary = _counter_module()
    engine.instantiate(binary, code_cache=cache)  # cold compile

    compiles = []
    original = engine.compile_function

    def counting(module, func_index):
        compiles.append(func_index)
        return original(module, func_index)

    engine.compile_function = counting
    _run_threads(8, lambda _:
                 engine.instantiate(binary, code_cache=cache))
    assert compiles == []  # single-compile semantics: warm loads reuse
    assert cache.stats()["hits"] == 8


def test_parallel_loads_of_distinct_binaries_all_cached():
    engine = AotCompiler()
    cache = CodeCache()
    binaries = [_const_module(value) for value in range(8)]
    results = [None] * 8

    def load(index):
        results[index] = engine.instantiate(binaries[index],
                                            code_cache=cache)

    _run_threads(8, load)
    assert len(cache) == 8
    assert cache.stats()["misses"] == 8
    assert cache.stats()["hits"] == 0
    assert [instance.invoke("f") for instance in results] == list(range(8))


def test_lru_bound_holds_under_parallel_stores():
    from repro.wasm.decoder import decode_module

    cache = CodeCache(capacity=4)
    module = decode_module(_counter_module())

    _run_threads(8, lambda index:
                 cache.store(f"key{index}", "aot", module))
    stats = cache.stats()
    assert stats["entries"] == 4  # never grows past capacity
    assert stats["evictions"] == 4  # 8 distinct stores - 4 kept
    survivors = [index for index in range(8)
                 if cache.peek(f"key{index}", "aot") is not None]
    assert len(survivors) == 4


def test_parallel_cmd_load_on_devices_shares_the_default_cache(testbed):
    """Four boards load the same binary through CMD_LOAD concurrently;
    the process-wide cache converges to one entry and every app still
    gets a private memory."""
    from repro.wasm.codecache import DEFAULT_CACHE

    binary = _counter_module()
    devices = [testbed.create_device() for _ in range(4)]
    sessions = [device.open_watz(heap_size=1 << 20) for device in devices]
    loaded = [None] * 4

    def load(index):
        loaded[index] = devices[index].load_wasm(sessions[index], binary)

    _run_threads(4, load)
    aot_entries = [key for key in DEFAULT_CACHE._entries
                   if key[1] == "aot"]
    assert len(aot_entries) == 1
    counts = [devices[index].run_wasm(sessions[index],
                                      loaded[index]["app"], "f")
              for index in range(4)]
    assert counts == [1, 1, 1, 1]  # no shared mutable state across TAs
    # And a warm reload on any board hits rather than recompiles.
    before = DEFAULT_CACHE.stats()["hits"]
    devices[0].load_wasm(sessions[0], binary)
    assert DEFAULT_CACHE.stats()["hits"] == before + 1

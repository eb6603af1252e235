"""The Speedtest1-like suite and the two builds of the storage core."""

import functools
import struct

import pytest

from repro.core.runtime import NormalWorldRuntime
from repro.errors import LinkError
from repro.testbed import Testbed
from repro.wasm import AotCompiler, Interpreter
from repro.wasm.decoder import decode_module
from repro.workloads.minidb.speedtest import (
    ALL_TESTS,
    READ_TESTS,
    WRITE_TESTS,
    checksum,
)
from repro.workloads.minidb.wasmcore import (
    EXPORTS,
    DbCore,
    compile_dbcore,
    regions,
)

_PAPER_READ = {130, 140, 145, 160, 161, 170, 260, 310, 320, 410, 510, 520}
_PAPER_WRITE = {100, 110, 120, 180, 190, 210, 290, 300, 400, 500}

_CAPACITY = 2048
_SCALE = 120
_NUMBERS = sorted(t.number for t in ALL_TESTS)


@pytest.fixture(scope="module")
def dbcore():
    return AotCompiler().instantiate(compile_dbcore(capacity=_CAPACITY))


@pytest.fixture(scope="module")
def wamr():
    """The Wasm build under AOT in the normal world."""
    return NormalWorldRuntime().load(compile_dbcore(capacity=_CAPACITY))


@pytest.fixture(scope="module")
def watz():
    """``invoke`` through a device's runtime TA, one CMD_INVOKE per call."""
    device = Testbed().create_device()
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    loaded = device.load_wasm(session, compile_dbcore(capacity=_CAPACITY))
    yield functools.partial(device.run_wasm, session, loaded["app"])
    session.close()


def _run(invoke, test):
    """Run one test's setup and run calls through ``invoke``; its checksum."""
    for fn, args in test.setup(_SCALE):
        invoke(fn, *args)
    return checksum(invoke, [invoke(fn, *args) for fn, args in test.run(_SCALE)])


def _builds(dbcore):
    """The Wasm build and a fresh native build."""
    return dbcore, DbCore(_CAPACITY)


def test_suite_covers_papers_test_numbers():
    numbers = {t.number for t in ALL_TESTS}
    assert _PAPER_READ <= numbers
    assert _PAPER_WRITE <= numbers


def test_read_write_classification_matches_paper():
    assert set(READ_TESTS) == _PAPER_READ
    assert set(WRITE_TESTS) == _PAPER_WRITE


@pytest.mark.parametrize("number", _NUMBERS)
def test_wasm_side_runs(number, dbcore):
    test = next(t for t in ALL_TESTS if t.number == number)
    for fn, args in test.setup(_SCALE):
        dbcore.invoke(fn, *args)
    for fn, args in test.run(_SCALE):
        dbcore.invoke(fn, *args)


@pytest.mark.parametrize("number", _NUMBERS)
def test_checksums_agree_on_three_sides(number, wamr, watz):
    """Native, WAMR and WaTZ read the same checksum after every test."""
    test = next(t for t in ALL_TESTS if t.number == number)
    native = _run(DbCore(_CAPACITY).invoke, test)
    assert _run(wamr.instance.invoke, test) == native
    assert _run(watz, test) == native


# -- the native build mirrors the Wasm build ---------------------------------


def test_mirror_serves_the_wasm_exports(dbcore):
    module = decode_module(compile_dbcore(capacity=_CAPACITY))
    assert EXPORTS == {e.name for e in module.exports if e.kind == "func"}
    with pytest.raises(LinkError):
        DbCore(_CAPACITY).invoke("idx_insert", 1, 2)
    with pytest.raises(LinkError):
        dbcore.invoke("idx_insert", 1, 2)


def test_mirror_keeps_the_wasm_memory_layout():
    """After every test's calls, each flat array holds the same slots."""
    wasm = AotCompiler().instantiate(compile_dbcore(capacity=_CAPACITY))
    mirror = DbCore(_CAPACITY)
    for test in ALL_TESTS:
        assert _run(wasm.invoke, test) == _run(mirror.invoke, test)
    memory = wasm.memory.data
    for name, (offset, count) in regions(_CAPACITY).items():
        slots = list(struct.unpack_from(f"<{count}i", memory, offset))
        assert slots == getattr(mirror, name), name


def test_mirror_reads_and_returns_i32_like_the_engine(dbcore):
    for build in _builds(dbcore):
        build.invoke("reset")
        build.invoke("set_indexed", 0)
        build.invoke("insert_many", 50, 100)
        # 0xFFFFFFFF is -1 as a signed i32, so every value is >= lo.
        assert build.invoke("update_scan", 0xFFFFFFFF, 1 << 30, 1) == 50
        assert build.invoke("insert_many", -55, 1) == 0
        assert build.invoke("row_count") == 0xFFFFFFFB  # -5
        assert build.invoke("reset") is None


# -- both builds against an independent reference ----------------------------


def _fresh(build, n, indexed):
    build.invoke("reset")
    build.invoke("set_indexed", 1 if indexed else 0)
    build.invoke("insert_many", n, n * 2)


def _reference_rows(n):
    """Mirror of insert_many's deterministic key stream."""
    def prng(seed):
        return ((seed * 1103515245 + 12345) >> 8) & 0x7FFFFF

    rows = []
    for i in range(n):
        key = prng(i) % (n * 2)
        rows.append((key, (key * 3 + 7) % 1000, prng(key)))
    return rows


def test_insert_count(dbcore):
    for build in _builds(dbcore):
        _fresh(build, 200, indexed=False)
        assert build.invoke("row_count") == 200
        assert build.invoke("count_alive") == 200


def test_scan_count_matches_reference(dbcore):
    rows = _reference_rows(200)
    expected = sum(1 for _k, v, _p in rows if 100 <= v <= 300)
    for build in _builds(dbcore):
        _fresh(build, 200, indexed=False)
        assert build.invoke("scan_count", 100, 300) == expected


def test_indexed_lookup_matches_scan(dbcore):
    rows = _reference_rows(300)
    for build in _builds(dbcore):
        _fresh(build, 300, indexed=True)
        for lo, hi in [(0, 50), (100, 200), (0, 10_000_000)]:
            expected = sum(1 for k, _v, _p in rows if lo <= k <= hi)
            assert build.invoke("lookup_count", lo, hi) == expected


def test_build_index_equals_incremental(dbcore):
    for build in _builds(dbcore):
        _fresh(build, 250, indexed=True)
        incremental = build.invoke("lookup_count", 0, 1 << 30)
        build.invoke("build_index")
        assert build.invoke("lookup_count", 0, 1 << 30) == incremental == 250


def test_delete_range_updates_counts(dbcore):
    rows = _reference_rows(200)
    victims = sum(1 for k, _v, _p in rows if 0 <= k <= 100)
    for build in _builds(dbcore):
        _fresh(build, 200, indexed=True)
        assert build.invoke("delete_range", 0, 100) == victims
        assert build.invoke("count_alive") == 200 - victims
        assert build.invoke("lookup_count", 0, 100) == 0


def test_update_indexed_moves_keys(dbcore):
    rows = _reference_rows(150)
    in_range = sum(1 for k, _v, _p in rows if 0 <= k <= 50)
    for build in _builds(dbcore):
        _fresh(build, 150, indexed=True)
        moved = build.invoke("update_indexed", 0, 50, 10_000)
        assert moved == in_range
        assert build.invoke("lookup_count", 0, 50) == 0
        assert build.invoke("lookup_count", 10_000, 10_050) == in_range


def test_update_scan_changes_values(dbcore):
    for build in _builds(dbcore):
        _fresh(build, 150, indexed=False)
        before = build.invoke("scan_count", 0, 499)
        moved = build.invoke("update_scan", 0, 499, 1000)
        assert moved == before
        assert build.invoke("scan_count", 0, 499) == 0


def _sorted_checksum(values):
    checksum = 0
    for value in sorted(values):
        checksum = (checksum * 31 + value) & 0xFFFFFF
    return checksum


def test_order_by_checksum_stable(dbcore):
    """ORDER BY reads the checksum of the sorted live values, every time."""
    rows = _reference_rows(180)
    everything = _sorted_checksum(v for _k, v, _p in rows)
    survivors = _sorted_checksum(v for k, v, _p in rows if k > 100)
    for build in _builds(dbcore):
        _fresh(build, 180, indexed=False)
        assert build.invoke("order_by_checksum") == everything
        assert build.invoke("order_by_checksum") == everything
        build.invoke("delete_range", 0, 100)
        assert build.invoke("order_by_checksum") == survivors


def test_group_sum_partitions_everything(dbcore):
    rows = _reference_rows(120)
    buckets = [0] * 16
    for _k, v, _p in rows:
        buckets[v % 16] += v
    expected = 0
    for value in buckets:
        expected = (expected * 31 + value) & 0xFFFFFF
    for build in _builds(dbcore):
        _fresh(build, 120, indexed=False)
        assert build.invoke("group_sum", 16) == expected


def test_join_sum_matches_reference(dbcore):
    rows = _reference_rows(100)
    t2 = {i * 2: (i * 11 + 5) % 997 for i in range(100)}
    expected = 0
    for k, _v, _p in rows:
        if k in t2:
            expected = (expected + t2[k]) % 1000000
    for build in _builds(dbcore):
        _fresh(build, 100, indexed=False)
        build.invoke("fill_join_table", 100)
        assert build.invoke("join_sum") == expected


def test_min_max_through_index(dbcore):
    rows = _reference_rows(150)
    keys = [k for k, _v, _p in rows]
    expected = (min(keys) + max(keys)) % 1000000
    for build in _builds(dbcore):
        _fresh(build, 150, indexed=True)
        assert build.invoke("min_max_sum", 1) == expected


_MIN_MAX_BUILDS = {
    "interpreter": lambda: Interpreter().instantiate(
        compile_dbcore(capacity=_CAPACITY)),
    "aot": lambda: AotCompiler().instantiate(
        compile_dbcore(capacity=_CAPACITY)),
    "mirror": lambda: DbCore(_CAPACITY),
}


@pytest.mark.parametrize("build", sorted(_MIN_MAX_BUILDS))
@pytest.mark.parametrize("lo, hi", [(300, 1 << 30), (0, 299)],
                         ids=["tail-emptied", "head-emptied"])
def test_min_max_skips_emptied_blocks(build, lo, hi):
    """Deletes that empty the index's last or first blocks leave MIN/MAX
    reading the live keys, not an empty block's stale slots."""
    live = [k for k, _v, _p in _reference_rows(300) if not lo <= k <= hi]
    core = _MIN_MAX_BUILDS[build]()
    _fresh(core, 300, indexed=True)
    core.invoke("delete_range", lo, hi)
    assert core.invoke("lookup_count", 0, 1 << 30) == len(live)
    assert core.invoke("min_max_sum", 1) == min(live) + max(live)
    assert core.invoke("min_max_sum", 3) == 3 * (min(live) + max(live))


def test_scan_like_residue_filter(dbcore):
    rows = _reference_rows(130)
    expected = sum(1 for _k, _v, p in rows if p % 10 == 3)
    for build in _builds(dbcore):
        _fresh(build, 130, indexed=False)
        assert build.invoke("scan_like", 10, 3) == expected

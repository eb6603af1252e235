"""The Speedtest1-like benchmark suite (paper Fig. 6).

Each numbered test is one pair of call lists against the database core's
exported functions: ``setup`` (untimed preparation) and ``run`` (the timed
body). The same lists drive all three sides of Fig. 6: the native build
(:class:`~repro.workloads.minidb.wasmcore.DbCore`) and the Wasm build
(:func:`~repro.workloads.minidb.wasmcore.compile_dbcore`) under WAMR and
under WaTZ. :func:`checksum` reads what one side computed, and every side
must read the same on every test.

Test numbers follow the paper's Fig. 6 row labels; the paper classifies
130-145, 160-170, 260, 310, 320, 410, 510, 520 as read-mostly and
100-120, 180, 190, 210, 290, 300, 400, 500 as write-heavy, and this suite
keeps that split. The ``--size 60%`` scaling of the paper is applied by
the harness through the ``scale`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

Calls = List[Tuple[str, tuple]]

#: ``invoke(name, *args)``: ``Instance.invoke``, ``DbCore.invoke`` or a
#: runtime TA's ``CMD_INVOKE``.
Invoke = Callable[..., object]

#: Read after a test's run calls: the live rows, the ORDER BY checksum of
#: the live values and the live rows the index reaches.
CHECK_CALLS: Calls = [("count_alive", ()), ("order_by_checksum", ()),
                      ("lookup_count", (0, 1 << 30))]


@dataclass(frozen=True)
class SpeedTest:
    number: int
    name: str
    kind: str  # "read" | "write"
    #: Untimed preparation calls.
    setup: Callable[[int], Calls]
    #: The timed calls.
    run: Callable[[int], Calls]


def checksum(invoke: Invoke, results: Sequence) -> tuple:
    """A test's checksum: its run calls' results, then :data:`CHECK_CALLS`."""
    return tuple(results) + tuple(invoke(fn, *args) for fn, args in CHECK_CALLS)


def _table(indexed: bool) -> Calls:
    return [("reset", ()), ("set_indexed", (1 if indexed else 0,))]


def _populated(n: int, indexed: bool = False) -> Calls:
    return _table(indexed) + [("insert_many", (n, n * 2))]


def _delete_ranges(n: int) -> Calls:
    return [("delete_range", (i * (n // 5), i * (n // 5) + n // 10))
            for i in range(10)]


ALL_TESTS: List[SpeedTest] = [
    SpeedTest(100, "INSERTs into unindexed table", "write",
              setup=lambda n: _table(indexed=False),
              run=lambda n: [("insert_many", (n, n * 2))]),
    SpeedTest(110, "INSERTs inside a transaction", "write",
              setup=lambda n: _table(indexed=False),
              run=lambda n: [("insert_many", (n, n * 2))]),
    SpeedTest(120, "INSERTs into indexed table", "write",
              setup=lambda n: _table(indexed=True),
              run=lambda n: [("insert_many", (n, n * 2))]),
    SpeedTest(130, "range SELECTs without index", "read",
              setup=_populated,
              run=lambda n: [("scan_count", ((i * 29) % 900,
                                             (i * 29) % 900 + 50))
                             for i in range(max(4, n // 100))]),
    SpeedTest(140, "text-compare SELECTs", "read",
              setup=_populated,
              run=lambda n: [("scan_like", (10, i % 10))
                             for i in range(max(4, n // 100))]),
    SpeedTest(145, "SELECTs with OR terms", "read",
              setup=_populated,
              run=lambda n: [("scan_or", (i % 1000, (i * 7) % 1000, 50))
                             for i in range(max(4, n // 200))]),
    SpeedTest(160, "point SELECTs via index", "read",
              setup=lambda n: _populated(n, indexed=True),
              run=lambda n: [("select_eq_sum", (max(10, n), n * 2))]),
    SpeedTest(161, "point SELECTs via unique index", "read",
              setup=lambda n: _populated(n, indexed=True),
              run=lambda n: [("select_eq_sum", (max(10, n), n * 2))]),
    SpeedTest(170, "range SELECTs via index", "read",
              setup=lambda n: _populated(n, indexed=True),
              run=lambda n: [("lookup_count", ((i * 37) % (n * 2),
                                               (i * 37) % (n * 2) + 100))
                             for i in range(max(10, n // 10))]),
    SpeedTest(180, "CREATE INDEX", "write",
              setup=_populated,
              run=lambda n: [("build_index", ())]),
    SpeedTest(190, "range DELETEs without index", "write",
              setup=_populated,
              run=_delete_ranges),
    SpeedTest(210, "range DELETEs with index", "write",
              setup=lambda n: _populated(n, indexed=True),
              run=_delete_ranges),
    SpeedTest(260, "ORDER BY full table", "read",
              setup=_populated,
              run=lambda n: [("order_by_checksum", ())]),
    SpeedTest(290, "range UPDATEs without index", "write",
              setup=_populated,
              run=lambda n: [("update_scan", ((i * 97) % 900,
                                              (i * 97) % 900 + 50, 1))
                             for i in range(10)]),
    SpeedTest(300, "key UPDATEs with index", "write",
              setup=lambda n: _populated(n, indexed=True),
              run=lambda n: [("update_indexed", ((i * 211) % (n * 2),
                                                 (i * 211) % (n * 2) + n // 20,
                                                 n * 4))
                             for i in range(10)]),
    SpeedTest(310, "GROUP BY aggregate", "read",
              setup=_populated,
              run=lambda n: [("group_sum", (32,))]),
    SpeedTest(320, "indexed JOIN", "read",
              setup=lambda n: _populated(n) + [("fill_join_table", (n,))],
              run=lambda n: [("join_sum", ())]),
    SpeedTest(400, "full-table UPDATE", "write",
              setup=_populated,
              run=lambda n: [("update_scan", (-1, 1 << 30, 1))]),
    SpeedTest(410, "SELECTs with IN list", "read",
              setup=_populated,
              run=lambda n: [("scan_or", (i % 1000, (i * 3) % 1000, 0))
                             for i in range(max(4, n // 200))]),
    SpeedTest(500, "DROP TABLE and repopulate", "write",
              setup=_populated,
              run=lambda n: _table(indexed=False)
              + [("insert_many", (n // 2, n))]),
    SpeedTest(510, "COUNT(*) full scans", "read",
              setup=_populated,
              run=lambda n: [("count_alive", ())] * 10),
    SpeedTest(520, "MIN/MAX via index", "read",
              setup=lambda n: _populated(n, indexed=True),
              run=lambda n: [("min_max_sum", (max(10, n // 5),))]),
]

READ_TESTS = tuple(t.number for t in ALL_TESTS if t.kind == "read")
WRITE_TESTS = tuple(t.number for t in ALL_TESTS if t.kind == "write")

#!/usr/bin/env python3
"""The SQLite scenario (§VI-D): a database engine inside the TEE.

Runs the storage core of Fig. 6 in its two builds on a handful of
Speedtest1 tests: the pure-Python build in the normal world (the native
baseline), and the walc build compiled to Wasm both outside (WAMR) and
inside WaTZ. Both builds run one algorithm, so every test's checksum must
match on all three sides — a taste of the Fig. 6 comparison.
"""

import time

from repro.core.runtime import NormalWorldRuntime
from repro.testbed import Testbed
from repro.workloads.minidb.speedtest import ALL_TESTS, checksum
from repro.workloads.minidb.wasmcore import DbCore, compile_dbcore

SCALE = 400
SHOWN = (100, 120, 130, 160, 260, 320)


def run(test, invoke):
    """Time one test's run calls; return the seconds and its checksum."""
    for fn, args in test.setup(SCALE):
        invoke(fn, *args)
    started = time.perf_counter()
    results = [invoke(fn, *args) for fn, args in test.run(SCALE)]
    elapsed = time.perf_counter() - started
    return elapsed, checksum(invoke, results)


def main() -> None:
    testbed = Testbed()
    device = testbed.create_device()

    binary = compile_dbcore()
    print(f"database core: {len(binary)} bytes of Wasm")

    native = DbCore()
    wamr = NormalWorldRuntime().load(binary)
    session = device.open_watz(heap_size=25 * 1024 * 1024)
    loaded = device.load_wasm(session, binary)
    watz = session.ta._apps[loaded["app"]]
    print(f"measured in the TEE as {loaded['measurement'][:32]}…\n")

    header = (f"{'test':>4}  {'name':32}  {'native':>9}  {'WAMR':>9}  "
              f"{'WaTZ':>9}  checksum")
    print(header)
    print("-" * len(header))
    for test in ALL_TESTS:
        if test.number not in SHOWN:
            continue
        native_s, expected = run(test, native.invoke)
        wamr_s, wamr_sum = run(test, wamr.instance.invoke)
        watz_s, watz_sum = run(test, watz.instance.invoke)
        if not wamr_sum == watz_sum == expected:
            raise SystemExit(f"test {test.number}: checksums differ")
        print(f"{test.number:>4}  {test.name:32}  "
              f"{native_s * 1000:7.1f}ms  {wamr_s * 1000:7.1f}ms  "
              f"{watz_s * 1000:7.1f}ms  same")

    print("\nWaTZ tracks WAMR: the TEE adds transition latency at the "
          "boundary, not compute cost inside.")
    session.close()


if __name__ == "__main__":
    main()

"""Fig. 8: Genann training time versus dataset size.

The end-to-end machine-learning scenario of paper §VI-F: in the WAMR
baseline the (replicated Iris) dataset is read from a regular file
through the WASI file system; in WaTZ the same application first
retrieves the dataset over the remote-attestation channel, then trains. Fig. 8 reports the *training* time only, and the
paper finds WaTZ within ~1.4% of WAMR.
"""

from __future__ import annotations

import time

from repro.bench import format_duration, format_table, save_json, save_report
from repro.core import VerifierPolicy, measure_bytes, start_verifier
from repro.core.runtime import NormalWorldRuntime
from repro.workloads.datasets import RECORD_SIZE, dataset_of_size
from repro.workloads.genann.wasm_impl import (
    SECRET_ADDR,
    build_attested_ann,
    build_standalone_ann,
)

HOST, PORT_BASE = "fig8.verifier", 7800

SIZES = [100 * 1024, 400 * 1024, 700 * 1024, 1024 * 1024]

_EPOCHS = 1
_RATE = 0.5
_RUNS = 3  # the optimised AOT tier trains fast enough to need medians
#: Why both shape gates are asserted on any host.
_GATE_REASON = ("WAMR and WaTZ train on the same engine in one process, "
                "timed alternately (WAMR, WaTZ, WaTZ, WAMR, ...), so the "
                "ratios depend neither on the host's CPU count nor on its "
                "speed drifting between the two sides")


def _train_seconds(instance, records):
    started = time.perf_counter()
    instance.invoke("ann_train", records, _EPOCHS, _RATE)
    return time.perf_counter() - started


def _setup_wamr(size):
    blob = dataset_of_size(size)
    runtime = NormalWorldRuntime()
    from repro.wasi import WasiFilesystem
    from repro.workloads.genann.wasm_impl import DATASET_FILENAME

    filesystem = WasiFilesystem()
    filesystem.write_file(DATASET_FILENAME, blob)
    app = runtime.load(build_standalone_ann(len(blob) + 4096),
                       filesystem=filesystem)
    loaded = app.instance.invoke("ann_load_file")  # the "regular file" read
    assert loaded == len(blob), loaded
    app.instance.invoke("ann_init", 1)
    return app.instance, len(blob) // RECORD_SIZE


def _setup_watz(testbed, device, identity, size, port):
    blob = dataset_of_size(size)
    binary = build_attested_ann(identity.public_bytes(), HOST, port,
                                data_capacity=len(blob) + 4096)
    policy = VerifierPolicy()
    policy.endorse(device.attestation_public_key)
    policy.trust_measurement(measure_bytes(binary).digest)
    start_verifier(testbed.network, HOST, port, device.client,
                   testbed.vendor_key, identity, policy, lambda: blob)
    session = device.open_watz(heap_size=17 * 1024 * 1024)
    loaded = device.load_wasm(session, binary)
    handle = loaded["app"]
    received = device.run_wasm(session, handle, "attest")
    assert received == len(blob)
    device.run_wasm(session, handle, "ann_init", 1)
    return session, session.ta._apps[handle].instance, len(blob) // RECORD_SIZE


def _alternating_medians(device, wamr, watz, records):
    """Median ``ann_train`` seconds of each side, timed WAMR, WaTZ, WaTZ,
    WAMR, ... (``_RUNS`` each) so host speed swings hit both alike; WaTZ
    trains inside the secure world."""
    samples = {"wamr": [], "watz": []}
    for run in range(2 * _RUNS):
        if run % 4 in (0, 3):
            samples["wamr"].append(_train_seconds(wamr, records))
        else:
            with device.soc.enter_secure_world():
                samples["watz"].append(_train_seconds(watz, records))
    return tuple(sorted(samples[side])[_RUNS // 2]
                 for side in ("wamr", "watz"))


def _sweep(testbed, device, identity):
    results = []
    for index, size in enumerate(SIZES):
        port = PORT_BASE + index
        wamr, records = _setup_wamr(size)
        session, watz, records_watz = _setup_watz(testbed, device, identity,
                                                  size, port)
        assert records == records_watz
        wamr_s, watz_s = _alternating_medians(device, wamr, watz, records)
        session.close()
        testbed.network.shutdown(HOST, port)
        results.append((size, records, wamr_s, watz_s))
    return results


def test_fig8_genann_training(benchmark, testbed, device, verifier_identity):
    results = benchmark.pedantic(
        lambda: _sweep(testbed, device, verifier_identity),
        rounds=1, iterations=1)
    rows = []
    deltas = []
    sizes_json = {}
    for size, records, wamr_s, watz_s in results:
        delta = (watz_s - wamr_s) / wamr_s
        deltas.append(abs(delta))
        sizes_json[f"{size // 1024}kB"] = {
            "records": records,
            "wamr_s": wamr_s,
            "watz_s": watz_s,
            "delta": delta,
        }
        rows.append((f"{size // 1024} kB", records,
                     format_duration(wamr_s), format_duration(watz_s),
                     f"{delta * +100:+.1f}%"))
    growth = [results[-1][2] / results[0][2], results[-1][3] / results[0][3]]
    median_delta = sorted(deltas)[len(deltas) // 2]
    gates = {
        "training_grows_with_dataset": {
            "metric": "largest / smallest dataset training time "
                      "(WAMR, WaTZ)",
            "threshold": 3.0,
            "values": growth,
            "asserted": True,
            "reason": _GATE_REASON,
        },
        "watz_tracks_wamr": {
            "metric": "median |WaTZ - WAMR| / WAMR training time",
            "threshold": 0.10,
            "value": median_delta,
            "asserted": True,
            "reason": _GATE_REASON,
        },
    }
    save_json("BENCH_genann", {
        "epochs": _EPOCHS,
        "rate": _RATE,
        "runs": _RUNS,
        "sizes": sizes_json,
        "gates": gates,
    })
    save_report("fig8_genann", format_table(
        "Fig. 8 — Genann training time (1 epoch, 4-4-3) — paper finds "
        "WaTZ within ~1.4% of WAMR",
        ["dataset", "records", "WAMR (file)", "WaTZ (RA channel)", "delta"],
        rows,
    ))

    # Shape 1: training time grows with the dataset.
    assert all(value > 3.0 for value in growth), gates
    # Shape 2: WaTZ training matches WAMR (same engine, no TEE penalty).
    assert median_delta < 0.10, gates


# -- CI perf smoke: the Genann job on both engines ----------------------------

_SMOKE_RECORDS = 400
#: Floor of the AOT speed-up over the interpreter on the whole job: the
#: paper's "order of magnitude" (A1), far below what either side varies.
_SMOKE_FLOOR = 10.0
_SMOKE_EXACT = "an exact comparison, independent of the host"
_SMOKE_REASON = ("both engines run the job in this one process on the "
                 "same core, so the ratio does not depend on the host's "
                 "CPU count")


def test_genann_aot_smoke():
    """CI gate: the Fig. 8 job on the standalone build — ``ann_init``, one
    training epoch and ``ann_accuracy`` over 400 records, then the weight
    checksum — on the interpreter and the AOT engine in one process.

    Both engines must reproduce the pure-Python Genann's accuracy and
    weight checksum bit for bit and leave identical final memory, and
    the AOT engine must run the job at least 10x faster than the
    interpreter. Writes ``BENCH_genann_smoke.json``."""
    from repro.wasi import WasiEnvironment, build_wasi_imports
    from repro.wasm import AotCompiler, Interpreter
    from repro.workloads.datasets import decode_records
    from repro.workloads.genann.python_impl import accuracy, train_classifier

    blob = dataset_of_size(_SMOKE_RECORDS * RECORD_SIZE)
    records = decode_records(blob)
    assert len(records) == _SMOKE_RECORDS
    binary = build_standalone_ann(len(blob) + 4096)
    reference = train_classifier(records, epochs=_EPOCHS, rate=_RATE)
    expected_correct = round(accuracy(reference, records) * len(records))
    expected_checksum = sum(reference.weights)

    engines, memories = {}, {}
    for engine in (Interpreter(), AotCompiler()):
        instance = engine.instantiate(binary,
                                      build_wasi_imports(WasiEnvironment()))
        instance.memory.write(SECRET_ADDR, blob)
        started = time.perf_counter()
        instance.invoke("ann_init", 1)
        trained = instance.invoke("ann_train", len(records), _EPOCHS, _RATE)
        correct = instance.invoke("ann_accuracy", len(records))
        checksum = instance.invoke("ann_weight_checksum")
        seconds = time.perf_counter() - started
        assert trained == len(records) * _EPOCHS, (engine.name, trained)
        engines[engine.name] = {"seconds": seconds, "correct": correct,
                                "checksum": checksum}
        memories[engine.name] = bytes(instance.memory.data)

    speedup = engines["interpreter"]["seconds"] / engines["aot"]["seconds"]
    checksums_match = all(
        run["checksum"] == expected_checksum
        and run["correct"] == expected_correct for run in engines.values())
    memory_identical = memories["interpreter"] == memories["aot"]
    gates = {
        "checksum_matches_python": {
            "metric": "accuracy and weight checksum, each engine vs the "
                      "pure-Python Genann (exact)",
            "value": checksums_match,
            "asserted": True,
            "reason": _SMOKE_EXACT,
        },
        "final_memory_identical": {
            "metric": "final linear memory, interpreter vs AOT (bytes)",
            "value": memory_identical,
            "asserted": True,
            "reason": _SMOKE_EXACT,
        },
        "aot_speedup": {
            "metric": "interpreter / AOT job seconds",
            "threshold": _SMOKE_FLOOR,
            "value": speedup,
            "asserted": True,
            "reason": _SMOKE_REASON,
        },
    }
    save_json("BENCH_genann_smoke", {
        "records": len(records),
        "epochs": _EPOCHS,
        "rate": _RATE,
        "python": {"correct": expected_correct,
                   "checksum": expected_checksum},
        "engines": engines,
        "gates": gates,
    })
    assert checksums_match, (engines, expected_correct, expected_checksum)
    assert memory_identical
    assert speedup >= _SMOKE_FLOOR, engines

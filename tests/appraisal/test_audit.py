"""The hash-chained audit log: append-only, tamper-evident, bounded."""

import dataclasses
import threading

from repro.appraisal.audit import AuditLog, verify_chain
from repro.appraisal.envelope import TEE_SGX, TEE_TRUSTZONE
from repro.appraisal.policy import Reason

FP = b"\xAB" * 32


def _filled(count, capacity=4096):
    log = AuditLog(capacity=capacity)
    for i in range(count):
        log.record(TEE_SGX if i % 2 else TEE_TRUSTZONE, i % 3 != 0,
                   Reason.OK if i % 3 != 0 else Reason.MEASUREMENT_UNKNOWN,
                   FP, detail=f"event {i}")
    return log


def test_entries_chain_from_genesis():
    log = _filled(8)
    entries = log.entries()
    assert [e.sequence for e in entries] == list(range(8))
    assert verify_chain(entries)
    assert log.head == entries[-1].digest
    assert len(log) == 8


def test_chain_starts_anywhere_given_the_predecessor():
    log = _filled(8)
    entries = log.entries()
    assert verify_chain(entries[3:], previous=entries[2].digest)
    # Wrong predecessor: the run no longer verifies.
    assert not verify_chain(entries[3:], previous=entries[1].digest)


def test_tampering_any_field_breaks_the_chain():
    log = _filled(5)
    entries = log.entries()
    # Entry 3 is a denial (i % 3 == 0): every change below really
    # differs from the recorded value.
    for index, changes in [
        (3, {"accepted": True}),
        (3, {"reason": Reason.OK}),
        (3, {"detail": "scrubbed"}),
        (3, {"fingerprint": b"\xCD" * 32}),
        (4, {"sequence": 9}),
    ]:
        tampered = list(entries)
        tampered[index] = dataclasses.replace(tampered[index], **changes)
        assert not verify_chain(tampered)


def test_dropping_a_middle_entry_breaks_the_chain():
    entries = _filled(6).entries()
    assert not verify_chain(entries[:2] + entries[3:])


def test_reordering_breaks_the_chain():
    entries = _filled(4).entries()
    swapped = [entries[0], entries[2], entries[1], entries[3]]
    assert not verify_chain(swapped)


def test_bounded_ring_keeps_the_global_head():
    log = _filled(10, capacity=4)
    window = log.entries()
    assert len(window) == 4
    assert [e.sequence for e in window] == [6, 7, 8, 9]
    assert len(log) == 10  # total history, not the window
    # The retained window still verifies against its predecessor — which
    # fell off the ring, so only the head pins the full history.
    assert verify_chain(window, previous=window[0].digest) is False
    assert log.head == window[-1].digest


def test_denials_and_counts():
    log = _filled(9)
    assert all(not e.accepted for e in log.denials())
    counts = log.counts_by_reason()
    assert counts[Reason.MEASUREMENT_UNKNOWN] == len(log.denials()) == 3
    assert counts[Reason.OK] == 6
    assert log.tail(2) == log.entries()[-2:]


def test_export_is_plain_dicts():
    log = _filled(2)
    export = log.export()
    assert export[0]["tee"] == "trustzone"
    assert export[1]["tee"] == "sgx"
    assert export[0]["fingerprint"] == FP.hex()
    assert all(isinstance(row["digest"], str) for row in export)


def test_concurrent_appends_keep_one_consistent_chain():
    log = AuditLog()
    barrier = threading.Barrier(4)

    def append():
        barrier.wait()
        for _ in range(50):
            log.record(TEE_SGX, True, Reason.OK, FP)

    threads = [threading.Thread(target=append) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    entries = log.entries()
    assert len(entries) == 200
    assert [e.sequence for e in entries] == list(range(200))
    assert verify_chain(entries)


def test_counts_cover_the_whole_history_not_the_ring():
    log = _filled(10, capacity=4)
    counts = log.counts_by_reason()
    assert sum(counts.values()) == len(log) == 10
    assert counts[Reason.MEASUREMENT_UNKNOWN] == 4  # events 0, 3, 6, 9

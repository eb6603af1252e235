"""Fig. 7: execution time of msg3 versus secret-blob size.

The paper transfers 0.5-3 MB of confidential data under AES-GCM and
observes linear scaling with matching encryption (verifier) and
decryption (attester) costs. Two measurements here:

* the protocol-level sweep (``test_fig7_msg3_scaling``) through
  ``handle_msg2``/``handle_msg3`` — what Fig. 7 actually plots;
* the raw AES-GCM seal/open throughput of both execution paths
  (vectorised streaming pipeline vs scalar reference), exported as
  ``BENCH_msg3.json`` with per-size MB/s so the speedup trajectory is
  diffable across PRs — once with a warm key, and once with a fresh key
  at each end, as every session's verifier and attester pay it. The CI
  smoke test measures two sizes only and writes its own
  ``BENCH_msg3_smoke.json``, so it never overwrites the sweep.

Two gates, armed on every host and re-measured once against noise before
they may fail: with a warm key the fast path holds >= 5x over the
reference on a 512 kB seal+open, and with a fresh key per end it is no
slower than the reference at 4 KiB (the fleet secret) and 256 KiB (an
attested-ml dataset). Both paths run in one process on one core, so
neither ratio depends on the host's CPU count.
"""

from __future__ import annotations

import os
import time

from repro.bench import format_duration, format_table, save_json, save_report
from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa, gcm
from repro.crypto.gcm import STRIPE_WIDTH, AesGcm, _STRIPE_BUILD_MIN_BLOCKS

_DEVICE = ecdsa.keypair_from_private(555111)
_IDENTITY = ecdsa.keypair_from_private(555222)
_CLAIM = measure_bytes(b"fig7 app").digest

SIZES = [512 * 1024, 1024 * 1024, 2 * 1024 * 1024, 3 * 1024 * 1024]
_SMOKE_SIZES = [512 * 1024, 1024 * 1024]
_GATE_SIZE = 512 * 1024
_GATE_SPEEDUP = 5.0
#: Fresh-key sizes: the fleet-attest secret, then attested-ml's range.
_FRESH_SIZES = [4 * 1024, 64 * 1024, 256 * 1024]
_FRESH_GATE_SIZES = [4 * 1024, 256 * 1024]
_GATE_REASON = ("both paths run in one process on one core, so the ratio "
                "does not depend on the host's CPU count")

#: Warm seal+open ms before and after the bulk thread pool (<= 4 workers
#: for >= 256 KiB folds and keystreams) was removed: medians of five
#: interleaved best-of-5 runs on a 2-vCPU x86-64 VM, with their ranges.
#: The larger Fig. 7 blobs give up the second core; the ledger's
#: <= 288 KiB datasets did not move.
_POOL_REMOVAL = {
    "host_cpus": 2,
    "seal_open_ms": {
        "1048576": {"with_pool": 86.2, "with_pool_range": [62.7, 91.9],
                    "without": 93.8, "without_range": [85.0, 95.6]},
        "3145728": {"with_pool": 223.0, "with_pool_range": [182.0, 295.7],
                    "without": 271.2, "without_range": [243.9, 306.9]},
    },
}

# Paper Fig. 7: ~3 ms at 0.5 MB up to ~17 ms at 3 MB (per direction).
_PAPER_MS = {512 * 1024: 3.0, 1024 * 1024: 5.8,
             2 * 1024 * 1024: 11.0, 3 * 1024 * 1024: 17.0}

_KEY = b"\x42" * 16
_IV = b"\x24" * 12


def _established_session():
    attester = Attester(os.urandom)
    policy = VerifierPolicy()
    policy.endorse(_DEVICE.public_bytes())
    policy.trust_measurement(_CLAIM)
    verifier = Verifier(_IDENTITY, policy, os.urandom)
    session = attester.start_session(_IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, _CLAIM, _DEVICE.public_bytes(),
                           lambda body: ecdsa.sign(_DEVICE.private, body))
    return attester, verifier, session, verifier_session, msg2


def _sweep():
    attester, verifier, session, verifier_session, msg2 = \
        _established_session()
    results = []
    for size in SIZES:
        blob = os.urandom(size)
        started = time.perf_counter()
        msg3 = verifier.handle_msg2(verifier_session, msg2, blob)
        encrypt_s = time.perf_counter() - started
        started = time.perf_counter()
        received = attester.handle_msg3(session, msg3)
        decrypt_s = time.perf_counter() - started
        assert received == blob
        results.append((size, encrypt_s, decrypt_s))
        # Re-arm the verifier session for the next size.
        attester, verifier, session, verifier_session, msg2 = \
            _established_session()
    return results


# --- raw seal/open throughput, both paths --------------------------------------


def _measure_seal_open(cipher: AesGcm, blob: bytes, rounds: int):
    """Best-of-``rounds`` seal and open seconds for ``blob``."""
    best_seal = best_open = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        sealed = cipher.seal(_IV, blob)
        best_seal = min(best_seal, time.perf_counter() - started)
        started = time.perf_counter()
        opened = cipher.open(_IV, sealed)
        best_open = min(best_open, time.perf_counter() - started)
        assert opened == blob
    return best_seal, best_open


def _path_entry(size: int, seal_s: float, open_s: float) -> dict:
    mb = size / (1024 * 1024)
    return {
        "seal_s": seal_s,
        "open_s": open_s,
        "seal_mb_s": mb / seal_s,
        "open_mb_s": mb / open_s,
    }


def _measure_fresh_seal_open(blob: bytes, rounds: int):
    """Best-of-``rounds`` seal and open seconds, each end keying its own
    ``AesGcm`` from a new session key — table builds included."""
    best_seal = best_open = float("inf")
    for _ in range(rounds):
        key = os.urandom(16)
        started = time.perf_counter()
        sealed = AesGcm(key).seal(_IV, blob)
        best_seal = min(best_seal, time.perf_counter() - started)
        started = time.perf_counter()
        opened = AesGcm(key).open(_IV, sealed)
        best_open = min(best_open, time.perf_counter() - started)
        assert opened == blob
    return best_seal, best_open


def _size_entry(size, fast, reference) -> dict:
    (fast_seal, fast_open), (ref_seal, ref_open) = fast, reference
    return {
        "bytes": size,
        "fast": _path_entry(size, fast_seal, fast_open),
        "reference": _path_entry(size, ref_seal, ref_open),
        "speedup_seal": ref_seal / fast_seal,
        "speedup_open": ref_open / fast_open,
        "speedup_seal_open": (ref_seal + ref_open) / (fast_seal + fast_open),
    }


def _gcm_series(sizes, fast_rounds: int = 3, reference_rounds: int = 1):
    """Per-size seal/open timings for the fast and reference GCM paths."""
    cipher = AesGcm(_KEY)
    # Build this key's stripe tables once so the measurements see the
    # steady state of a long-lived key.
    cipher.seal(_IV, bytes(_STRIPE_BUILD_MIN_BLOCKS * 16))
    entries = []
    for size in sizes:
        blob = os.urandom(size)
        fast = _measure_seal_open(cipher, blob, fast_rounds)
        with gcm.reference_paths():
            reference = _measure_seal_open(cipher, blob, reference_rounds)
        entries.append(_size_entry(size, fast, reference))
    return entries


def _fresh_key_series(fast_rounds: int = 5, reference_rounds: int = 3):
    """Per-size seal/open timings with a fresh key at each end."""
    entries = []
    for size in _FRESH_SIZES:
        blob = os.urandom(size)
        fast = _measure_fresh_seal_open(blob, fast_rounds)
        with gcm.reference_paths():
            reference = _measure_fresh_seal_open(blob, reference_rounds)
        entries.append(_size_entry(size, fast, reference))
    return entries


def _gates(entries, fresh) -> dict:
    warm = next(e for e in entries if e["bytes"] == _GATE_SIZE)
    return {
        "warm_key_speedup": {
            "metric": "speedup_seal_open",
            "bytes": _GATE_SIZE,
            "threshold": _GATE_SPEEDUP,
            "values": [warm["speedup_seal_open"]],
        },
        "fresh_key_not_slower": {
            "metric": "speedup_seal_open",
            "bytes": _FRESH_GATE_SIZES,
            "threshold": 1.0,
            "values": [e["speedup_seal_open"] for e in fresh
                       if e["bytes"] in _FRESH_GATE_SIZES],
        },
    }


def _gates_hold(gates) -> bool:
    return all(value >= gate["threshold"]
               for gate in gates.values() for value in gate["values"])


def _gated_series(sizes, name):
    """Measure both series, re-measure once if a gate misses, and save
    ``<name>.json`` with each gate's record before it is asserted."""
    entries, fresh = _gcm_series(sizes), _fresh_key_series()
    gates = _gates(entries, fresh)
    retried = not _gates_hold(gates)
    if retried:
        entries, fresh = _gcm_series(sizes), _fresh_key_series()
        gates = _gates(entries, fresh)
    for gate in gates.values():
        gate.update(asserted=True, retried=retried, reason=_GATE_REASON)
    save_json(name, {
        "series": "fig7_msg3",
        "stripe_width": STRIPE_WIDTH,
        "stripe_build_min_blocks": _STRIPE_BUILD_MIN_BLOCKS,
        "sizes": entries,
        "fresh_key_sizes": fresh,
        "gates": gates,
        "thread_pool_removed": _POOL_REMOVAL,
    })
    return entries, fresh, gates


def _entries_table(entries, fresh) -> str:
    def rows(series):
        for entry in series:
            yield (
                f"{entry['bytes'] // 1024} kB",
                f"{entry['fast']['seal_mb_s']:.1f} / "
                f"{entry['fast']['open_mb_s']:.1f}",
                f"{entry['reference']['seal_mb_s']:.1f} / "
                f"{entry['reference']['open_mb_s']:.1f}",
                f"{entry['speedup_seal_open']:.1f}x",
            )

    headers = ["blob size", "fast MB/s (seal/open)",
               "reference MB/s (seal/open)", "speedup"]
    return "\n\n".join([
        format_table("msg3 AES-GCM throughput — fast vs reference path, "
                     "warm key", headers, rows(entries)),
        format_table("msg3 AES-GCM throughput — fast vs reference path, "
                     "fresh key at each end", headers, rows(fresh)),
    ])


def test_fig7_msg3_scaling(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = []
    for size, encrypt_s, decrypt_s in results:
        rows.append((
            f"{size // 1024} kB",
            f"{_PAPER_MS[size]:.1f} ms (each side)",
            f"enc {format_duration(encrypt_s)} / "
            f"dec {format_duration(decrypt_s)}",
            "",
        ))
    save_report("fig7_msg3", format_table(
        "Fig. 7 — msg3 execution time vs secret-blob size "
        "(paper vs measured)",
        ["blob size", "paper", "measured", "note"], rows,
    ))
    entries, fresh, gates = _gated_series(SIZES, "BENCH_msg3")
    save_report("fig7_msg3_paths", _entries_table(entries, fresh))
    # Shape: linear scaling — 3 MB costs roughly 6x the 0.5 MB time
    # (wide band: the constant ECDSA cost of handle_msg2 flattens the
    # ratio once the symmetric path is fast).
    small = results[0][1] + results[0][2]
    large = results[-1][1] + results[-1][2]
    assert 2.0 <= large / small <= 12.0
    # Shape: sealing and opening evolve proportionally (paper §VI-E). The
    # protocol-level numbers no longer show this — handle_msg2's constant
    # ECDSA cost and the first-seal GHASH table build dwarf the fast
    # symmetric path at 0.5 MB — so pin it on the raw GCM measurements.
    for entry in entries:
        for side in ("fast", "reference"):
            assert 0.4 <= entry[side]["seal_s"] / entry[side]["open_s"] <= 2.5
    assert _gates_hold(gates), gates


def test_msg3_throughput_smoke():
    """CI gates: with a warm key, fast >= 5x reference on a 512 kB
    seal+open; with a fresh key at each end, fast no slower than the
    reference at 4 KiB and 256 KiB.

    One re-measure against runner noise before a gate may fail (DESIGN.md
    §16), and ``BENCH_msg3_smoke.json`` records each gate's values,
    whether it was retried, and why it is asserted.
    """
    entries, fresh, gates = _gated_series(_SMOKE_SIZES, "BENCH_msg3_smoke")
    save_report("msg3_throughput_smoke", _entries_table(entries, fresh))
    assert _gates_hold(gates), gates

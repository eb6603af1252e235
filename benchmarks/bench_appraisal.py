"""Multi-TEE appraisal cost: per-backend latency, policy-eval overhead.

Three questions the numbers answer, per evidence backend (TrustZone
native, TrustZone-over-envelope, SGX-style, TDX-style):

* what does one msg2 appraisal cost end to end (decode + signature
  verify + declarative policy eval)?
* how do the envelope/codec and the compiled policy evaluator split that
  cost — i.e. what did the new subsystem *add* to the hot path?
* is the legacy single-TEE deployment unaffected? The acceptance gate:
  arming the verifier with an appraisal engine moves the seed msg2 path
  by **< 5%** (the declarative evaluator runs in microseconds against a
  signature verify in milliseconds).

Machine-readable series land in ``bench_results/BENCH_appraisal.json``.
"""

from __future__ import annotations

import os
import time
from statistics import median

from repro.appraisal import (
    AppraisalEngine,
    AppraisalPolicy,
    default_registry,
    synthetic,
)
from repro.appraisal.codecs.trustzone import TrustZoneView
from repro.appraisal.envelope import TEE_SGX, TEE_TRUSTZONE
from repro.bench import format_table, save_json, save_report
from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa

IDENTITY = ecdsa.keypair_from_private(0xA11CE + 6)
DEVICE = ecdsa.keypair_from_private(0xB0B + 6)
CLAIM = measure_bytes(b"appraisal bench app").digest
BOOT = b"\x0B" * 32
SECRET = b"appraisal benchmark secret blob!"

REPEATS = 12
OVERHEAD_REPEATS = 16
OVERHEAD_LIMIT = 0.05


class _TrustZoneDevice:
    tee_type = TEE_TRUSTZONE

    def __init__(self, attester):
        self._attester = attester

    @property
    def attestation_public_key(self):
        return DEVICE.public_bytes()

    def collect_evidence(self, anchor):
        signed = self._attester.collect_evidence(
            anchor, CLAIM, DEVICE.public_bytes(),
            lambda body: ecdsa.sign(DEVICE.private, body), boot_claim=BOOT)
        return TrustZoneView(signed)


def _appraisal_policy(devices):
    policy = AppraisalPolicy()
    for device in devices:
        tee = policy.accept_tee(device.tee_type)
        tee.endorse(device.attestation_public_key)
        if device.tee_type == TEE_TRUSTZONE:
            tee.trust_measurement(CLAIM)
            tee.trust_boot_measurement(BOOT)
        elif device.tee_type == TEE_SGX:
            tee.trust_measurement(device.mrenclave)
            tee.trust_signer(device.mrsigner)
        else:
            tee.trust_measurement(device.mrtd)
    return policy


def _legacy_policy():
    policy = VerifierPolicy()
    policy.endorse(DEVICE.public_bytes())
    policy.trust_measurement(CLAIM)
    policy.trust_boot_measurement(BOOT)
    return policy


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _multi_msg2_times(attester, verifier, device, repeats=REPEATS):
    """Per-handshake seconds spent in the verifier's msg2 handler."""
    times = []
    for _ in range(repeats):
        session = attester.start_session(IDENTITY.public_bytes())
        vsession, msg1 = verifier.handle_msg0(
            attester.make_msg0_multi(session, device.tee_type))
        attester.handle_msg1(session, msg1)
        view = device.collect_evidence(session.anchor)
        msg2 = attester.make_msg2_multi(session, view)
        elapsed, msg3 = _timed(
            lambda: verifier.handle_msg2(vsession, msg2, SECRET))
        assert attester.handle_msg3(session, msg3) == SECRET
        times.append(elapsed)
    return times


def _legacy_msg2_times(attester, verifier, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        session = attester.start_session(IDENTITY.public_bytes())
        vsession, msg1 = verifier.handle_msg0(attester.make_msg0(session))
        attester.handle_msg1(session, msg1)
        signed = attester.collect_evidence(
            session.anchor, CLAIM, DEVICE.public_bytes(),
            lambda body: ecdsa.sign(DEVICE.private, body), boot_claim=BOOT)
        msg2 = attester.make_msg2(session, signed)
        elapsed, msg3 = _timed(
            lambda: verifier.handle_msg2(vsession, msg2, SECRET))
        assert attester.handle_msg3(session, msg3) == SECRET
        times.append(elapsed)
    return times


def _component_times(view, evaluator, repeats=200):
    """Microseconds for the pieces PR 6 added to the msg2 hot path."""
    registry = default_registry()
    wire = view.envelope()
    decode = []
    for _ in range(repeats):
        elapsed, _unused = _timed(lambda: registry.decode(wire))
        decode.append(elapsed)
    evaluate = []
    for _ in range(repeats):
        elapsed, verdict = _timed(lambda: evaluator.evaluate(view))
        assert verdict.accepted
        evaluate.append(elapsed)
    return median(decode), median(evaluate)


def _save_bench_json(payload: dict) -> str:
    return save_json("BENCH_appraisal", payload)


def test_appraisal_latency_and_overhead():
    import random

    attester = Attester(os.urandom)
    devices = {
        "trustzone": _TrustZoneDevice(attester),
        "sgx": synthetic.sgx_enclave(0, CLAIM),
        "tdx": synthetic.tdx_domain(0, CLAIM),
    }
    policy = _appraisal_policy(devices.values())
    evaluator = policy.compile()

    # -- per-backend envelope-path latency ------------------------------------
    backends = {}
    for name, device in devices.items():
        engine = AppraisalEngine(policy)
        verifier = Verifier(IDENTITY, VerifierPolicy(), os.urandom,
                            engine=engine)
        msg2 = _multi_msg2_times(attester, verifier, device)
        view = device.collect_evidence(b"\x5A" * 32)
        decode_s, evaluate_s = _component_times(view, evaluator)
        backends[name] = {
            "msg2_ms": round(median(msg2) * 1e3, 3),
            "decode_us": round(decode_s * 1e6, 2),
            "policy_eval_us": round(evaluate_s * 1e6, 2),
            "envelope_bytes": len(view.envelope()),
        }

    # -- legacy-path overhead: seed verifier vs engine-armed ------------------
    # Interleave the two configurations so host noise hits both equally.
    plain = Verifier(IDENTITY, _legacy_policy(), os.urandom)
    armed = Verifier(IDENTITY, _legacy_policy(), os.urandom,
                     engine=AppraisalEngine(
                         AppraisalPolicy.from_verifier_policy(
                             _legacy_policy())))
    plain_times, armed_times = [], []
    order = [0, 1] * OVERHEAD_REPEATS
    random.shuffle(order)
    for which in order:
        if which == 0:
            plain_times += _legacy_msg2_times(attester, plain, repeats=1)
        else:
            armed_times += _legacy_msg2_times(attester, armed, repeats=1)
    plain_ms = median(plain_times) * 1e3
    armed_ms = median(armed_times) * 1e3
    overhead = (armed_ms - plain_ms) / plain_ms

    # The declarative evaluator itself must be noise against the
    # signature verify: its pure cost is the architectural bound on the
    # overhead, independent of host jitter.
    eval_share = (backends["trustzone"]["policy_eval_us"] / 1e3) \
        / backends["trustzone"]["msg2_ms"]
    gates = {
        "eval_share": {
            "metric": "TrustZone policy eval / envelope msg2 verify time",
            "threshold": OVERHEAD_LIMIT,
            "value": round(eval_share, 5),
            "asserted": True,
            "reason": "both are medians of pure in-process work timed "
                      "back to back, so the share is host-independent",
        },
        "overhead": {
            "metric": "engine-armed vs seed legacy msg2 median, relative",
            "threshold": OVERHEAD_LIMIT,
            "value": round(overhead, 4),
            "asserted": True,
            "reason": "the two verifiers are timed in shuffled interleaved "
                      "order, so host noise hits both alike",
        },
    }

    rows = [(name, stats["msg2_ms"], stats["decode_us"],
             stats["policy_eval_us"], stats["envelope_bytes"])
            for name, stats in sorted(backends.items())]
    rows.append(("legacy (seed)", round(plain_ms, 3), "-", "-", "-"))
    rows.append(("legacy (engine-armed)", round(armed_ms, 3), "-", "-", "-"))
    text = format_table(
        "Multi-TEE appraisal: msg2 latency per backend",
        ["backend", "msg2 ms", "decode us", "policy eval us", "env bytes"],
        rows)
    text += (f"\nlegacy-path overhead (engine-armed vs seed): "
             f"{overhead:+.2%} (gate < {OVERHEAD_LIMIT:.0%})")
    save_report("appraisal_latency", text)
    _save_bench_json({
        "mode": "smoke",
        "backends": backends,
        "legacy_overhead": {
            "plain_ms": round(plain_ms, 3),
            "armed_ms": round(armed_ms, 3),
            "overhead_fraction": round(overhead, 4),
            "limit": OVERHEAD_LIMIT,
        },
        "gates": gates,
    })
    assert eval_share < OVERHEAD_LIMIT, gates
    assert overhead < OVERHEAD_LIMIT, gates

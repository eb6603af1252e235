"""The fast crypto paths must be invisible to the cost model.

The wNAF/comb/Shamir EC fast paths and the vectorised GCM pipeline change
*wall-clock* time only. Everything the simulation observes — the protocol
transcript, the CostRecorder phase sequence (Table III), the ``crypto.*``
span stream an observing tracer records, and the SimClock totals of a full
on-device attestation — must be byte-for-byte identical between the fast
paths and the retained scalar references.
"""

import hashlib
from contextlib import contextmanager

from repro.core import VerifierPolicy, measure_bytes, start_verifier
from repro.core import protocol
from repro.core.attester import Attester
from repro.core.verifier import Verifier
from repro.crypto import ec, ecdsa, gcm
from repro.obs import Tracer
from repro.testbed import Testbed
from repro.workloads.attested import build_attested_app

_SECRET = b"the attested payload" * 10
#: Big enough that the striped GHASH and chunked pipeline actually engage
#: (>= gcm._STRIPE_BUILD_MIN_BLOCKS blocks) while the reference stays quick.
_BULK_SECRET = bytes(range(256)) * 16 * 75  # 300 KiB
_ATTESTATION_PRIVATE = 0xA77E57 + 99
_VERIFIER_PRIVATE = 0x5EC2E7 + 7


def _deterministic_random(label: str):
    state = {"n": 0}

    def random_bytes(size: int) -> bytes:
        state["n"] += 1
        out = b""
        while len(out) < size:
            out += hashlib.sha256(
                f"{label}/{state['n']}/{len(out)}".encode()).digest()
        return out[:size]

    return random_bytes


class _SequenceRecorder(protocol.CostRecorder):
    """Records the exact order of phases, not just their accumulated time."""

    def __init__(self) -> None:
        super().__init__()
        self.sequence = []

    @contextmanager
    def phase(self, message, category):
        self.sequence.append((message, category))
        with super().phase(message, category):
            yield


def _run_handshake(recorder_a, recorder_v, secret=_SECRET):
    """Full msg0..msg3 exchange; returns the transcript and the secret."""
    attestation_pair = ecdsa.keypair_from_private(_ATTESTATION_PRIVATE)
    identity = ecdsa.keypair_from_private(_VERIFIER_PRIVATE)
    claim = hashlib.sha256(b"trusted module").digest()

    policy = VerifierPolicy()
    policy.endorse(attestation_pair.public_bytes())
    policy.trust_measurement(claim)

    attester = Attester(_deterministic_random("attester"), recorder_a)
    verifier = Verifier(identity, policy,
                        _deterministic_random("verifier"), recorder_v)

    session = attester.start_session(identity.public_bytes())
    msg0 = attester.make_msg0(session)
    vsession, msg1 = verifier.handle_msg0(msg0)
    attester.handle_msg1(session, msg1)
    signed = attester.collect_evidence(
        session.anchor, claim, attestation_pair.public_bytes(),
        lambda body: ecdsa.sign(attestation_pair.private, body))
    msg2 = attester.make_msg2(session, signed)
    msg3 = verifier.handle_msg2(vsession, msg2, secret)
    received = attester.handle_msg3(session, msg3)
    return (msg0, msg1, msg2, msg3), received


def test_transcript_and_phase_sequence_identical_on_both_paths():
    recorder_fast_a, recorder_fast_v = _SequenceRecorder(), _SequenceRecorder()
    transcript_fast, secret_fast = _run_handshake(recorder_fast_a,
                                                  recorder_fast_v)

    with ec.reference_paths():
        recorder_ref_a, recorder_ref_v = (_SequenceRecorder(),
                                          _SequenceRecorder())
        transcript_ref, secret_ref = _run_handshake(recorder_ref_a,
                                                    recorder_ref_v)

    assert secret_fast == secret_ref == _SECRET
    # Deterministic randomness + RFC 6979 signing: the wire bytes must not
    # depend on which scalar-multiplication algorithm produced them.
    assert transcript_fast == transcript_ref
    # The recorders saw the same phases in the same order on both sides.
    assert recorder_fast_a.sequence == recorder_ref_a.sequence
    assert recorder_fast_v.sequence == recorder_ref_v.sequence
    assert set(recorder_fast_a.seconds) == set(recorder_ref_a.seconds)
    assert set(recorder_fast_v.seconds) == set(recorder_ref_v.seconds)
    # Every Table III (message, category) cell the bench prints is present.
    assert ("msg1", protocol.ASYMMETRIC) in recorder_fast_a.sequence
    assert ("msg2", protocol.ASYMMETRIC) in recorder_fast_v.sequence


def test_tracing_recorder_spans_identical_on_both_paths():
    tracer_fast = Tracer()
    with tracer_fast.observe():
        _run_handshake(None, None)

    tracer_ref = Tracer()
    with ec.reference_paths(), tracer_ref.observe():
        _run_handshake(None, None)

    def shape(tracer):
        return [(s.name, s.attrs.get("message")) for s in tracer.spans()]

    fast_shape = shape(tracer_fast)
    assert fast_shape == shape(tracer_ref)
    assert ("crypto.asymmetric", "msg2") in fast_shape


def _attested_device_clock_ns(secret=_SECRET,
                              secret_capacity: int = 1 << 12) -> int:
    """Run a full on-device attestation; return the final SimClock time."""
    host, port = "invariance.local", 7100
    testbed = Testbed(deterministic_rng=True)
    device = testbed.create_device()
    identity = ecdsa.keypair_from_private(_VERIFIER_PRIVATE)
    app = build_attested_app(identity.public_bytes(), host, port,
                             secret_capacity=secret_capacity)
    policy = VerifierPolicy()
    policy.endorse(device.attestation_public_key)
    policy.trust_measurement(measure_bytes(app).digest)
    start_verifier(testbed.network, host, port, device.client,
                   testbed.vendor_key, identity, policy, lambda: secret)
    session = device.open_watz(heap_size=17 * 1024 * 1024)
    loaded = device.load_wasm(session, app)
    assert device.run_wasm(session, loaded["app"], "attest") == len(secret)
    return device.soc.clock.now_ns()


def test_simclock_totals_identical_on_both_paths():
    fast_ns = _attested_device_clock_ns()
    with ec.reference_paths():
        reference_ns = _attested_device_clock_ns()
    assert fast_ns == reference_ns


# --- GCM fast path (vectorised streaming AEAD pipeline) ------------------------


def test_msg3_wire_bytes_identical_on_gcm_paths():
    """A bulk msg3 is byte-identical whichever GCM path sealed it."""
    recorder_fast_a, recorder_fast_v = _SequenceRecorder(), _SequenceRecorder()
    transcript_fast, secret_fast = _run_handshake(
        recorder_fast_a, recorder_fast_v, secret=_BULK_SECRET)

    with gcm.reference_paths():
        recorder_ref_a, recorder_ref_v = (_SequenceRecorder(),
                                          _SequenceRecorder())
        transcript_ref, secret_ref = _run_handshake(
            recorder_ref_a, recorder_ref_v, secret=_BULK_SECRET)

    assert secret_fast == secret_ref == _BULK_SECRET
    assert transcript_fast == transcript_ref
    assert recorder_fast_a.sequence == recorder_ref_a.sequence
    assert recorder_fast_v.sequence == recorder_ref_v.sequence
    assert ("msg3", protocol.SYMMETRIC) in recorder_fast_a.sequence
    assert ("msg3", protocol.SYMMETRIC) in recorder_fast_v.sequence


def test_tracing_recorder_spans_identical_on_gcm_paths():
    tracer_fast = Tracer()
    with tracer_fast.observe():
        _run_handshake(None, None, secret=_BULK_SECRET)

    tracer_ref = Tracer()
    with gcm.reference_paths(), tracer_ref.observe():
        _run_handshake(None, None, secret=_BULK_SECRET)

    def shape(tracer):
        return [(s.name, s.attrs.get("message")) for s in tracer.spans()]

    fast_shape = shape(tracer_fast)
    assert fast_shape == shape(tracer_ref)
    assert ("crypto.symmetric", "msg3") in fast_shape


def test_simclock_totals_identical_on_gcm_paths():
    fast_ns = _attested_device_clock_ns(secret=b"\xc3" * 4000)
    with gcm.reference_paths():
        reference_ns = _attested_device_clock_ns(secret=b"\xc3" * 4000)
    assert fast_ns == reference_ns


def test_chunked_shared_copy_charge_telescopes_exactly():
    """The chunkwise SimClock charge sums to the one-shot charge, byte for
    byte, despite the cost model's integer division."""
    from repro.optee.gp_api import _charge_shared_copy

    class _Clock:
        def __init__(self):
            self.total = 0

        def advance(self, ns):
            self.total += ns

    class _Soc:
        def __init__(self, costs):
            self.costs = costs
            self.clock = _Clock()

    testbed = Testbed(deterministic_rng=True)
    costs = testbed.create_device().soc.costs
    for size in (0, 1, 1023, 1024, 1025, 128 * 1024 - 1, 128 * 1024 + 1,
                 1 << 20, (1 << 20) + 777):
        soc = _Soc(costs)
        _charge_shared_copy(soc, size)
        assert soc.clock.total == costs.shared_copy_ns(size), size

"""The fast crypto paths must be invisible to the cost model.

The wNAF/comb/Shamir EC fast paths and the vectorised GCM pipeline change
*wall-clock* time only. Everything the simulation observes — the protocol
transcript, the sequence of spans an observing tracer records around the
protocol steps, crypto primitives and codecs (the spans Table III is read
from), and the SimClock totals of a full on-device attestation — must be
byte-for-byte identical between the fast paths and the retained scalar
references.
"""

import hashlib

from repro.core import VerifierPolicy, measure_bytes, start_verifier
from repro.core.attester import Attester
from repro.core.verifier import Verifier
from repro.crypto import ec, ecdsa, gcm
from repro.obs import TraceAnalyzer, Tracer
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


def _run_handshake(secret=_SECRET):
    """Full msg0..msg3 exchange under an observing tracer; returns the
    transcript, the secret and the recorded spans."""
    attestation_pair = ecdsa.keypair_from_private(_ATTESTATION_PRIVATE)
    identity = ecdsa.keypair_from_private(_VERIFIER_PRIVATE)
    claim = hashlib.sha256(b"trusted module").digest()

    policy = VerifierPolicy()
    policy.endorse(attestation_pair.public_bytes())
    policy.trust_measurement(claim)

    attester = Attester(_deterministic_random("attester"))
    verifier = Verifier(identity, policy, _deterministic_random("verifier"))

    tracer = Tracer()
    with tracer.observe():
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
    return (msg0, msg1, msg2, msg3), received, tracer.spans()


def _names(spans):
    """The outside-in span names, in the order the calls started."""
    return [span.name for span in sorted(spans, key=lambda s: s.span_id)]


def _tree(spans):
    """Each span's name with its parent's: the nesting, not the order."""
    by_id = {span.span_id: span for span in spans}
    return sorted((span.name, by_id[span.parent_id].name
                   if span.parent_id in by_id else None) for span in spans)


def test_transcript_and_phase_sequence_identical_on_both_paths():
    transcript_fast, secret_fast, spans_fast = _run_handshake()
    with ec.reference_paths():
        transcript_ref, secret_ref, spans_ref = _run_handshake()

    assert secret_fast == secret_ref == _SECRET
    # Deterministic randomness + RFC 6979 signing: the wire bytes must not
    # depend on which scalar-multiplication algorithm produced them.
    assert transcript_fast == transcript_ref
    # The same steps, primitives and codecs ran in the same order.
    assert _names(spans_fast) == _names(spans_ref)
    assert "crypto.ecdsa.verify" in _names(spans_fast)


def test_tracing_recorder_spans_identical_on_both_paths():
    _, _, spans_fast = _run_handshake()
    with ec.reference_paths():
        _, _, spans_ref = _run_handshake()

    assert _tree(spans_fast) == _tree(spans_ref)
    cells = set(TraceAnalyzer(spans_fast).protocol_costs())
    assert cells == set(TraceAnalyzer(spans_ref).protocol_costs())
    # Every Table III cell the bench prints for these two is filled in.
    assert ("attester", "msg1", "asymmetric") in cells
    assert ("verifier", "msg2", "asymmetric") in cells


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
    transcript_fast, secret_fast, spans_fast = _run_handshake(_BULK_SECRET)
    with gcm.reference_paths():
        transcript_ref, secret_ref, spans_ref = _run_handshake(_BULK_SECRET)

    assert secret_fast == secret_ref == _BULK_SECRET
    assert transcript_fast == transcript_ref
    assert _names(spans_fast) == _names(spans_ref)
    assert "core.protocol.seal_msg3" in _names(spans_fast)
    assert "core.protocol.open_msg3" in _names(spans_fast)


def test_tracing_recorder_spans_identical_on_gcm_paths():
    _, _, spans_fast = _run_handshake(_BULK_SECRET)
    with gcm.reference_paths():
        _, _, spans_ref = _run_handshake(_BULK_SECRET)

    assert _tree(spans_fast) == _tree(spans_ref)
    cells = set(TraceAnalyzer(spans_fast).protocol_costs())
    assert cells == set(TraceAnalyzer(spans_ref).protocol_costs())
    assert ("attester", "msg3", "symmetric") in cells
    assert ("verifier", "msg3", "symmetric") in cells


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

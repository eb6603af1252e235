"""WASI-RA end to end on the full platform (paper Fig. 2 flow)."""

import pytest

from repro.core import (
    CMD_INVOKE,
    CMD_MEASUREMENT,
    CMD_STDOUT,
    CMD_UNLOAD,
    VerifierPolicy,
    measure_bytes,
    start_verifier,
)
from repro.core.transport import Network
from repro.errors import TeeBadParameters, TeeCommunicationError
from repro.walc import compile_source
from repro.wasi import errno
from repro.workloads.attested import build_attested_app

HOST, PORT = "verifier.local", 7000
SECRET = bytes(range(251)) * 41  # 10291 bytes


@pytest.fixture
def deployment(testbed, verifier_identity):
    device = testbed.create_device()
    app = build_attested_app(verifier_identity.public_bytes(), HOST, PORT,
                             secret_capacity=1 << 16)
    policy = VerifierPolicy()
    policy.endorse(device.attestation_public_key)
    policy.trust_measurement(measure_bytes(app).digest)
    start_verifier(testbed.network, HOST, PORT, device.client,
                   testbed.vendor_key, verifier_identity, policy,
                   lambda: SECRET)
    session = device.open_watz(heap_size=17 * 1024 * 1024)
    loaded = device.load_wasm(session, app)
    return testbed, device, session, loaded, policy, verifier_identity


def test_one_shot_attest_delivers_secret(deployment):
    _, device, session, loaded, _, _ = deployment
    assert device.run_wasm(session, loaded["app"], "attest") == len(SECRET)
    checksum = device.run_wasm(session, loaded["app"], "secret_checksum")
    assert checksum == sum(SECRET) % 65536


def test_stepwise_wasi_ra_flow(deployment):
    _, device, session, loaded, _, _ = deployment
    app = loaded["app"]
    ctx = device.run_wasm(session, app, "ra_handshake")
    assert ctx > 0
    quote = device.run_wasm(session, app, "ra_collect_quote")
    assert quote > 0
    assert device.run_wasm(session, app, "ra_send_quote", ctx, quote) == 0
    received = device.run_wasm(session, app, "ra_receive_data", ctx)
    assert received == len(SECRET)
    device.run_wasm(session, app, "ra_dispose", ctx, quote)
    assert device.run_wasm(session, app, "secret_length") == len(SECRET)


def test_load_params_never_reach_the_attester(deployment):
    """CMD_LOAD takes no recorder: a normal-world value under that name
    is ignored, and the app's handshake runs to completion."""
    _, device, session, _, _, identity = deployment
    app = build_attested_app(identity.public_bytes(), HOST, PORT,
                             secret_capacity=1 << 16)
    loaded = device.load_wasm(session, app, recorder=5)
    assert device.run_wasm(session, loaded["app"], "attest") == len(SECRET)


def test_the_secret_never_leaves_through_the_ta(deployment):
    """The runtime TA exports no host-call log: a normal-world
    ``record_hostcalls`` load param is ignored, command 6 is refused,
    and no command's reply carries the provisioned secret."""
    _, device, session, _, _, identity = deployment
    app = build_attested_app(identity.public_bytes(), HOST, PORT,
                             secret_capacity=1 << 16)
    replies = [device.load_wasm(session, app, record_hostcalls=True)]
    handle = replies[0]["app"]
    replies.append(session.invoke(CMD_INVOKE, {
        "app": handle, "function": "attest"}))
    assert replies[-1]["result"] == len(SECRET)
    with pytest.raises(TeeBadParameters):
        session.invoke(6, {"app": handle})
    for command in (CMD_STDOUT, CMD_MEASUREMENT, CMD_UNLOAD):
        replies.append(session.invoke(command, {"app": handle}))
    needle = SECRET[:32]
    for reply in replies:
        for value in reply.values():
            blob = value if isinstance(value, bytes) else str(value).encode()
            assert needle not in blob and needle.hex().encode() not in blob


@pytest.mark.parametrize("engine_name", ["interpreter", "aot"])
def test_handshake_host_name_not_utf8_is_einval(device, engine_name):
    """A host name that is not UTF-8 is the module's error: the handshake
    returns -EINVAL instead of escaping the TA."""
    app = compile_source("""
memory 1;
data 64 (255, 254, 253);
import fn watz.wasi_ra_net_handshake(a: i32, b: i32, c: i32, d: i32, e: i32, f: i32) -> i32;
export fn handshake() -> i32 {
  return 0 - wasi_ra_net_handshake(64, 3, 7000, 128, 65, 256);
}
""")
    session = device.open_watz(heap_size=4 * 1024 * 1024, engine=engine_name)
    loaded = device.load_wasm(session, app)
    assert device.run_wasm(session, loaded["app"], "handshake") \
        == errno.EINVAL


def test_secret_bytes_accessible(deployment):
    _, device, session, loaded, _, _ = deployment
    device.run_wasm(session, loaded["app"], "attest")
    for index in (0, 1, 100, len(SECRET) - 1):
        value = device.run_wasm(session, loaded["app"], "secret_byte", index)
        assert value == SECRET[index]
    assert device.run_wasm(session, loaded["app"], "secret_byte",
                           len(SECRET)) == 0xFFFFFFFF  # -1 as u32


def test_tampered_app_gets_no_secret(deployment):
    testbed, device, session, _, _, identity = deployment
    evil = build_attested_app(identity.public_bytes(), HOST, PORT,
                              secret_capacity=1 << 16,
                              extra_functions="export fn evil() -> i32 "
                                              "{ return 666; }")
    loaded = device.load_wasm(session, evil)
    assert device.run_wasm(session, loaded["app"], "attest") < 0


def test_unendorsed_second_device_rejected(deployment):
    testbed, _, _, _, _, identity = deployment
    other = testbed.create_device()
    app = build_attested_app(identity.public_bytes(), HOST, PORT,
                             secret_capacity=1 << 16)
    # The app measurement is trusted, but this device's key is not endorsed.
    session = other.open_watz(heap_size=17 * 1024 * 1024)
    loaded = other.load_wasm(session, app)
    assert other.run_wasm(session, loaded["app"], "attest") < 0


def test_app_with_rogue_verifier_key_aborts(deployment):
    testbed, device, session, _, policy, _ = deployment
    from repro.crypto import ecdsa

    rogue = ecdsa.keypair_from_private(987654321)
    app = build_attested_app(rogue.public_bytes(), HOST, PORT,
                             secret_capacity=1 << 16)
    policy.trust_measurement(measure_bytes(app).digest)
    loaded = device.load_wasm(session, app)
    assert device.run_wasm(session, loaded["app"], "attest") < 0


def test_connection_refused_reported_as_errno(deployment):
    testbed, device, session, _, policy, identity = deployment
    app = build_attested_app(identity.public_bytes(), "nowhere", 9,
                             secret_capacity=1 << 16)
    policy.trust_measurement(measure_bytes(app).digest)
    loaded = device.load_wasm(session, app)
    assert device.run_wasm(session, loaded["app"], "attest") < 0


def test_attestation_consumes_simulated_network_time(deployment):
    _, device, session, loaded, _, _ = deployment
    before = device.soc.clock.now_ns()
    device.run_wasm(session, loaded["app"], "attest")
    elapsed = device.soc.clock.now_ns() - before
    # At least: several socket round trips + world transitions.
    assert elapsed > 4 * device.soc.costs.socket_roundtrip_ns


def test_transport_send_then_receive_ordering():
    network = Network()

    class Echo:
        def on_message(self, data):
            return b"re:" + data

        def on_close(self):
            pass

    network.listen("h", 1, Echo)
    connection = network.connect("h", 1)
    connection.send(b"one")
    connection.send(b"two")
    assert connection.receive() == b"re:one"
    assert connection.receive() == b"re:two"
    with pytest.raises(TeeCommunicationError):
        connection.receive()
    connection.close()
    with pytest.raises(TeeCommunicationError):
        connection.send(b"after close")


def test_network_connection_refused():
    with pytest.raises(TeeCommunicationError, match="refused"):
        Network().connect("nobody", 1)


def test_network_rejects_duplicate_listeners():
    network = Network()
    network.listen("h", 1, lambda: None)
    with pytest.raises(TeeCommunicationError, match="in use"):
        network.listen("h", 1, lambda: None)

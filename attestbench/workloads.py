"""The three closed-loop workloads of the attested-path benchmark.

Each workload has two halves that never share a process:

* ``make_inputs(seed)`` runs in the benchmark's parent process and builds
  everything the program only *receives*: compiled Wasm binaries, seeded
  datasets, and the reference answers every op is checked against. The
  result is plain data (bytes, ints, floats, lists, dicts), so a worker
  process can unpickle it without importing anything.
* A ``Workload`` subclass runs in a fresh worker process. ``setup`` boots
  the boards and starts the services, ``warmup`` runs the ops that fill
  caches and lazy tables, and ``run_op`` executes one op and checks its
  output, returning ``None`` when the output is correct and a one-line
  failure message otherwise.

Everything random is derived from the seed: board serials (and with
them the boards' entropy), the attesters' random sources, the verifier
identity, the op sequence and every input. Two runs with one seed
therefore do identical work, and their SimClock totals, code-cache
statistics and gateway counters agree exactly for the same op count.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Callable, Dict, Iterator, List, Optional

HOST = "ledger.verifier"
PORT = 9443

#: Fixed population of pre-booted trusted boards attesting to the gateway.
FLEET_BOARDS = 12
#: One 16-card deck per cycle: 8 returning boards presenting a resumption
#: ticket, 7 first-contact boards (fresh attester, no ticket), 1 untrusted
#: board that must be refused with ``MeasurementMismatch``.
FLEET_DECK = ("returning",) * 8 + ("first-contact",) * 7 + ("untrusted",)
FLEET_SECRET_BYTES = 4 * 1024

#: attested-ml dataset pool: sizes straddle 256 KiB, where the bulk GCM
#: path goes multi-threaded on hosts with two or more CPUs.
ML_POOL = 8
ML_MIN_BYTES = 192 * 1024
ML_MAX_BYTES = 288 * 1024
ML_CAPACITY = ML_MAX_BYTES + 4096
ML_RECORDS = 400
ML_RATE = 0.5
ML_HEAP = 17 * 1024 * 1024

COLD_HEAP = 17 * 1024 * 1024
#: Build-id constants live in [2^27, 2^31): every value there encodes to
#: exactly 5 signed-LEB128 bytes, so patching one in place keeps the
#: binary well formed while changing its content hash.
BUILD_ID_MIN = 1 << 27
BUILD_ID_MAX = 1 << 31
BUILD_ID_SENTINEL = 0x5EED1D5A


def drbg(label: str) -> Callable[[int], bytes]:
    """A deterministic byte stream (SHA-256 in counter mode) for ``label``."""
    counter = [0]

    def read(size: int) -> bytes:
        out = bytearray()
        while len(out) < size:
            counter[0] += 1
            out += hashlib.sha256(f"{label}/{counter[0]}".encode()).digest()
        return bytes(out[:size])

    return read


def first_serial(seed: int) -> int:
    """Board serials (and so the boards' entropy streams) follow the seed."""
    return (seed % (1 << 31)) * 4096 + 1


def _deck(rng: random.Random, cards) -> Iterator:
    """Endless shuffled copies of ``cards``: exact proportions per cycle."""
    while True:
        cycle = list(cards)
        rng.shuffle(cycle)
        yield from cycle


def sleb128(value: int) -> bytes:
    """Signed LEB128, the encoding of an ``i32.const`` immediate."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


class Workload:
    """What every workload provides; see the module docstring."""

    name = ""
    #: The op field that names its input; ops sharing it do the same work.
    group_key = ""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.seed = inputs["seed"]
        self.rng = random.Random(f"{self.name}/{self.seed}")
        self.testbed = None

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[dict]:
        """The deterministic op sequence (independent of timing)."""
        raise NotImplementedError

    def run_op(self, op: dict) -> Optional[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _warm(self, op: dict) -> None:
        failure = self.run_op(op)
        if failure is not None:
            raise RuntimeError(f"warm-up op failed: {failure}")

    # -- program-visible counters --------------------------------------------

    def clocks(self) -> list:
        """Every board's SimClock."""
        raise NotImplementedError

    def sim_ns(self) -> int:
        return sum(clock.now_ns() for clock in self.clocks())

    def counters(self) -> dict:
        """Counters the program itself keeps (the same-path check)."""
        from repro.wasm import DEFAULT_CACHE

        return {"sim_ns": self.sim_ns(), "code_cache": DEFAULT_CACHE.stats()}

    def _make_testbed(self):
        from repro.testbed import Testbed

        self.testbed = Testbed(deterministic_rng=True,
                               first_serial=first_serial(self.seed))
        return self.testbed


# --- fleet-attest ---------------------------------------------------------------


def fleet_inputs(seed: int) -> dict:
    return {"seed": seed,
            "secret": drbg(f"fleet-secret/{seed}")(FLEET_SECRET_BYTES)}


class FleetAttest(Workload):
    """One device's full handshake per op against the threaded gateway."""

    name = "fleet-attest"
    group_key = "kind"

    def setup(self) -> None:
        from repro.core import VerifierPolicy, measure_bytes
        from repro.crypto import ecdsa
        from repro.fleet import AttesterStack, FleetConfig, start_fleet_gateway

        testbed = self._make_testbed()
        self._secret = self.inputs["secret"]
        self._identity = ecdsa.keypair_from_seed_stream(
            drbg(f"fleet-identity/{self.seed}"))
        self._policy = VerifierPolicy()
        trusted_claim = measure_bytes(
            f"fleet application {self.seed}".encode()).digest
        tampered_claim = measure_bytes(
            f"tampered application {self.seed}".encode()).digest
        self._policy.trust_measurement(trusted_claim)
        self._gateway_device = testbed.create_device()
        self._stacks: List = []
        for index in range(FLEET_BOARDS + 1):
            device = testbed.create_device()
            self._policy.endorse(device.attestation_public_key)
            self._policy.trust_boot_measurement(device.kernel.boot_measurement)
            trusted = index < FLEET_BOARDS
            self._stacks.append(AttesterStack(
                index=index, device=device, attester=None,
                claim=trusted_claim if trusted else tampered_claim))
        self._generation = [0] * len(self._stacks)
        secret = self._secret
        self.gateway = start_fleet_gateway(
            testbed.network, HOST, PORT, self._gateway_device.client,
            testbed.vendor_key, self._identity, self._policy,
            lambda: secret, FleetConfig())

    def _fresh_attester(self, index: int):
        from repro.core import Attester

        self._generation[index] += 1
        return Attester(drbg(
            f"fleet-attester/{self.seed}/{index}/{self._generation[index]}"))

    def warmup(self) -> None:
        # Every trusted board earns a resumption ticket, and the untrusted
        # board is refused once, so the first measured op of each kind
        # meets warm tables and a populated appraisal cache.
        for index in range(FLEET_BOARDS):
            self._warm({"kind": "first-contact", "board": index})
        self._warm({"kind": "untrusted", "board": FLEET_BOARDS})

    def ops(self) -> Iterator[dict]:
        for kind in _deck(self.rng, FLEET_DECK):
            board = FLEET_BOARDS if kind == "untrusted" \
                else self.rng.randrange(FLEET_BOARDS)
            yield {"kind": kind, "board": board}

    def _handshake(self, stack) -> bytes:
        connection = self.testbed.network.connect(HOST, PORT)
        try:
            attester = stack.attester
            session = attester.start_session(self._identity.public_bytes())
            connection.send(attester.make_msg0(session))
            attester.handle_msg1(session, connection.receive())
            signed = attester.collect_evidence(
                session.anchor, stack.claim,
                stack.device.attestation_public_key, stack.sign_evidence,
                boot_claim=stack.device.kernel.boot_measurement)
            connection.send(attester.make_msg2(session, signed))
            return attester.handle_msg3(session, connection.receive())
        finally:
            connection.close()

    def run_op(self, op: dict) -> Optional[str]:
        from repro.errors import MeasurementMismatch

        stack = self._stacks[op["board"]]
        kind = op["kind"]
        if kind == "returning":
            if stack.attester is None or stack.attester.resumption_key is None:
                return f"board {op['board']} has no resumption ticket"
        else:
            stack.attester = self._fresh_attester(op["board"])
        if kind == "untrusted":
            try:
                self._handshake(stack)
            except MeasurementMismatch:
                return None
            return "untrusted board was not refused"
        secret = self._handshake(stack)
        if secret != self._secret:
            return (f"secret mismatch: {len(secret)} bytes, "
                    f"sha256 {hashlib.sha256(secret).hexdigest()[:16]}")
        return None

    def clocks(self) -> list:
        return [self._gateway_device.soc.clock] + \
            [stack.device.soc.clock for stack in self._stacks]

    def counters(self) -> dict:
        counters = super().counters()
        snapshot = self.gateway.snapshot()
        metrics = snapshot["counters"]
        cache = snapshot["cache"]
        counters["gateway"] = {
            "handshakes": metrics.get("handshakes_completed", 0),
            "refusals": metrics.get("failed_messages", 0),
            "batch_verified": metrics.get("batch_verified", 0),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
        }
        return counters

    def close(self) -> None:
        self.gateway.stop()


# --- attested-ml ------------------------------------------------------------------


def _ml_reference(records, init_seed: int) -> dict:
    """Independent answer: the pure-Python Genann on the same records."""
    from repro.workloads.genann.python_impl import accuracy, train_classifier

    network = train_classifier(records, epochs=1, rate=ML_RATE,
                               seed=init_seed)
    checksum = 0.0
    for weight in network.weights:  # left to right, as the Wasm build sums
        checksum = checksum + weight
    return {"checksum": checksum, "accuracy": accuracy(network, records)}


def _probe_offsets(size: int, rng: random.Random) -> List[int]:
    """Dataset offsets read back from Wasm memory after ``attest``.

    Both ends, each side of every msg3 chunk boundary (``receive_data``
    places the dataset chunk by chunk) and of the midpoint (where a
    two-way bulk GCM split falls), and one seeded offset per quarter, so
    the probes span the whole blob, past 128 KiB and past 256 KiB.
    """
    from repro.core.protocol import MSG3_CHUNK_SIZE

    offsets = {0, size - 1, size // 2 - 1, size // 2}
    for boundary in range(MSG3_CHUNK_SIZE, size, MSG3_CHUNK_SIZE):
        offsets |= {boundary - 1, boundary}
    quarter = size // 4
    offsets |= {part * quarter + rng.randrange(quarter) for part in range(4)}
    return sorted(offsets)


def ml_inputs(seed: int) -> dict:
    from repro.crypto import ecdsa
    from repro.workloads.datasets import RECORD_SIZE, dataset_of_size, \
        decode_records
    from repro.workloads.genann.wasm_impl import build_attested_ann

    identity = ecdsa.keypair_from_seed_stream(drbg(f"ml-identity/{seed}"))
    rng = random.Random(f"attested-ml-inputs/{seed}")
    span = (ML_MAX_BYTES - ML_MIN_BYTES) // ML_POOL
    pool = []
    for index in range(ML_POOL):
        # One size per 12 KiB stratum of [192, 288) KiB, so every pool
        # has sizes on both sides of 256 KiB whatever the seed.
        target = ML_MIN_BYTES + index * span + rng.randrange(span)
        data_seed = rng.randrange(1, 1 << 30)
        init_seed = rng.randrange(1, 1 << 30)
        dataset = dataset_of_size(target, seed=data_seed)
        records = decode_records(dataset[:ML_RECORDS * RECORD_SIZE])
        offsets = _probe_offsets(len(dataset), random.Random(
            f"attested-ml-probes/{seed}/{index}"))
        pool.append({"dataset": dataset, "init_seed": init_seed,
                     "probes": [[offset, dataset[offset]]
                                for offset in offsets],
                     **_ml_reference(records, init_seed)})
    app = build_attested_ann(identity.public_bytes(), HOST, PORT,
                             data_capacity=ML_CAPACITY)
    return {"seed": seed, "app": app, "pool": pool}


class AttestedMl(Workload):
    """The paper's §VI-F job: attest, receive a dataset, train, score."""

    name = "attested-ml"
    group_key = "item"

    def setup(self) -> None:
        from repro.core import VerifierPolicy, measure_bytes, start_verifier
        from repro.crypto import ecdsa

        testbed = self._make_testbed()
        self._app = self.inputs["app"]
        self._pool = self.inputs["pool"]
        identity = ecdsa.keypair_from_seed_stream(
            drbg(f"ml-identity/{self.seed}"))
        self._verifier_device = testbed.create_device()
        self._device = testbed.create_device()
        policy = VerifierPolicy()
        policy.endorse(self._device.attestation_public_key)
        policy.trust_boot_measurement(self._device.kernel.boot_measurement)
        policy.trust_measurement(measure_bytes(self._app).digest)
        self._current = None
        start_verifier(testbed.network, HOST, PORT,
                       self._verifier_device.client, testbed.vendor_key,
                       identity, policy, lambda: self._current["dataset"])

    def warmup(self) -> None:
        # The first job fills the code cache; the second runs warm.
        for index in range(2):
            self._warm({"item": index})

    def ops(self) -> Iterator[dict]:
        for item in _deck(self.rng, range(ML_POOL)):
            yield {"item": item}

    def run_op(self, op: dict) -> Optional[str]:
        from repro.core import CMD_UNLOAD

        item = self._pool[op["item"]]
        self._current = item
        device = self._device
        session = device.open_watz(heap_size=ML_HEAP)
        try:
            handle = device.load_wasm(session, self._app)["app"]
            received = device.run_wasm(session, handle, "attest")
            if received != len(item["dataset"]):
                return (f"attest returned {received}, expected "
                        f"{len(item['dataset'])} bytes")
            for offset, expected in item["probes"]:
                byte = device.run_wasm(session, handle, "secret_byte", offset)
                if byte != expected:
                    return (f"dataset byte {offset} reads {byte}, reference "
                            f"{expected}")
            device.run_wasm(session, handle, "ann_init", item["init_seed"])
            trained = device.run_wasm(session, handle, "ann_train",
                                      ML_RECORDS, 1, ML_RATE)
            correct = device.run_wasm(session, handle, "ann_accuracy",
                                      ML_RECORDS)
            checksum = device.run_wasm(session, handle,
                                       "ann_weight_checksum")
            session.invoke(CMD_UNLOAD, {"app": handle})
        finally:
            session.close()
        if trained != ML_RECORDS:
            return f"ann_train trained {trained} of {ML_RECORDS} records"
        if struct.pack("<d", checksum) != struct.pack("<d", item["checksum"]):
            return (f"weight checksum {checksum!r} != reference "
                    f"{item['checksum']!r}")
        if correct / ML_RECORDS != item["accuracy"]:
            return (f"accuracy {correct}/{ML_RECORDS} != reference "
                    f"{item['accuracy']!r}")
        return None

    def clocks(self) -> list:
        return [self._verifier_device.soc.clock, self._device.soc.clock]


# --- cold-deploy -------------------------------------------------------------------


def cold_inputs(seed: int) -> dict:
    from repro.walc import compile_source
    from repro.workloads.polybench import all_kernels

    sentinel = sleb128(BUILD_ID_SENTINEL)
    kernels = []
    for kernel in all_kernels():
        size = max(1, kernel.default_size // 4)
        source = kernel.walc_source(size) + (
            "\nexport fn build_id() -> i32 { return "
            f"{BUILD_ID_SENTINEL}; }}\n")
        binary = compile_source(source)
        offset = binary.find(sentinel)
        if offset < 0 or binary.find(sentinel, offset + 1) >= 0:
            raise RuntimeError(
                f"{kernel.name}: build-id constant is not unique in the binary")
        kernels.append({"name": kernel.name, "size": size, "binary": binary,
                        "offset": offset, "checksum": kernel.native(size)})
    return {"seed": seed, "kernels": kernels}


class ColdDeploy(Workload):
    """Deploy, run and unload a never-seen build of a PolyBench kernel."""

    name = "cold-deploy"
    group_key = "kernel"

    def setup(self) -> None:
        testbed = self._make_testbed()
        self._kernels = self.inputs["kernels"]
        self._device = testbed.create_device()
        self._session = self._device.open_watz(heap_size=COLD_HEAP)
        self._ids = random.Random(f"cold-deploy-ids/{self.seed}")
        self._used = set()

    def _build_id(self) -> int:
        while True:
            value = self._ids.randrange(BUILD_ID_MIN, BUILD_ID_MAX)
            if value not in self._used:
                self._used.add(value)
                return value

    def warmup(self) -> None:
        for index in range(3):
            self._warm({"kernel": index, "build_id": self._build_id()})

    def ops(self) -> Iterator[dict]:
        for kernel in _deck(self.rng, range(len(self._kernels))):
            yield {"kernel": kernel, "build_id": self._build_id()}

    def run_op(self, op: dict) -> Optional[str]:
        from repro.core import CMD_UNLOAD

        kernel = self._kernels[op["kernel"]]
        offset = kernel["offset"]
        binary = kernel["binary"]
        patched = binary[:offset] + sleb128(op["build_id"]) + \
            binary[offset + 5:]
        device, session = self._device, self._session
        handle = device.load_wasm(session, patched)["app"]
        try:
            checksum = device.run_wasm(session, handle, "run")
            build_id = device.run_wasm(session, handle, "build_id")
        finally:
            session.invoke(CMD_UNLOAD, {"app": handle})
        if struct.pack("<d", checksum) != struct.pack("<d",
                                                      kernel["checksum"]):
            return (f"{kernel['name']}: checksum {checksum!r} != native "
                    f"{kernel['checksum']!r}")
        if build_id != op["build_id"]:
            return (f"{kernel['name']}: build id {build_id} != "
                    f"{op['build_id']}")
        return None

    def clocks(self) -> list:
        return [self._device.soc.clock]

    def close(self) -> None:
        self._session.close()


WORKLOADS: Dict[str, tuple] = {
    FleetAttest.name: (fleet_inputs, FleetAttest),
    AttestedMl.name: (ml_inputs, AttestedMl),
    ColdDeploy.name: (cold_inputs, ColdDeploy),
}


def make_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload][0](seed)


def make_workload(workload: str, inputs: dict) -> Workload:
    return WORKLOADS[workload][1](inputs)

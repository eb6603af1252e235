"""Testbed assembly: one call builds the paper's experimental setup.

Manufactures a SoC (fuses the OTPMK and boot key), secure-boots it, starts
OP-TEE with the attestation service, attaches a supplicant to the shared
in-process network, and installs the WaTZ runtime TA. Tests, examples and
benchmarks all build on this instead of repeating the ceremony.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.runtime import (
    CMD_INVOKE,
    CMD_LOAD,
    CMD_STDOUT,
    LoadedApp,
    WatzRuntime,
)
from repro.core.transport import Network
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.hw import SoC, sign_stage
from repro.hw.costs import CostModel, DEFAULT_COSTS
from repro.optee import (
    KernelRng,
    OpTeeClient,
    OpTeeKernel,
    Supplicant,
    TaManifest,
    TaSession,
    sign_ta,
)

#: Deterministic vendor signing key for the simulated platform vendor.
VENDOR_PRIVATE = int.from_bytes(sha256(b"watz-repro vendor key"), "big") >> 1

BOOT_STAGES = ("spl", "arm-trusted-firmware", "op-tee")


def _device_secret(serial: int) -> bytes:
    """A per-device OTPMK, unique per serial (fused at manufacturing)."""
    return sha256(b"otpmk" + serial.to_bytes(8, "big"))


@dataclass
class Device:
    """One booted board: SoC + OP-TEE + client + supplicant."""

    serial: int
    soc: SoC
    kernel: OpTeeKernel
    client: OpTeeClient
    network: Network
    vendor_key: ecdsa.KeyPair
    _watz_images: Dict[int, str] = field(default_factory=dict)

    @property
    def attestation_public_key(self) -> bytes:
        return self.kernel.attestation_service.public_key_bytes

    # -- WaTZ management -------------------------------------------------------

    def install_watz(self, heap_size: int,
                     engine: str = "aot") -> str:
        """Install a WaTZ runtime TA image with the given heap size.

        TAs declare heap/stack at compile time (paper §VI-A); installing
        per-heap images mirrors the paper recompiling the TA per benchmark.
        """
        key = (heap_size, engine)
        cached = self._watz_images.get(key)
        if cached is not None:
            return cached
        uuid = f"watz-runtime-{heap_size}-{engine}"
        manifest = TaManifest(uuid=uuid, name="watz",
                              heap_size=heap_size)
        runtime_class = type(
            f"WatzRuntime_{engine}", (WatzRuntime,),
            {"engine_name": engine},
        )
        image = sign_ta(manifest, b"watz runtime payload",
                        runtime_class, self.vendor_key)
        self.kernel.install_ta(image)
        self._watz_images[key] = uuid
        return uuid

    def open_watz(self, heap_size: int, engine: str = "aot") -> TaSession:
        uuid = self.install_watz(heap_size, engine)
        return self.client.open_session(uuid)

    def load_wasm(self, session: TaSession, bytecode: bytes,
                  **load_params) -> dict:
        """Stage bytecode in shared memory and load it into WaTZ."""
        buffer = self.client.allocate_shared_memory(len(bytecode))
        buffer.write(0, bytecode)
        try:
            result = session.invoke(CMD_LOAD, {
                "bytecode": buffer,
                "size": len(bytecode),
                **load_params,
            })
        finally:
            buffer.free()
        return result

    def run_wasm(self, session: TaSession, app_handle: int,
                 function: str, *args):
        result = session.invoke(CMD_INVOKE, {
            "app": app_handle, "function": function, "args": args,
        })
        return result["result"]

    def read_stdout(self, session: TaSession, app_handle: int) -> str:
        return session.invoke(CMD_STDOUT, {"app": app_handle})["stdout"]


class Testbed:
    """A shared network plus any number of manufactured devices."""

    __test__ = False  # not a pytest collection target

    def __init__(self, costs: CostModel = DEFAULT_COSTS,
                 deterministic_rng: bool = False,
                 first_serial: int = 1) -> None:
        self.network = Network()
        self.costs = costs
        self.vendor_key = ecdsa.keypair_from_private(VENDOR_PRIVATE)
        # ``first_serial`` pins the serial (and, with deterministic_rng,
        # the entropy stream) of the next manufactured board, so a run
        # can rebuild the very boards an earlier run used (attestbench
        # gives each seed its own serial range).
        self._next_serial = first_serial
        self._deterministic = deterministic_rng

    def _entropy_source(self, serial: int):
        if not self._deterministic:
            return None
        state = {"counter": 0}

        def entropy(size: int) -> bytes:
            state["counter"] += 1
            seed = f"entropy/{serial}/{state['counter']}".encode()
            out = b""
            while len(out) < size:
                out += hashlib.sha256(seed + len(out).to_bytes(4, "big")).digest()
            return out[:size]

        return entropy

    def create_device(self, allow_executable_pages: bool = True) -> Device:
        """Manufacture, provision and boot one board."""
        serial = self._next_serial
        self._next_serial += 1
        soc = SoC(self.costs)
        soc.provision(
            otpmk=_device_secret(serial),
            boot_key_hash=sha256(self.vendor_key.public_bytes()),
        )
        stages = [
            sign_stage(name, f"{name} image v1".encode(), self.vendor_key)
            for name in BOOT_STAGES
        ]
        soc.secure_boot(self.vendor_key.public_bytes(), stages)
        rng = KernelRng(self._entropy_source(serial))
        kernel = OpTeeKernel(soc, self.vendor_key.public, rng=rng,
                             allow_executable_pages=allow_executable_pages)
        kernel.attach_supplicant(Supplicant(soc, self.network))
        client = OpTeeClient(kernel)
        return Device(
            serial=serial,
            soc=soc,
            kernel=kernel,
            client=client,
            network=self.network,
            vendor_key=self.vendor_key,
        )

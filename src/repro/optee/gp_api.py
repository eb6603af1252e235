"""GlobalPlatform TEE Internal API subset, plus client-side (TEEC) API.

Two halves:

* :class:`GpInternalApi` — what a trusted application sees: accounted
  heap, nanosecond system time (the paper's extension to ``TEE_Time``),
  randomness, GP sockets (redirected to the normal world through the
  supplicant), and the WaTZ-specific kernel extensions (executable pages,
  attestation signing).
* :class:`OpTeeClient` — the normal-world client API: shared-memory
  registration, session open/close, command invocation. Every invocation
  pays the world-transition costs of Fig. 3b.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import TeeAccessDenied, TeeBadParameters, TeeOutOfMemory
from repro.hw.caam import World
from repro.optee.kernel import ExecutableRegion, OpTeeKernel
from repro.optee.sharedmem import SharedBuffer
from repro.optee.ta import TaManifest, TrustedApplication

#: Granularity of the world-shared bounce-buffer copy (matches the msg3
#: streaming pipeline's ``protocol.MSG3_CHUNK_SIZE``): received payloads
#: cross into secure memory chunk by chunk, exactly once.
SHARED_COPY_CHUNK = 128 * 1024


def _charge_shared_copy(soc, size: int, chunk: int = SHARED_COPY_CHUNK) -> None:
    """Advance the SimClock for a chunkwise world-shared copy.

    Charges each chunk as the difference of cumulative ``shared_copy_ns``
    values, so the telescoping sum is byte-identical to the old one-shot
    charge despite the cost model's integer division.
    """
    previous = 0
    end = 0
    while True:
        end = min(size, end + chunk)
        cumulative = soc.costs.shared_copy_ns(end)
        soc.clock.advance(cumulative - previous)
        previous = cumulative
        if end >= size:
            break


class GpInternalApi:
    """Per-session service interface handed to a TA."""

    def __init__(self, kernel: OpTeeKernel, manifest: TaManifest) -> None:
        self._kernel = kernel
        self.manifest = manifest
        # The TA's declared heap is reserved from the secure heap for the
        # whole session (TAs size it at compile time, §VI-A); stacks live
        # in separate per-thread TA RAM and do not count against the cap —
        # the paper's 17 MB + 10 MB attester/verifier split fills the
        # 27 MB heap exactly.
        kernel.secure_alloc(manifest.heap_size)
        self._released = False
        self._heap_used = 0
        self._sockets: Dict[int, int] = {}  # ta handle -> supplicant handle
        self._next_socket = 1

    # -- memory -------------------------------------------------------------------

    def tee_malloc(self, size: int) -> int:
        """Account an allocation inside the TA's declared heap."""
        if size < 0:
            raise TeeBadParameters("negative allocation")
        if self._heap_used + size > self.manifest.heap_size:
            raise TeeOutOfMemory(
                f"TA {self.manifest.name!r} heap exhausted: "
                f"{self._heap_used + size} > {self.manifest.heap_size} bytes"
            )
        self._heap_used += size
        return self._heap_used

    def tee_free(self, size: int) -> None:
        self._heap_used = max(0, self._heap_used - size)

    @property
    def heap_used(self) -> int:
        return self._heap_used

    @property
    def heap_free(self) -> int:
        return self.manifest.heap_size - self._heap_used

    def alloc_executable(self, size: int) -> ExecutableRegion:
        """WaTZ extension: executable pages for AOT Wasm bytecode.

        The backing memory counts against the TA's own heap; the syscall
        flips the page protections.
        """
        self.tee_malloc(size)
        return self._kernel.map_executable_pages(size)

    def free_executable(self, region: ExecutableRegion) -> None:
        self._kernel.unmap_executable_pages(region)
        self.tee_free(region.size)

    def release(self) -> None:
        """Session teardown: return the reserved memory."""
        if not self._released:
            self._kernel.secure_free(self.manifest.heap_size)
            self._released = True

    # -- platform cost hooks -----------------------------------------------------------

    def charge_ns(self, delta_ns: int) -> None:
        """Advance the simulated clock (architectural latency accounting)."""
        self._kernel.soc.clock.advance(delta_ns)

    @property
    def costs(self):
        return self._kernel.soc.costs

    # -- time ----------------------------------------------------------------------

    def get_system_time_ns(self) -> int:
        """Nanosecond monotonic time (the paper's TEE_Time extension)."""
        self._kernel.soc.require_world(World.SECURE)
        return self._kernel.soc.read_monotonic_ns()

    # -- randomness -----------------------------------------------------------------

    def generate_random(self, size: int) -> bytes:
        return self._kernel.rng.random_bytes(size)

    # -- GP Trusted Storage (per-TA persistent objects) ---------------------------------

    def storage_put(self, object_id: str, payload: bytes) -> None:
        """Create or replace a persistent object owned by this TA."""
        self._kernel.trusted_storage.put(self.manifest.uuid, object_id,
                                         payload)

    def storage_get(self, object_id: str) -> bytes:
        return self._kernel.trusted_storage.get(self.manifest.uuid,
                                                object_id)

    def storage_delete(self, object_id: str) -> None:
        self._kernel.trusted_storage.delete(self.manifest.uuid, object_id)

    def storage_exists(self, object_id: str) -> bool:
        return self._kernel.trusted_storage.exists(self.manifest.uuid,
                                                   object_id)

    def storage_list(self):
        return self._kernel.trusted_storage.list_ids(self.manifest.uuid)

    # -- WaTZ attestation extension ----------------------------------------------------

    def attestation_public_key(self) -> bytes:
        return self._kernel.attestation_service.public_key_bytes

    def boot_measurement(self) -> bytes:
        """The measured-boot claim (§VII extension)."""
        return self._kernel.boot_measurement

    def attestation_sign(self, evidence_bytes: bytes) -> bytes:
        """Forward claims to the kernel attestation service for signing."""
        return self._kernel.attestation_service.sign_evidence(evidence_bytes)

    @property
    def optee_version(self) -> str:
        return self._kernel.version

    # -- GP sockets (TCP over the supplicant) ----------------------------------------------

    def _socket_rpc(self, operation, payload_size: int = 0):
        soc = self._kernel.soc
        soc.require_world(World.SECURE)
        _charge_shared_copy(soc, payload_size)
        with soc.rpc_to_normal_world():
            return self._roundtrip(operation)

    def _roundtrip(self, operation):
        """The supplicant's socket operation, run in the normal world."""
        soc = self._kernel.soc
        soc.clock.advance(soc.costs.socket_roundtrip_ns)
        return operation()

    def tcp_connect(self, host: str, port: int) -> int:
        supplicant = self._kernel.require_supplicant()
        remote = self._socket_rpc(lambda: supplicant.connect(host, port))
        handle = self._next_socket
        self._next_socket += 1
        self._sockets[handle] = remote
        return handle

    def tcp_send(self, handle: int, data: bytes) -> None:
        supplicant = self._kernel.require_supplicant()
        remote = self._socket_handle(handle)
        self._socket_rpc(lambda: supplicant.send(remote, data), len(data))

    def tcp_receive(self, handle: int) -> bytes:
        supplicant = self._kernel.require_supplicant()
        remote = self._socket_handle(handle)
        data = self._socket_rpc(lambda: supplicant.receive(remote))
        _charge_shared_copy(self._kernel.soc, len(data))
        return data

    def tcp_close(self, handle: int) -> None:
        supplicant = self._kernel.require_supplicant()
        remote = self._sockets.pop(handle, None)
        if remote is not None:
            self._socket_rpc(lambda: supplicant.close(remote))

    def _socket_handle(self, handle: int) -> int:
        remote = self._sockets.get(handle)
        if remote is None:
            raise TeeBadParameters(f"unknown socket handle {handle}")
        return remote


class TaSession:
    """An open client session with a TA instance in the secure world."""

    def __init__(self, client: "OpTeeClient", ta: TrustedApplication,
                 api: GpInternalApi) -> None:
        self._client = client
        self.ta = ta
        self.api = api
        self._open = True

    def invoke(self, command: int, params: Optional[dict] = None) -> dict:
        """Invoke a TA command, paying the world-transition costs."""
        if not self._open:
            raise TeeAccessDenied("session is closed")
        with self._client.kernel.soc.enter_secure_world():
            return self.ta.invoke(command, params or {})

    def close(self) -> None:
        if not self._open:
            return
        with self._client.kernel.soc.enter_secure_world():
            self.ta.close_session()
            self.api.release()
        self._open = False


class OpTeeClient:
    """The normal-world GP client API (TEEC_*)."""

    def __init__(self, kernel: OpTeeKernel) -> None:
        self.kernel = kernel

    def allocate_shared_memory(self, size: int) -> SharedBuffer:
        """Register a world-shared buffer (normal world side)."""
        self.kernel.soc.require_world(World.NORMAL)
        return self.kernel.shared_memory.allocate(size)

    def open_session(self, uuid: str) -> TaSession:
        """Open a session: loads and verifies the TA, pays transition costs."""
        self.kernel.soc.require_world(World.NORMAL)
        image = self.kernel.ta_image(uuid)
        with self.kernel.soc.enter_secure_world():
            api = GpInternalApi(self.kernel, image.manifest)
            ta = image.factory()
            ta.manifest = image.manifest
            ta.open_session(api)
        return TaSession(self, ta, api)

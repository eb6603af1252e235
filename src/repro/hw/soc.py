"""The simulated system-on-chip.

Binds together the fuses, the CAAM, the boot ROM, the virtual clock and
the TrustZone security-state machine. Software layers (OP-TEE, WaTZ)
receive a :class:`SoC` and interact with hardware only through it, which
is what lets the test suite model the paper's threat scenarios (tampered
boot images, normal-world probing of secure resources).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import SecureBootError, WorldError
from repro.hw.bootrom import BootReport, BootRom, StageImage
from repro.hw.caam import Caam, World
from repro.hw.clock import SimClock
from repro.hw.counters import MonotonicCounters
from repro.hw.costs import DEFAULT_COSTS, CostModel
from repro.hw.fuses import EFuses


class SoC:
    """An i.MX-8MQ-like SoC with TrustZone, a root of trust and secure boot."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS) -> None:
        self.costs = costs
        self.clock = SimClock()
        self.fuses = EFuses()
        self.caam = Caam(self.fuses)
        self.boot_rom = BootRom(self.fuses)
        self.monotonic = MonotonicCounters(self)
        self.current_world = World.NORMAL
        self.boot_report: Optional[BootReport] = None

    # -- manufacturing -----------------------------------------------------------

    def provision(self, otpmk: bytes, boot_key_hash: bytes) -> None:
        """Manufacturing step: fuse the master key and the boot key hash."""
        self.fuses.program_otpmk(otpmk)
        self.fuses.boot_key_hash.program(boot_key_hash)

    # -- boot --------------------------------------------------------------------

    def secure_boot(self, vendor_public_key_bytes: bytes,
                    stages: List[StageImage]) -> BootReport:
        """Run the chain of trust; leaves the CPU in the secure world."""
        report = self.boot_rom.boot(vendor_public_key_bytes, stages)
        self.boot_report = report
        # The boot chain hands control to the trusted OS in the secure world.
        self.current_world = World.SECURE
        return report

    @property
    def securely_booted(self) -> bool:
        return self.boot_report is not None

    # -- world transitions ----------------------------------------------------------

    def require_world(self, world: World) -> None:
        if self.current_world != world:
            raise WorldError(
                f"operation requires the {world.value} world, CPU is in the "
                f"{self.current_world.value} world"
            )

    @contextmanager
    def enter_secure_world(self) -> Iterator[None]:
        """A full normal->secure invocation (GP client API path).

        Charges ``world_enter_ns``/``world_return_ns`` step by step, one
        method per Fig. 3b component, so each step is an entry point that
        :mod:`repro.obs` can time from outside.
        """
        self.require_world(World.NORMAL)
        if not self.securely_booted:
            raise SecureBootError("secure world is not booted")
        self._optee_driver()
        self._smc_enter()
        self._session_dispatch()
        self.current_world = World.SECURE
        try:
            yield
        finally:
            self._smc_exit()
            self._return_path()
            self.current_world = World.NORMAL

    @contextmanager
    def rpc_to_normal_world(self) -> Iterator[None]:
        """A lightweight kernel RPC from the secure world (no session)."""
        self.require_world(World.SECURE)
        self._kernel_rpc()
        self.current_world = World.NORMAL
        try:
            yield
        finally:
            self.current_world = World.SECURE

    def _optee_driver(self) -> None:
        self.clock.advance(self.costs.optee_driver_ns)

    def _smc_enter(self) -> None:
        self.clock.advance(self.costs.smc_ns)

    def _session_dispatch(self) -> None:
        self.clock.advance(self.costs.session_dispatch_ns)

    def _smc_exit(self) -> None:
        self.clock.advance(self.costs.smc_ns)

    def _return_path(self) -> None:
        self.clock.advance(self.costs.return_path_ns)

    def _kernel_rpc(self) -> None:
        self.clock.advance(self.costs.kernel_rpc_ns)

    def _clock_read(self) -> None:
        self.clock.advance(self.costs.clock_read_ns)

    # -- clock access -----------------------------------------------------------------

    def read_monotonic_ns(self) -> int:
        """Read the REE monotonic clock from the *current* world.

        From the normal world this is a cheap syscall; from the secure
        world it pays the kernel-RPC path the paper added to OP-TEE.
        """
        if self.current_world == World.NORMAL:
            self._clock_read()
            return self.clock.now_ns()
        with self.rpc_to_normal_world():
            self._clock_read()
            return self.clock.now_ns()

    # -- root of trust -------------------------------------------------------------------

    def master_key_blob(self) -> bytes:
        """The world-specific MKVB for the current security state."""
        return self.caam.master_key_verification_blob(self.current_world)

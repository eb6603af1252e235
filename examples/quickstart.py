#!/usr/bin/env python3
"""Quickstart: boot a device, load a Wasm application into WaTZ, run it.

Walks the minimal path through the public API:

1. manufacture and securely boot a simulated TrustZone device;
2. compile a small program to WebAssembly with walc;
3. load it into the WaTZ runtime TA (it is measured on the way in),
   observing the load from outside to split its startup into Fig. 4's
   phases;
4. invoke its exports and read its WASI stdout.
"""

from repro.obs import Tracer, TraceAnalyzer
from repro.testbed import Testbed
from repro.walc import compile_source

SOURCE = """
memory 1;
import fn wasi_snapshot_preview1.fd_write(a: i32, b: i32, c: i32, d: i32) -> i32;
data 256 (104, 101, 108, 108, 111, 32, 102, 114, 111, 109, 32, 116, 104,
          101, 32, 115, 101, 99, 117, 114, 101, 32, 119, 111, 114, 108,
          100, 33, 10);

export fn greet() -> i32 {
  store_i32(0, 256);   // iovec base
  store_i32(4, 29);    // iovec length
  return fd_write(1, 0, 1, 16);
}

export fn fib(n: i32) -> i32 {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
"""


def main() -> None:
    # One call sets up the whole platform: fused OTPMK, secure boot,
    # OP-TEE with the attestation service, a tee-supplicant.
    testbed = Testbed()
    device = testbed.create_device()
    print(f"device #{device.serial} booted; boot chain: "
          f"{', '.join(device.soc.boot_report.stages)}")

    binary = compile_source(SOURCE)
    print(f"compiled {len(binary)} bytes of Wasm")

    # The WaTZ TA declares its heap at compile time (paper §VI-A).
    session = device.open_watz(heap_size=4 * 1024 * 1024)
    tracer = Tracer(sim_now=device.soc.clock.now_ns)
    with tracer.observe(device.soc):
        loaded = device.load_wasm(session, binary)
    print(f"loaded; code measurement = {loaded['measurement'][:32]}…")

    (phases,) = TraceAnalyzer(tracer.spans()).startup_phases()
    total = sum(phases.values())
    print("startup breakdown:",
          ", ".join(f"{name} {seconds / total * 100:.1f}%"
                    for name, seconds in phases.items()
                    if seconds / total > 0.005))

    app = loaded["app"]
    device.run_wasm(session, app, "greet")
    print("Wasm app wrote:", device.read_stdout(session, app).strip())
    print("fib(20) =", device.run_wasm(session, app, "fib", 20))

    print(f"simulated platform time consumed: "
          f"{device.soc.clock.now_ns() / 1e6:.2f} ms")
    session.close()


if __name__ == "__main__":
    main()

"""Host-call record/replay: deterministic standalone Wasm benchmarks."""

import pytest

from repro.obs import (HostCallLog, ReplayMismatch, record_host_calls,
                       replay_imports, replay_run)
from repro.walc import compile_source
from repro.wasi import WasiEnvironment, build_wasi_imports
from repro.wasm import AotCompiler, Interpreter

_APP = """
memory 1;
import fn wasi_snapshot_preview1.clock_time_get(a: i32, b: i64, c: i32) -> i32;
import fn wasi_snapshot_preview1.random_get(a: i32, b: i32) -> i32;
import fn wasi_snapshot_preview1.fd_write(a: i32, b: i32, c: i32, d: i32) -> i32;
data 100 (104, 105);  // "hi"

export fn run() -> i64 {
  clock_time_get(1, 1L, 64);       // host writes the time at 64
  random_get(80, 4);               // host writes 4 random bytes at 80
  store_i32(0, 100);               // iov: base=100 len=2
  store_i32(4, 2);
  fd_write(1, 0, 1, 16);
  return load_i64(64) + load_i64(80);
}
"""


def _nondeterministic_env():
    ticks = [1000]

    def clock_ns():
        ticks[0] += 777
        return ticks[0]

    draws = [b"\x2a\x00\x00\x01", b"\x09\x08\x07\x06"]
    return WasiEnvironment(clock_ns=clock_ns,
                           random_bytes=lambda n: draws.pop(0)[:n])


def _record(binary):
    env = _nondeterministic_env()
    imports, log = record_host_calls(build_wasi_imports(env))
    instance = AotCompiler().instantiate(binary, imports)
    result = instance.invoke("run")
    return env, log, result


def test_recording_does_not_change_behaviour():
    binary = compile_source(_APP)
    env, log, result = _record(binary)
    assert env.stdout_text() == "hi"
    # clock, random and fd_write each crossed the boundary once.
    assert [call.name for call in log.calls] == [
        "clock_time_get", "random_get", "fd_write"]
    # The host's memory writes were captured (time at 64, random at 80,
    # plus fd_write's nwritten).
    assert any(address == 64 for address, _ in log.calls[0].writes)
    assert any(address == 80 for address, _ in log.calls[1].writes)


def test_replay_reproduces_the_run_without_a_host():
    binary = compile_source(_APP)
    _, log, original = _record(binary)
    # Replay twice: the log makes the run fully deterministic.
    assert replay_run(binary, log, "run") == original
    assert replay_run(binary, log, "run") == original


def test_replay_survives_json_roundtrip():
    binary = compile_source(_APP)
    _, log, original = _record(binary)
    revived = HostCallLog.from_json(log.to_json())
    assert len(revived) == len(log)
    assert replay_run(binary, revived, "run") == original


def test_replay_detects_argument_divergence():
    binary = compile_source(_APP)
    _, log, _ = _record(binary)
    log.calls[0].args = (99, 1, 64)  # pretend a different clock id ran
    with pytest.raises(ReplayMismatch, match="recorded args"):
        replay_run(binary, log, "run")


def test_replay_detects_call_order_divergence():
    binary = compile_source(_APP)
    _, log, _ = _record(binary)
    log.calls[0], log.calls[1] = log.calls[1], log.calls[0]
    with pytest.raises(ReplayMismatch, match="replay invoked"):
        replay_run(binary, log, "run")


def test_replay_exhausted_log_is_a_mismatch():
    binary = compile_source(_APP)
    _, log, _ = _record(binary)
    log.calls = log.calls[:1]
    with pytest.raises(ReplayMismatch, match="exhausted"):
        replay_run(binary, log, "run")


def test_recorded_proc_exit_replays_as_exit_code():
    source = """
memory 1;
import fn wasi_snapshot_preview1.proc_exit(a: i32);
export fn run() -> i32 { proc_exit(7); return 0; }
"""
    binary = compile_source(source)
    env = WasiEnvironment()
    imports, log = record_host_calls(build_wasi_imports(env))
    instance = Interpreter().instantiate(binary, imports)
    from repro.wasi import ProcExit

    with pytest.raises(ProcExit):
        instance.invoke("run")
    assert log.calls[-1].raised == ("ProcExit", 7)
    assert replay_run(binary, log, "run") == 7


def test_replay_namespace_satisfies_the_declared_surface():
    binary = compile_source(_APP)
    _, log, _ = _record(binary)
    namespace = replay_imports(log)
    declared = log.declared["wasi_snapshot_preview1"]
    assert set(namespace["wasi_snapshot_preview1"]) == set(declared)

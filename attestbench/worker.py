"""One workload in a fresh interpreter: set up, then run ops.

Started by ``run.py`` with the pickled inputs on stdin; prints one JSON
object on its last stdout line. Modes:

* ``setup``   — set up (imports, boards, services, warm-up) and stop;
* ``measure`` — set up, then a closed loop for ``--seconds``, untraced;
* ``trace``   — the same loop, every other op under the layer wrappers;
* ``replay``  — exactly ``--quota`` ops untraced (the same-path check and
  the fixed-quota self-tests).

``--t0`` is the parent's ``time.monotonic()`` just before it spawned this
process; CLOCK_MONOTONIC is system-wide on Linux, so ``setup_s`` spans
the interpreter start too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

#: First failures reported verbatim.
MAX_FAILURES_SHOWN = 5
#: Work in one speed probe: 0.3-0.6 ms of CPU on a 2-vCPU cloud VM,
#: depending on how fast the host runs at the time.
PROBE_ITERATIONS = 1500
#: Speed probes taken at each end of a set-up.
SETUP_PROBES = 5


class _ProbeWork:
    """The fixed work a speed probe repeats.

    A method call, attribute reads, integer arithmetic and a list update:
    the staples of the program's Python. The table lives as long as the
    process, so a probe allocates nothing and never meets the page faults
    of a freshly grown heap.
    """

    def __init__(self) -> None:
        self.table = [0] * 1024
        self.scale = 31

    def step(self, value: int, i: int) -> int:
        value = (value * self.scale + i) & 0xFFFFFFFF
        self.table[value & 1023] += 1
        return value


_PROBE_WORK = _ProbeWork()


def speed_probe_ms() -> float:
    """CPU time of the calling thread for a fixed block of pure-Python work.

    The host this runs on changes speed by up to 2x within seconds (other
    tenants, shared cores), and both wall and CPU time of the program
    follow it. Probes just before and just after an op read the speed
    the op ran at, so ``run.py`` can express its times at one fixed host
    speed. Thread CPU time leaves out preemption and waits for the GIL,
    so the program's own threads cannot slow a probe down, and with the
    collector paused a probe never pays for the program's garbage.
    """
    step = _PROBE_WORK.step
    gc.disable()
    try:
        started = time.thread_time()
        value = 0
        for i in range(PROBE_ITERATIONS):
            value = step(value, i)
        return (time.thread_time() - started) * 1e3
    finally:
        gc.enable()


def cpu_ticks() -> list:
    """The aggregate ``cpu`` line of /proc/stat (empty if unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: list, after: list) -> float:
    if len(before) < 8 or len(after) < 8:
        return 0.0
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])  # guest time is already counted in user/nice
    return deltas[7] / total if total > 0 else 0.0


def _status_kb(pid: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _live_children() -> list:
    children = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            children += (task / "children").read_text().split()
        except OSError:
            continue
    return children


def peak_rss_mb() -> float:
    """VmHWM of this process plus that of any live child process."""
    total = _status_kb("self", "VmHWM")
    total += sum(_status_kb(pid, "VmHWM") for pid in _live_children())
    return total / 1024.0


def _cpu_seconds() -> float:
    times = os.times()
    return (times.user + times.system + times.children_user
            + times.children_system)


def _op_cpu_seconds() -> float:
    """CPU time of every thread of this process, plus reaped children.

    ``process_time`` has nanosecond resolution, which one op needs;
    children (the workloads start none) only come in 10 ms ticks.
    """
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


def run_loop(workload, seconds: float = 0.0, quota: int = 0,
             tracer=None) -> dict:
    """Closed loop over the workload's op sequence.

    Stops after ``quota`` ops, or at the first op to finish past the
    ``seconds`` deadline. A speed probe runs before every op and after the
    last, outside the op's timing; every correct op reports its wall and
    CPU time and its op index, which places it among the probes. With a
    ``tracer``, every even op runs traced, inside a root ``op`` span
    attributed to its op id, and every odd op untraced: the tracer's
    overhead is then measured between neighbouring ops, which host drift
    cannot tell apart.
    """
    ops = workload.ops()
    recorder = tracer.recorder if tracer is not None else None
    latencies, cpu_ms, correct_ops = [], [], []
    failures, kinds, sequence, probes = [], {}, [], []
    # Latencies per op group (same inputs up to a build id), traced and
    # untraced, so the overhead compares like with like.
    by_group = {}
    attempted = failed = 0
    sim_before = workload.sim_ns()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    deadline = started + seconds
    finished = started
    while True:
        op = next(ops)
        sequence.append(op)
        kind = op.get("kind", "op")
        kinds[kind] = kinds.get(kind, 0) + 1
        traced = tracer is not None and attempted % 2 == 0
        probes.append(speed_probe_ms())
        if traced:
            tracer.install()
            recorder.op = attempted
            stack = recorder.begin("op")
        op_cpu = _op_cpu_seconds()
        op_started = time.perf_counter()
        try:
            failure = workload.run_op(op)
        except Exception as exc:  # an error the op did not expect
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            finished = time.perf_counter()
            op_cpu = _op_cpu_seconds() - op_cpu
            if traced:
                recorder.end(stack)
                recorder.op = None
                tracer.uninstall()
        attempted += 1
        if failure is None:
            latency = (finished - op_started) * 1e3
            latencies.append(latency)
            cpu_ms.append(op_cpu * 1e3)
            correct_ops.append(attempted - 1)
            if tracer is not None:
                group = by_group.setdefault(str(op[workload.group_key]),
                                            ([], []))
                group[0 if traced else 1].append(latency)
        else:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append({"op": attempted - 1, "input": op,
                                 "failure": failure})
        if quota and attempted >= quota:
            break
        if not quota and finished >= deadline:
            break
    probes.append(speed_probe_ms())
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies_ms": latencies,
        "cpu_ms": cpu_ms,
        "probes_ms": probes,
        "correct_ops": correct_ops,
        "window_s": finished - started,
        "cpu_s": _cpu_seconds() - cpu_before,
        "sim_ns": workload.sim_ns() - sim_before,
        "kinds": kinds,
        "ops_digest": hashlib.sha256(json.dumps(
            sequence, sort_keys=True).encode()).hexdigest(),
        "sequence": sequence if quota else None,
        "traced_untraced_ms": by_group,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "replay"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quota", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    load_started = time.monotonic()
    inputs = pickle.load(sys.stdin.buffer)
    input_load_s = time.monotonic() - load_started

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    probing_started = time.monotonic()
    setup_probes = [speed_probe_ms() for _ in range(SETUP_PROBES)]
    probing_s = time.monotonic() - probing_started
    workload = workloads.make_workload(args.workload, inputs)
    workload.setup()
    workload.warmup()
    setup_s = time.monotonic() - args.t0 - input_load_s - probing_s
    setup_probes += [speed_probe_ms() for _ in range(SETUP_PROBES)]
    out = {"setup_s": setup_s, "input_load_s": input_load_s,
           "setup_probe_ms": statistics.median(setup_probes)}
    if args.mode == "setup":
        workload.close()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import layertrace

        tracer = layertrace.LayerTracer(layertrace.SpanRecorder())
    out["host_before"] = {"loadavg": os.getloadavg()}
    out["counters_before"] = workload.counters()
    ticks_before = cpu_ticks()
    out.update(run_loop(workload, seconds=args.seconds, quota=args.quota,
                        tracer=tracer))
    ticks_after = cpu_ticks()
    out["counters_after"] = workload.counters()
    out["peak_rss_mb"] = peak_rss_mb()
    out["host_after"] = {"loadavg": os.getloadavg()}
    out["steal_share"] = steal_share(ticks_before, ticks_after)
    workload.close()
    if tracer is not None:
        out["missing_targets"] = tracer.missing
        spans = tracer.recorder.spans
        out["attribution"] = layertrace.attribute(
            spans, list(range(0, out["attempted"], 2)))
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["id", "parent", "op", "row", "start_s",
                                      "end_s", "amount"],
                           "spans": spans}, handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark, on fixed op quotas so every count is exact.

Run from the repository root (they are not part of the tier-1 suite)::

    python3 -m pytest attestbench/test_attestbench.py -q
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Whole deck cycles, so the mix of op kinds is exact.
QUOTAS = {"fleet-attest": 32, "attested-ml": 8, "cold-deploy": 60}
SEEDS = (3, 4)


@pytest.fixture(scope="module")
def inputs():
    return {(name, seed): workloads.make_inputs(name, seed)
            for name in QUOTAS for seed in SEEDS}


def _replay(name: str, inputs: dict) -> dict:
    blob = pickle.dumps(inputs, protocol=pickle.HIGHEST_PROTOCOL)
    return run.spawn(name, "replay", blob, seconds=60, quota=QUOTAS[name])


@pytest.fixture(scope="module")
def replays(inputs):
    """Two fresh processes on the first seed, one on the second."""
    out = {}
    for name in QUOTAS:
        out[name] = [_replay(name, inputs[(name, SEEDS[0])]),
                     _replay(name, inputs[(name, SEEDS[0])]),
                     _replay(name, inputs[(name, SEEDS[1])])]
    return out


@pytest.mark.parametrize("name", sorted(QUOTAS))
def test_same_seed_same_ops_and_counters(replays, name):
    first, again, _ = replays[name]
    assert first["failed"] == again["failed"] == 0
    assert first["attempted"] == QUOTAS[name]
    assert first["sequence"] == again["sequence"]
    assert first["counters_after"] == again["counters_after"]
    assert first["sim_ns"] == again["sim_ns"]


@pytest.mark.parametrize("name", sorted(QUOTAS))
def test_other_seed_other_inputs_same_mix(inputs, replays, name):
    first, _, other = replays[name]
    assert other["failed"] == 0
    assert inputs[(name, SEEDS[0])] != inputs[(name, SEEDS[1])]
    assert first["sequence"] != other["sequence"]
    assert first["kinds"] == other["kinds"]
    if name == "fleet-attest":
        assert first["kinds"] == {"returning": 16, "first-contact": 14,
                                  "untrusted": 2}
    else:
        key = "item" if name == "attested-ml" else "kernel"
        for replay in (first, other):
            counts = Counter(op[key] for op in replay["sequence"])
            assert len(set(counts.values())) == 1  # every input equally often


def test_inputs_are_deterministic():
    for name in QUOTAS:
        assert workloads.make_inputs(name, 9) == workloads.make_inputs(name, 9)


def test_attested_ml_datasets_straddle_256_kib(inputs):
    for seed in SEEDS:
        sizes = [len(item["dataset"])
                 for item in inputs[("attested-ml", seed)]["pool"]]
        assert min(sizes) >= workloads.ML_MIN_BYTES
        assert max(sizes) < workloads.ML_MAX_BYTES
        assert min(sizes) < 256 * 1024 <= max(sizes)


def _code_cache_delta(replay: dict) -> dict:
    before = replay["counters_before"]["code_cache"]
    after = replay["counters_after"]["code_cache"]
    return {key: after[key] - before[key] for key in ("hits", "misses")}


def test_cold_deploy_never_hits_the_code_cache(replays):
    for replay in replays["cold-deploy"]:
        assert replay["counters_after"]["code_cache"]["hits"] == 0
        assert _code_cache_delta(replay) == {
            "hits": 0, "misses": QUOTAS["cold-deploy"]}


def test_attested_ml_always_hits_after_warmup(replays):
    for replay in replays["attested-ml"]:
        assert _code_cache_delta(replay) == {
            "hits": QUOTAS["attested-ml"], "misses": 0}


def test_fleet_tickets_honoured_and_untrusted_refused(replays):
    for replay in replays["fleet-attest"]:
        kinds = replay["kinds"]
        before = replay["counters_before"]["gateway"]
        after = replay["counters_after"]["gateway"]
        assert after["cache_hits"] - before["cache_hits"] == kinds["returning"]
        assert after["refusals"] - before["refusals"] == kinds["untrusted"]
        assert after["batch_verified"] == 0  # one client never batches


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "attestbench/run.py"]
    assert spec["paths"] == ["attestbench"]
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert tuple((m["name"], m["unit"]) for m in spec["end_to_end"]) == \
        run.END_TO_END
    assert tuple((m["name"], m["unit"]) for m in spec["per_layer"]) == \
        run.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name,index,field", [
    ("cold-deploy", 7, "checksum"),
    ("attested-ml", 5, "checksum"),
])
def test_planted_wrong_reference_fails_the_run(name, index, field):
    planted = workloads.make_inputs(name, 5)
    group = "kernels" if name == "cold-deploy" else "pool"
    planted[group][index][field] += 1.0
    line, details, code = run.execute(name, 5, seconds=2.5, trace=False,
                                      inputs=planted)
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] >= 1
    assert details["first_failures"]
    assert "reference" in details["first_failures"][0]["failure"] or \
        "native" in details["first_failures"][0]["failure"]


def test_attested_ml_probes_span_the_dataset(inputs):
    for seed in SEEDS:
        for item in inputs[("attested-ml", seed)]["pool"]:
            size = len(item["dataset"])
            offsets = [offset for offset, _ in item["probes"]]
            assert offsets[0] == 0 and offsets[-1] == size - 1
            assert any(offset >= 128 * 1024 for offset in offsets)
            if size > 256 * 1024:
                assert 256 * 1024 in offsets
            assert all(item["dataset"][offset] == byte
                       for offset, byte in item["probes"])


def test_planted_wrong_dataset_byte_fails_the_run():
    planted = workloads.make_inputs("attested-ml", 5)
    probe = planted["pool"][2]["probes"][-1]  # the blob's last byte
    probe[1] ^= 0x01
    line, details, code = run.execute("attested-ml", 5, seconds=2.5,
                                      trace=False, inputs=planted)
    assert code != 0
    assert line["failed"] >= 1
    assert "dataset byte" in details["first_failures"][0]["failure"]


@pytest.mark.parametrize("name", sorted(QUOTAS))
def test_traced_run_takes_the_production_path(inputs, name):
    blob = pickle.dumps(inputs[(name, SEEDS[0])],
                        protocol=pickle.HIGHEST_PROTOCOL)
    _, values, details, passed = run.traced_run(name, 1.5, blob, SEEDS[0])
    assert passed, details["same_path"]
    assert details["sum_check"]["passed"]
    assert details["missing_targets"] == []
    rows = details["rows_ms_per_op"]  # rounded to 0.1 us each
    total = sum(rows.values())
    assert abs(total - values["op.wall_ms"] - values["op.overlap_ms"]) < 1e-2
    if name == "fleet-attest":
        assert values["wasm.exec_ms"] == values["wasm.compile_ms"] == 0
        assert values["fleet.ticket_hit_frac"] == 1.0
    else:
        assert values["fleet.self_ms"] == 0
        assert values["wasm.cache_hit_frac"] == \
            (1.0 if name == "attested-ml" else 0.0)


def test_op_probe_reading_is_the_median_of_its_window():
    # probes[k] runs just before op k; the last one after op 3.
    probes = [1.0, 9.0, 2.0, 3.0, 4.0]
    assert run.PROBE_WINDOW == 2
    assert run.op_probes(probes, [0, 1, 3]) == [2.0, 2.5, 3.0]


def test_times_scale_to_the_reference_host_speed():
    slow, fast = 2 * run.PROBE_REFERENCE_MS, run.PROBE_REFERENCE_MS / 2
    assert run.at_reference_speed([10.0, 10.0], [slow, fast]) == [5.0, 20.0]


def test_sum_check_catches_overlap_and_orphans():
    spans = [(1, None, 0, "op", 0.0, 10.0, 0),
             (2, 1, 0, "crypto.a", 1.0, 5.0, 0),
             (3, 1, 0, "wasm.b", 3.0, 8.0, 0),   # overlaps crypto.a by 2
             (4, 3, 0, "hw.c", 4.0, 4.5, 0),
             (5, 99, 0, "core.d", 6.0, 7.0, 0)]  # parent not in the op
    result = layertrace.attribute(spans, [0])
    assert result["rows"]["op"]["self_s"] == 3.0
    assert result["rows"]["wasm.b"]["self_s"] == 4.5
    assert result["overlap_s"] == 2.0
    assert result["orphans"] == 1
    assert result["max_residual_frac"] == 0.2


def test_missing_trace_target_is_reported_not_fatal(monkeypatch):
    gone = ("repro.core.runtime", "WatzRuntime.gone", "core.runtime", None)
    monkeypatch.setattr(layertrace, "TARGETS", layertrace.TARGETS + (gone,))
    tracer = layertrace.LayerTracer(layertrace.SpanRecorder())
    assert tracer.missing == ["repro.core.runtime.WatzRuntime.gone"]


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "attestbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "attestbench/run.py", "--workload", "cold-deploy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

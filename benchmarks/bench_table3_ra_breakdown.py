"""Table III: execution-time breakdown of msg0/msg1/msg2.

Reproduces the paper's per-message cost matrix for attester and verifier
across four categories (memory management, key generation, symmetric and
asymmetric cryptography). The handshakes run untouched under
``Tracer.observe()``; the matrix is ``TraceAnalyzer.protocol_costs``,
which files each crypto primitive or codec span under its category and
the message of the protocol step around it. The crypto is real
computation, so this bench reports wall-clock time of the pure-Python
primitives; the *structure* to compare with the paper is which cells are
populated and the asymmetric-vs-symmetric dominance (the paper reports up
to 2774x).

The shape gates (threshold, value, ``asserted`` and a reason) are
recorded in ``bench_results/BENCH_table3_ra_breakdown.json`` before
they are asserted.
"""

from __future__ import annotations

import os

from repro.bench import (format_duration, format_table, save_json,
                         save_report)
from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ec, ecdsa
from repro.obs import TraceAnalyzer, Tracer
from repro.obs.analysis import COST_CATEGORIES

_DEVICE = ecdsa.keypair_from_private(31415926)
_IDENTITY = ecdsa.keypair_from_private(27182818)
_CLAIM = measure_bytes(b"table3 app").digest

_ROUNDS = 10
_MESSAGES = ("msg0", "msg1", "msg2")

# Paper Table III (converted to seconds) for the side-by-side print.
_PAPER = {
    ("attester", "msg0", "memory"): 7e-6,
    ("attester", "msg0", "keygen"): 236e-3,
    ("attester", "msg1", "memory"): 50e-6,
    ("attester", "msg1", "keygen"): 235e-3,
    ("attester", "msg1", "symmetric"): 88e-6,
    ("attester", "msg1", "asymmetric"): 159e-3,
    ("attester", "msg2", "memory"): 5e-6,
    ("attester", "msg2", "symmetric"): 79e-6,
    ("attester", "msg2", "asymmetric"): 238e-3,
    ("verifier", "msg0", "memory"): 52e-6,
    ("verifier", "msg0", "keygen"): 471e-3,
    ("verifier", "msg1", "memory"): 7e-6,
    ("verifier", "msg1", "symmetric"): 85e-6,
    ("verifier", "msg1", "asymmetric"): 236e-3,
    ("verifier", "msg2", "memory"): 7e-6,
    ("verifier", "msg2", "symmetric"): 80e-6,
    ("verifier", "msg2", "asymmetric"): 159e-3,
}


def _observe_handshakes():
    # Table III models the paper's cost matrix, whose headline (asymmetric
    # crypto dominates symmetric) belongs to textbook scalar multiplication.
    # The reproduction therefore runs on the retained naive reference;
    # bench_crypto_microbench.py covers the fast paths' new ratios.
    attester = Attester(os.urandom)
    policy = VerifierPolicy()
    policy.endorse(_DEVICE.public_bytes())
    policy.trust_measurement(_CLAIM)
    verifier = Verifier(_IDENTITY, policy, os.urandom)
    tracer = Tracer()
    with ec.reference_paths(), tracer.observe():
        for _ in range(_ROUNDS):
            session = attester.start_session(_IDENTITY.public_bytes())
            verifier_session, msg1 = verifier.handle_msg0(
                attester.make_msg0(session))
            attester.handle_msg1(session, msg1)
            msg2 = attester.attest(
                session, _CLAIM, _DEVICE.public_bytes(),
                lambda body: ecdsa.sign(_DEVICE.private, body))
            msg3 = verifier.handle_msg2(verifier_session, msg2, b"blob")
            attester.handle_msg3(session, msg3)
    return TraceAnalyzer(tracer.spans()).protocol_costs()


def test_table3_breakdown(benchmark):
    costs = benchmark.pedantic(_observe_handshakes, rounds=1, iterations=1)

    def cost(role, message, category):
        return costs.get((role, message, category), 0.0)

    def table(role):
        rows = []
        for category in COST_CATEGORIES:
            row = [category]
            for message in _MESSAGES:
                measured = cost(role, message, category) / _ROUNDS
                paper = _PAPER.get((role, message, category))
                cell = format_duration(measured) if measured else "-"
                paper_cell = format_duration(paper) if paper else "-"
                row.append(f"{cell} (paper {paper_cell})")
            rows.append(row)
        return format_table(
            f"Table III ({role}) — per-message cost, mean of {_ROUNDS}",
            ["category", *_MESSAGES], rows)

    save_report("table3_attester", table("attester"))
    save_report("table3_verifier", table("verifier"))

    # Shape assertions, mirroring the paper's analysis:
    # 0. The same cells are populated as in the paper: which primitives
    #    each message runs does not depend on the host.
    # 1. Key generation dominates msg0 on both sides; the verifier does
    #    roughly double the attester's msg0 keygen work (keygen + derive).
    # 2. Asymmetric crypto dominates symmetric on msg1 and msg2. The
    #    paper reports up to 2774x on the Cortex-A53; our pure-Python
    #    CMAC is comparatively slower so the factor is smaller, but the
    #    ordering — Table III's headline — must hold clearly.
    # 3. Memory management is negligible next to the cryptography.
    populated = sorted(" ".join(cell) for cell in costs
                       if cell[1] in _MESSAGES)
    expected = sorted(" ".join(cell) for cell in _PAPER)
    reason = ("seconds of work of different kinds, timed in one run on "
              "one host on the textbook scalar-multiplication path")
    att_msg0 = cost("attester", "msg0", "keygen") / _ROUNDS
    ver_msg0 = cost("verifier", "msg0", "keygen") / _ROUNDS
    att_msg1_memory = cost("attester", "msg1", "memory")
    gates = {
        "populated_cells_match_paper": {
            "metric": "(role, message, category) cells with a measured "
                      "cost (must equal the paper's populated cells)",
            "threshold": expected,
            "value": populated,
            "asserted": True,
            "reason": "deterministic: which primitives each message runs",
        },
        "verifier_msg0_keygen_above_attester": {
            "metric": "verifier vs attester msg0 keygen (s per round; "
                      "must exceed the threshold)",
            "threshold": round(att_msg0, 6),
            "value": round(ver_msg0, 6),
            "asserted": True,
            "reason": reason + ": a key generation plus an ECDH against "
                      "one key generation",
        },
        "attester_msg1_memory_below_msg0_keygen": {
            "metric": "attester msg1 memory management over all rounds "
                      "vs msg0 keygen per round (s)",
            "threshold": round(att_msg0, 6),
            "value": round(att_msg1_memory, 6),
            "asserted": True,
            "reason": reason + ": decoding bytes against a scalar "
                      "multiplication",
        },
    }
    dominance = []
    for role in ("attester", "verifier"):
        for message in ("msg1", "msg2"):
            asym = cost(role, message, "asymmetric")
            sym = cost(role, message, "symmetric")
            dominance.append((message, asym, sym))
            gates[f"{role}_{message}_asymmetric_over_3x_symmetric"] = {
                "metric": f"{role} {message} asymmetric vs 3x symmetric "
                          "(s over all rounds; must exceed the threshold)",
                "threshold": round(3 * sym, 6),
                "value": round(asym, 6),
                "asserted": True,
                "reason": reason + ": ECDSA against AES-CMAC",
            }
    save_json("BENCH_table3_ra_breakdown", {"gates": gates})

    assert populated == expected, gates["populated_cells_match_paper"]
    assert ver_msg0 > att_msg0, gates
    for message, asym, sym in dominance:
        assert asym > 3 * sym, (message, asym, sym)
    assert att_msg1_memory < att_msg0, gates

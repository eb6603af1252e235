"""Ablation A2: formal verification of the RA protocol (paper §VII).

Runs the Dolev–Yao checker over the shipped protocol (all claims must
hold, as Scyther found) and over every single-check mutation (each must
yield a concrete attack — the checker self-test of DESIGN.md ablation 3).
Its three gates (value, ``asserted`` and a reason) are recorded in
``bench_results/BENCH_ablation_formal.json`` before they are asserted.
"""

from __future__ import annotations

from repro.bench import format_table, save_json, save_report

_GATE_REASON = "deterministic, no timing"
#: Paper §VII's claims: secrecy x6, aliveness, weak agreement,
#: NI-agreement x2, NI-synchronisation and reachability.
_PAPER_CLAIMS = 12
from repro.formal import (
    MUTATION_EXPECTATIONS,
    ProtocolVariant,
    run_mutation_suite,
    verify_protocol,
)


def test_ablation_formal_verification(benchmark):
    reports = benchmark.pedantic(run_mutation_suite, rounds=1, iterations=1)

    rows = []
    shipped = reports["shipped"]
    rows.append(("shipped protocol", "all claims hold (Scyther)",
                 "all hold" if shipped.all_hold
                 else f"FAILED: {shipped.failed_claims()}"))
    for mutation, report in reports.items():
        if mutation == "shipped":
            continue
        failed = report.failed_claims()
        rows.append((f"without {mutation}", "attack exists",
                     f"attack found: {', '.join(sorted(failed))}"
                     if failed else "NO ATTACK FOUND"))
    save_report("ablation_formal", format_table(
        "A2 — protocol verification (claims: secrecy x6, aliveness, weak "
        "agreement, NI-agreement x2, NI-synchronisation, reachability)",
        ["model", "expected", "result"], rows,
    ))

    missed = sorted(mutation for mutation, expected
                    in MUTATION_EXPECTATIONS.items()
                    if not set(expected)
                    <= set(reports[mutation].failed_claims()))
    gates = {
        "shipped_protocol_claims_hold": {
            "metric": "claims of the shipped protocol that fail",
            "threshold": [],
            "value": sorted(shipped.failed_claims()),
            "asserted": True,
            "reason": _GATE_REASON,
        },
        "every_mutation_yields_its_attack": {
            "metric": "single-check mutations without their expected "
                      "attack",
            "threshold": [],
            "value": missed,
            "asserted": True,
            "reason": _GATE_REASON,
        },
        "claim_count_matches_paper": {
            "metric": "claims checked on the shipped protocol",
            "threshold": _PAPER_CLAIMS,
            "value": len(shipped.claims),
            "asserted": True,
            "reason": _GATE_REASON,
        },
    }
    save_json("BENCH_ablation_formal", {
        "failed_claims": {mutation: sorted(report.failed_claims())
                          for mutation, report in reports.items()},
        "gates": gates,
    })
    assert shipped.all_hold, shipped.failed_claims()
    for mutation, expected in MUTATION_EXPECTATIONS.items():
        report = reports[mutation]
        assert set(expected) <= set(report.failed_claims()), mutation
    assert len(shipped.claims) == _PAPER_CLAIMS


def test_formal_claim_count_matches_paper():
    """Paper §VII: secrecy of session keys, shared secret and blob, plus
    aliveness, weak agreement, NI-agreement, NI-synchronisation and
    reachability."""
    report = verify_protocol(ProtocolVariant())
    assert len(report.claims) == _PAPER_CLAIMS

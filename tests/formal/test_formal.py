"""The Dolev–Yao checker: term algebra, claims, mutation detection."""

import pytest

from repro.formal import (
    MUTATION_EXPECTATIONS,
    Atom,
    DhPub,
    DhShared,
    Hash,
    Kdf,
    Knowledge,
    Mac,
    Pair,
    PrivKey,
    ProtocolVariant,
    PubKey,
    Sign,
    SymEnc,
    pair,
    run_mutation_suite,
    subterms,
    verify_protocol,
)

A, B, K = Atom("a"), Atom("b"), Atom("k")


# -- term algebra ------------------------------------------------------------


def test_terms_structural_equality():
    assert Pair(A, B) == Pair(A, B)
    assert Pair(A, B) != Pair(B, A)
    assert hash(Pair(A, B)) == hash(Pair(A, B))


def test_dh_shared_commutes():
    assert DhShared(A, B) == DhShared(B, A)
    assert hash(DhShared(A, B)) == hash(DhShared(B, A))


def test_pair_nests_right():
    nested = pair(A, B, K)
    assert nested == Pair(A, Pair(B, K))


def test_subterms_cover_structure():
    term = SymEnc(Kdf(DhShared(A, B), "Ke"), Pair(K, Hash(A)))
    found = set(subterms(term))
    assert {A, B, K, Hash(A)} <= found


# -- intruder deduction -----------------------------------------------------------


def test_pairs_decompose():
    knowledge = Knowledge([Pair(A, B)])
    assert knowledge.derives(A)
    assert knowledge.derives(B)


def test_signature_reveals_body_not_key():
    knowledge = Knowledge([Sign(PrivKey(Atom("V")), Pair(A, B))])
    assert knowledge.derives(A)
    assert not knowledge.derives(PrivKey(Atom("V")))


def test_ciphertext_opaque_without_key():
    knowledge = Knowledge([SymEnc(K, A)])
    assert not knowledge.derives(A)


def test_ciphertext_opens_with_key():
    knowledge = Knowledge([SymEnc(K, A), K])
    assert knowledge.derives(A)


def test_ciphertext_opens_when_key_arrives_later():
    knowledge = Knowledge([SymEnc(K, A)])
    assert not knowledge.derives(A)
    knowledge.add(K)
    assert knowledge.derives(A)


def test_mac_reveals_nothing():
    knowledge = Knowledge([Mac(K, A)])
    assert not knowledge.derives(A)
    assert not knowledge.derives(K)


def test_mac_constructible_with_key_and_body():
    knowledge = Knowledge([K, A])
    assert knowledge.derives(Mac(K, A))


def test_hash_one_way():
    knowledge = Knowledge([Hash(A)])
    assert not knowledge.derives(A)
    knowledge.add(A)
    assert knowledge.derives(Hash(Pair(A, A)))


def test_dh_needs_a_scalar():
    e, v = Atom("e"), Atom("v")
    knowledge = Knowledge([DhPub(v), e])
    assert knowledge.derives(DhShared(e, v))
    assert not knowledge.derives(DhShared(Atom("a"), v))


def test_kdf_derivable_from_secret():
    e, v = Atom("e"), Atom("v")
    knowledge = Knowledge([DhPub(v), e])
    assert knowledge.derives(Kdf(DhShared(e, v), "Km"))


def test_public_keys_always_derivable():
    assert Knowledge([]).derives(PubKey(Atom("anyone")))


def test_snapshot_restore():
    knowledge = Knowledge([A])
    snapshot = knowledge.snapshot()
    knowledge.add(B)
    assert knowledge.derives(B)
    knowledge.restore(snapshot)
    assert not knowledge.derives(B)


# -- protocol verification ----------------------------------------------------------


@pytest.fixture(scope="module")
def shipped_report():
    return verify_protocol()


def test_shipped_protocol_all_claims_hold(shipped_report):
    assert shipped_report.all_hold, shipped_report.failed_claims()


def test_shipped_protocol_checks_the_paper_claim_set(shipped_report):
    names = {claim.name for claim in shipped_report.claims}
    assert "secrecy_secret_blob" in names
    assert "secrecy_honest_enc_key" in names
    assert "secrecy_attester_scalar" in names
    assert "aliveness_verifier" in names
    assert "weak_agreement_attester" in names
    assert "ni_agreement_attester" in names
    assert "ni_agreement_verifier" in names
    assert "ni_synchronisation" in names
    assert "reachability" in names


def test_reachability_witness_exists(shipped_report):
    assert shipped_report.claim("reachability").holds


@pytest.mark.parametrize("mutation", sorted(MUTATION_EXPECTATIONS))
def test_each_disabled_check_yields_attack(mutation):
    """Checker self-test (DESIGN.md ablation 3): removing any protocol
    check must produce at least the expected claim violations."""
    variant = ProtocolVariant().mutate(**{mutation: False})
    report = verify_protocol(variant)
    failed = set(report.failed_claims())
    assert failed, f"no attack found with {mutation} disabled"
    assert set(MUTATION_EXPECTATIONS[mutation]) <= failed


def test_identity_check_off_gives_attack_trace():
    report = verify_protocol(
        ProtocolVariant().mutate(attester_checks_identity=False))
    attack = report.claim("aliveness_verifier").attack
    assert attack is not None
    assert attack.events  # a concrete trace is attached


def test_claim_check_off_leaks_blob_via_colocated_app():
    """The WaTZ-specific attack: a malicious Wasm app on the same device
    holds genuine device-signed evidence; only the measurement check
    stops it from receiving the secret blob."""
    report = verify_protocol(
        ProtocolVariant().mutate(verifier_checks_claim=False))
    assert not report.claim("secrecy_secret_blob").holds


def test_mutation_suite_shape():
    reports = run_mutation_suite()
    assert reports["shipped"].all_hold
    for name, report in reports.items():
        if name != "shipped":
            assert not report.all_hold

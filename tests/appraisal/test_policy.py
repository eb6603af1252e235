"""The declarative policy: pinned reason codes, table-driven verdicts.

The reason-code strings are an API — the audit log persists them,
``PolicyDenied`` carries them, operators alert on them — so every
value is pinned here verbatim. The verdict table drives one evidence
sample through policies that each fail exactly one rule, checking both
the decision and *which* rule reported it (the evaluator's check order
is part of the contract).
"""

import dataclasses

import pytest

from repro.appraisal import synthetic
from repro.appraisal.envelope import TEE_SGX, TEE_TDX, TEE_TRUSTZONE
from repro.appraisal.policy import (
    AppraisalPolicy,
    Reason,
    TeePolicy,
    Verdict,
)
from repro.core.verifier import VerifierPolicy
from repro.errors import PolicyDenied

CLAIM = b"\x11" * 32
ANCHOR = b"\x22" * 32


# -- pinned reason codes ------------------------------------------------------


def test_reason_codes_are_pinned():
    assert Reason.OK == "ok"
    assert Reason.TEE_NOT_ACCEPTED == "tee-not-accepted"
    assert Reason.MEASUREMENT_UNKNOWN == "measurement-unknown"
    assert Reason.MEASUREMENT_REVOKED == "measurement-revoked"
    assert Reason.IDENTITY_UNKNOWN == "identity-unknown"
    assert Reason.IDENTITY_REVOKED == "identity-revoked"
    assert Reason.SIGNER_UNKNOWN == "signer-unknown"
    assert Reason.DEBUG_REJECTED == "debug-rejected"
    assert Reason.SVN_BELOW_MINIMUM == "svn-below-minimum"
    assert Reason.VERSION_BELOW_MINIMUM == "version-below-minimum"
    assert Reason.BOOT_UNKNOWN == "boot-unknown"
    assert Reason.POLICY_EXPIRED == "policy-expired"
    assert Reason.SIGNATURE_INVALID == "signature-invalid"
    assert Reason.ENVELOPE_MALFORMED == "envelope-malformed"


# -- table-driven verdicts ----------------------------------------------------


def _enclave(**kwargs):
    return synthetic.sgx_enclave(7, CLAIM, **kwargs)


def _view(enclave=None):
    return (enclave or _enclave()).collect_evidence(ANCHOR)


def _accepting_policy(enclave=None):
    enclave = enclave or _enclave()
    policy = AppraisalPolicy()
    tee = policy.accept_tee(TEE_SGX)
    tee.trust_measurement(enclave.mrenclave)
    tee.endorse(enclave.attestation_public_key)
    tee.trust_signer(enclave.mrsigner)
    return policy


def test_the_accepting_baseline():
    verdict = _accepting_policy().compile().evaluate(_view())
    assert verdict == Verdict(True, Reason.OK, TEE_SGX)
    assert verdict.raise_if_denied() is verdict


def _deny_tee_not_accepted(policy, view):
    policy.tee.pop(TEE_SGX)
    return view


def _deny_measurement_revoked(policy, view):
    policy.revoke_measurement(view.mrenclave)
    # Revocation outranks the (still present) accept entry.
    return view


def _deny_identity_revoked(policy, view):
    policy.revoke_identity(view.attestation_public_key)
    return view


def _deny_measurement_unknown(policy, view):
    policy.tee[TEE_SGX].accepted_measurements.clear()
    return view


def _deny_identity_unknown(policy, view):
    policy.tee[TEE_SGX].accepted_identities.clear()
    return view


def _deny_signer_unknown(policy, view):
    return _view(_enclave(mrsigner=b"\x66" * 32))


def _deny_debug(policy, view):
    debug = _view(_enclave(debug=True))
    policy.tee[TEE_SGX].trust_measurement(debug.mrenclave)
    return debug


def _deny_svn(policy, view):
    policy.tee[TEE_SGX].minimum_svn = 5
    return _view(_enclave(isv_svn=4))


def _deny_version(policy, view):
    policy.tee[TEE_SGX].minimum_version = (2, 0)
    return view


def _deny_expired(policy, view):
    policy.not_after_ns = 10
    return view


DENIALS = [
    (Reason.TEE_NOT_ACCEPTED, _deny_tee_not_accepted),
    (Reason.MEASUREMENT_REVOKED, _deny_measurement_revoked),
    (Reason.IDENTITY_REVOKED, _deny_identity_revoked),
    (Reason.MEASUREMENT_UNKNOWN, _deny_measurement_unknown),
    (Reason.IDENTITY_UNKNOWN, _deny_identity_unknown),
    (Reason.SIGNER_UNKNOWN, _deny_signer_unknown),
    (Reason.DEBUG_REJECTED, _deny_debug),
    (Reason.SVN_BELOW_MINIMUM, _deny_svn),
    (Reason.VERSION_BELOW_MINIMUM, _deny_version),
    (Reason.POLICY_EXPIRED, _deny_expired),
]


@pytest.mark.parametrize("reason,arrange",
                         DENIALS, ids=[r for r, _ in DENIALS])
def test_each_rule_reports_its_own_reason(reason, arrange):
    enclave = _enclave()
    policy = _accepting_policy(enclave)
    # Every arranged view reuses enclave 7's keypair, so the baseline
    # endorsement covers it and only the rule under test can fire.
    view = arrange(policy, _view(enclave))
    verdict = policy.compile().evaluate(view, now_ns=100)
    assert not verdict.accepted
    assert verdict.reason == reason
    with pytest.raises(PolicyDenied) as excinfo:
        verdict.raise_if_denied()
    assert excinfo.value.reason_code == reason


def test_boot_unknown_for_trustzone_shape():
    policy = AppraisalPolicy.from_verifier_policy(VerifierPolicy())
    tz = policy.tee[TEE_TRUSTZONE]

    @dataclasses.dataclass
    class FakeTzView:
        tee_type = TEE_TRUSTZONE
        claim: bytes = CLAIM
        identity: bytes = b"\x04" + b"\x33" * 64
        boot_claim: bytes = b"\x44" * 32
        version = (1, 0)
        svn = None
        debug = False
        signer = None

    view = FakeTzView()
    tz.trust_measurement(view.claim)
    tz.endorse(view.identity)
    tz.trust_boot_measurement(b"\x55" * 32)  # not the view's boot claim
    verdict = policy.compile().evaluate(view)
    assert verdict.reason == Reason.BOOT_UNKNOWN


def test_check_order_revocation_outranks_everything_but_expiry():
    # A sample failing many rules reports the *first* failing one.
    enclave = _enclave(debug=True, isv_svn=0)
    policy = AppraisalPolicy()
    policy.accept_tee(TEE_SGX).minimum_svn = 3
    view = _view(enclave)
    policy.revoke_measurement(view.mrenclave)
    assert policy.compile().evaluate(view).reason == \
        Reason.MEASUREMENT_REVOKED
    policy.not_after_ns = 10
    assert policy.compile().evaluate(view, now_ns=100).reason == \
        Reason.POLICY_EXPIRED


# -- rules with no counterpart in a backend stay inert ------------------------


def test_svn_and_boot_rules_are_inert_for_backends_without_the_field():
    domain = synthetic.tdx_domain(0, CLAIM)
    view = domain.collect_evidence(ANCHOR)
    policy = AppraisalPolicy()
    tee = policy.accept_tee(TEE_TDX)
    tee.trust_measurement(domain.mrtd)
    tee.endorse(domain.attestation_public_key)
    assert policy.compile().evaluate(view).accepted
    # But an explicit minimum SVN *denies* svn-less evidence (fail
    # closed): the rule only stays inert while unset.
    tee.minimum_svn = 1
    assert policy.compile().evaluate(view).reason == \
        Reason.SVN_BELOW_MINIMUM


# -- serialisation, fingerprint, epoch ----------------------------------------


def _rich_policy():
    policy = AppraisalPolicy(epoch=3, not_after_ns=12345)
    policy.tee[TEE_SGX] = TeePolicy(
        accepted_measurements={b"\x01" * 32, b"\x02" * 32},
        accepted_identities={b"\x04" + b"\x05" * 64},
        accepted_signers={b"\x06" * 32},
        minimum_svn=2,
        allow_debug=True,
        minimum_version=(1, 2),
    )
    policy.tee[TEE_TRUSTZONE] = TeePolicy(
        accepted_measurements={b"\x07" * 32},
        accepted_boot_measurements={b"\x08" * 32},
    )
    policy.revoked_measurements.add(b"\x09" * 32)
    policy.revoked_identities.add(b"\x0A" * 65)
    return policy


def test_encode_decode_round_trip():
    policy = _rich_policy()
    clone = AppraisalPolicy.decode(policy.encode())
    assert clone == policy
    assert clone.fingerprint() == policy.fingerprint()


def test_encoding_is_deterministic_across_insertion_order():
    a = AppraisalPolicy()
    a.accept_tee(TEE_SGX).trust_measurement(b"\x01" * 32)
    a.accept_tee(TEE_SGX).trust_measurement(b"\x02" * 32)
    b = AppraisalPolicy()
    b.accept_tee(TEE_SGX).trust_measurement(b"\x02" * 32)
    b.accept_tee(TEE_SGX).trust_measurement(b"\x01" * 32)
    assert a.encode() == b.encode()


def test_revocation_bumps_the_epoch_and_moves_the_fingerprint():
    policy = _accepting_policy()
    before = policy.fingerprint()
    policy.revoke_measurement(CLAIM)
    assert policy.epoch == 1
    after = policy.fingerprint()
    assert after != before
    # Un-revoking does NOT restore the old fingerprint: the epoch stays
    # bumped, so tickets minted before the revocation never resurrect.
    policy.revoked_measurements.clear()
    assert policy.fingerprint() not in (before, after)


def test_from_verifier_policy_lifts_the_legacy_rules():
    legacy = VerifierPolicy(minimum_version=(1, 1))
    legacy.trust_measurement(CLAIM)
    legacy.endorse(b"\x04" + b"\x0B" * 64)
    legacy.trust_boot_measurement(b"\x0C" * 32)
    lifted = AppraisalPolicy.from_verifier_policy(legacy)
    tz = lifted.tee[TEE_TRUSTZONE]
    assert tz.accepted_measurements == {CLAIM}
    assert tz.minimum_version == (1, 1)
    assert tz.accepted_boot_measurements == {b"\x0C" * 32}

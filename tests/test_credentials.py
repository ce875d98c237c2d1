"""Epoch anchoring and perishable credential checks."""

from types import SimpleNamespace

import pytest

from shardsim.credentials import (
    Credential,
    credential_blob,
    derive_credential,
    epoch_anchor,
    verify_credential,
)
from shardsim.crypto import keygen, tagged_hash
from shardsim.ledger import Utxo


def anchor_by_stepping(h0, h, epoch_length):
    # Walk whole epochs forward from the creation height; the anchor is the
    # last epoch boundary at or before h.
    anchor = h0
    while anchor + epoch_length <= h:
        anchor += epoch_length
    return anchor


def test_epoch_anchor_matches_stepping_walk():
    for h0 in range(0, 6):
        for epoch_length in (1, 2, 3, 5, 10):
            for h in range(h0 + epoch_length, h0 + 4 * epoch_length + 3):
                assert epoch_anchor(h0, h, epoch_length) == anchor_by_stepping(
                    h0, h, epoch_length
                ), (h0, h, epoch_length)


def test_epoch_anchor_known_values():
    assert epoch_anchor(0, 25, 10) == 20
    assert epoch_anchor(0, 10, 10) == 10
    assert epoch_anchor(3, 17, 5) == 13


def test_epoch_anchor_errors():
    with pytest.raises(ValueError):
        epoch_anchor(0, 10, 0)
    with pytest.raises(ValueError):
        # First epoch incomplete: no credential exists yet.
        epoch_anchor(0, 9, 10)
    with pytest.raises(ValueError):
        epoch_anchor(5, 5, 3)


def fake_chain(n, tag=b"chain"):
    return [SimpleNamespace(seed=tagged_hash(tag, b"%d" % h)) for h in range(n)]


def test_derive_credential_value_and_window():
    chain = fake_chain(8)
    kp = keygen(b"holder")
    cred = derive_credential(kp.pk, 0, 5, chain, 3)
    assert cred.anchor_height == 3
    assert cred.expiry_height == 6
    assert cred.pk == kp.pk
    assert cred.value == tagged_hash(b"cred", kp.pk, chain[3].seed)


def test_derive_credential_requires_anchor_block():
    chain = fake_chain(3)  # heights 0..2 accepted
    with pytest.raises(ValueError):
        derive_credential(keygen(b"h").pk, 0, 5, chain, 3)  # anchor 3 missing


def test_derive_credential_stable_within_epoch():
    chain = fake_chain(10)
    kp = keygen(b"holder")
    creds = {derive_credential(kp.pk, 0, h, chain, 3).value for h in (3, 4, 5)}
    assert len(creds) == 1
    rolled = derive_credential(kp.pk, 0, 6, chain, 3)
    assert rolled.value not in creds


def _history(chain, pk, created_height, anchors):
    utxo = Utxo(pk=pk, stake=1, created_height=created_height)
    return {a: {pk: utxo} for a in anchors}


def test_verify_credential_window():
    chain = fake_chain(10)
    kp = keygen(b"holder")
    cred = derive_credential(kp.pk, 0, 3, chain, 3)
    history = _history(chain, kp.pk, 0, [3])
    assert verify_credential(cred, 3, chain, history)
    assert verify_credential(cred, 5, chain, history)
    # Expiry height itself is outside the window.
    assert not verify_credential(cred, 6, chain, history)
    assert not verify_credential(cred, 7, chain, history)


def test_verify_credential_survives_spend():
    # Eligibility is judged at the anchor snapshot: a UTXO spent after the
    # anchor keeps its already derived credential until expiry.
    chain = fake_chain(10)
    kp = keygen(b"holder")
    cred = derive_credential(kp.pk, 0, 3, chain, 3)
    history = _history(chain, kp.pk, 0, [3])  # later snapshots lack the pk
    assert verify_credential(cred, 5, chain, history)


def test_verify_credential_rejections():
    chain = fake_chain(10)
    kp = keygen(b"holder")
    cred = derive_credential(kp.pk, 0, 3, chain, 3)

    assert not verify_credential(cred, 4, chain, {})  # no snapshot
    empty = {3: {}}
    assert not verify_credential(cred, 4, chain, empty)  # pk not eligible

    tampered = Credential(
        value=tagged_hash(b"cred", kp.pk, b"forged"),
        pk=kp.pk,
        anchor_height=3,
        expiry_height=6,
    )
    assert not verify_credential(tampered, 4, chain, _history(chain, kp.pk, 0, [3]))

    degenerate = Credential(value=cred.value, pk=kp.pk, anchor_height=3, expiry_height=3)
    assert not verify_credential(degenerate, 2, chain, _history(chain, kp.pk, 0, [3]))

    # Snapshot disagrees on the creation height: recomputed anchor moves.
    wrong_h0 = {3: {kp.pk: Utxo(pk=kp.pk, stake=1, created_height=1)}}
    assert not verify_credential(cred, 4, chain, wrong_h0)


def test_credential_blob_is_injective_on_fields():
    kp = keygen(b"blob")
    base = Credential(value=b"v", pk=kp.pk, anchor_height=3, expiry_height=6)
    variants = [
        Credential(value=b"w", pk=kp.pk, anchor_height=3, expiry_height=6),
        Credential(value=b"v", pk=b"other", anchor_height=3, expiry_height=6),
        Credential(value=b"v", pk=kp.pk, anchor_height=4, expiry_height=6),
        Credential(value=b"v", pk=kp.pk, anchor_height=3, expiry_height=7),
    ]
    blobs = {credential_blob(c) for c in [base] + variants}
    assert len(blobs) == len(variants) + 1

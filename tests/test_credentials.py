"""Epoch anchoring and perishable credential checks."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from shardsim.credentials import (
    Credential,
    credential_blob,
    derive_credential,
    epoch_anchor,
    verify_credential,
)
from shardsim.crypto import encode_bytes, encode_int, keygen, tagged_hash
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


@given(
    h0=st.integers(-(2**40), 2**40),
    epoch_length=st.integers(1, 2**20),
    offset=st.integers(0, 2**30),
)
def test_epoch_anchor_window(h0, epoch_length, offset):
    h = h0 + epoch_length + offset
    anchor = epoch_anchor(h0, h, epoch_length)
    assert h0 + epoch_length <= anchor <= h < anchor + epoch_length
    assert anchor % epoch_length == h0 % epoch_length
    # A renewal is due at h iff h is the anchor, which past the first epoch
    # is iff h and h0 share a residue: the harness's renewal schedule walks
    # only the UTXOs created under the residue of h.
    due = (h - h0) % epoch_length == 0
    assert due == (anchor == h) == (h % epoch_length == h0 % epoch_length)


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


def _lookup(snapshots):
    """``verify_credential``'s per-pk lookup over UTXO set snapshots by height."""
    return lambda pk, height: snapshots.get(height, {}).get(pk)


def _history(chain, pk, created_height, anchors):
    utxo = Utxo(pk=pk, stake=1, created_height=created_height)
    return _lookup({a: {pk: utxo} for a in anchors})


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

    assert not verify_credential(cred, 4, chain, _lookup({}))  # no snapshot
    empty = _lookup({3: {}})
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
    wrong_h0 = _lookup({3: {kp.pk: Utxo(pk=kp.pk, stake=1, created_height=1)}})
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


def encode_fields(cred):
    # Reference encoding: the four length-prefixed / fixed-width fields.
    return b"".join(
        (
            encode_bytes(cred.value),
            encode_bytes(cred.pk),
            encode_int(cred.anchor_height),
            encode_int(cred.expiry_height),
        )
    )


HEIGHTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(deadline=None)
@given(value=st.binary(max_size=300), pk=st.binary(max_size=300), anchor=HEIGHTS, expiry=HEIGHTS)
@example(value=b"v" * 70_000, pk=b"", anchor=-(2**63), expiry=2**63 - 1)
def test_credential_blob_is_the_field_encoding(value, pk, anchor, expiry):
    cred = Credential(value=value, pk=pk, anchor_height=anchor, expiry_height=expiry)
    assert credential_blob(cred) == encode_fields(cred)


def test_equal_credentials_hash_equal():
    kp = keygen(b"hash")
    a = derive_credential(kp.pk, 0, 3, fake_chain(8), 3)
    b = Credential(
        value=bytes(a.value), pk=bytes(a.pk), anchor_height=3, expiry_height=6
    )
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_credentials_sharing_a_value_stay_distinct():
    # Only the value is hashed, so these collide in a hash table; equality
    # on every field must still keep them apart.
    base = Credential(value=b"v" * 32, pk=b"p" * 32, anchor_height=3, expiry_height=6)
    variants = [
        replace(base, pk=b"q" * 32),
        replace(base, anchor_height=4),
        replace(base, expiry_height=7),
    ]
    for other in variants:
        assert other != base
        assert len({base, other}) == 2
        table = {base: "base", other: "other"}
        assert table[base] == "base" and table[other] == "other"
    assert len({base, *variants}) == 4

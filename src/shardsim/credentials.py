"""Epoch-anchored participation credentials.

A UTXO created at height h0 earns its first credential one full epoch
later, derived from the seed of the anchor block; the credential perishes
one epoch after its anchor.  Spending the UTXO does not revoke an already
anchored credential: eligibility is judged by the UTXO the pk held at the
anchor height, which the caller looks up (no per-height UTXO set is kept),
so a credential stays usable until its expiry.
"""

from __future__ import annotations

import struct
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .crypto import DIGEST_LEN, encode_bytes, new_records, tagged_hash_batch
from .ledger import Utxo

_HEIGHTS = struct.Struct(">qq")


class Credential(NamedTuple):
    value: bytes
    pk: bytes
    anchor_height: int
    expiry_height: int


def credential_blob(cred: Credential) -> bytes:
    """``encode_bytes(value) + encode_bytes(pk) + encode_int(anchor_height)
    + encode_int(expiry_height)``, built in one expression."""
    value, pk = cred.value, cred.pk
    return (
        len(value).to_bytes(4, "big")
        + value
        + len(pk).to_bytes(4, "big")
        + pk
        + _HEIGHTS.pack(cred.anchor_height, cred.expiry_height)
    )


# A credential as one part of a tagged preimage when its value and pk are
# both digests: the part's length prefix (88), then ``credential_blob``.
_FRAMED_DIGESTS = struct.Struct(f">II{DIGEST_LEN}sI{DIGEST_LEN}sqq")
_FRAMED_LEN = _FRAMED_DIGESTS.size - 4


def framed_blobs(creds: Iterable[Credential]) -> list[bytes]:
    """``[encode_bytes(credential_blob(c)) for c in creds]``: each credential
    length-prefixed as one part of a ``tagged_hash_framed`` preimage.

    A credential whose value and pk are both ``DIGEST_LEN`` bytes, as
    every ``derive_credential`` output is, is packed by one struct call;
    any other width keeps the generic encoding, since ``"32s"`` would pad
    or truncate it."""
    pack = _FRAMED_DIGESTS.pack
    return [
        pack(_FRAMED_LEN, DIGEST_LEN, value, DIGEST_LEN, pk, anchor, expiry)
        if len(value) == DIGEST_LEN == len(pk)
        else encode_bytes(credential_blob(Credential(value, pk, anchor, expiry)))
        for value, pk, anchor, expiry in creds
    ]


def epoch_anchor(h0: int, h: int, epoch_length: int) -> int:
    """Anchor height of the credential a UTXO from h0 holds at height h.

    The first epoch only completes at h0 + epoch_length; before that there
    is no credential to anchor.
    """
    if epoch_length < 1:
        raise ValueError("epoch length must be positive")
    if h < h0 + epoch_length:
        raise ValueError("no credential yet: first epoch not complete")
    return h0 + ((h - h0) // epoch_length) * epoch_length


def derive_credentials(
    pks: Sequence[bytes], anchor: int, seed: bytes, epoch_length: int
) -> list[Credential]:
    """The credentials anchored at ``anchor`` of ``pks``, in order: each
    value is a digest of the public key and ``seed``, the anchor block's
    seed, hashed in one ``tagged_hash_batch``."""
    values = tagged_hash_batch(b"cred", pks, seed)
    return new_records(Credential, values, pks, repeat(anchor), repeat(anchor + epoch_length))


def derive_credential(
    pk: bytes, h0: int, h: int, chain: Sequence, epoch_length: int
) -> Credential:
    """Credential at height ``h`` of ``pk``'s UTXO created at ``h0``.
    ``chain`` holds accepted headers indexed by height."""
    anchor = epoch_anchor(h0, h, epoch_length)
    if anchor >= len(chain):
        raise ValueError(f"anchor block {anchor} not accepted yet")
    (cred,) = derive_credentials((pk,), anchor, chain[anchor].seed, epoch_length)
    return cred


def verify_credential(
    cred: Credential,
    h: int,
    chain: Sequence,
    utxo_at: Callable[[bytes, int], Utxo | None],
) -> bool:
    """Recompute and check a credential at height ``h``.

    ``utxo_at(pk, height)`` is the UTXO ``pk`` held in the set after block
    ``height``, or None (also for a height that was never accepted).
    Eligibility is judged by the UTXO held at the anchor, which is what
    keeps an already derived credential alive after its UTXO is spent.
    Only a ``Credential`` passes: a plain tuple or another record type
    equal to one field for field does not.
    """
    if type(cred) is not Credential or h >= cred.expiry_height:
        return False
    epoch_length = cred.expiry_height - cred.anchor_height
    if epoch_length < 1:
        return False
    utxo = utxo_at(cred.pk, cred.anchor_height)
    if utxo is None:
        return False
    try:
        expected = derive_credential(cred.pk, utxo.created_height, h, chain, epoch_length)
    except (ValueError, IndexError):
        return False
    return expected == cred


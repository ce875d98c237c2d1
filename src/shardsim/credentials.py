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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .crypto import DIGEST_LEN, encode_bytes, tagged_hash_batch
from .ledger import Utxo

_HEIGHTS = struct.Struct(">qq")


@dataclass(frozen=True, slots=True)
class Credential:
    value: bytes
    pk: bytes
    anchor_height: int
    expiry_height: int

    def __hash__(self) -> int:
        # ``value`` is already a digest of the pk and the anchor seed;
        # equality still compares every field.
        return hash(self.value)


_new = object.__new__
_set_value, _set_pk, _set_anchor, _set_expiry = (
    Credential.__dict__[name].__set__
    for name in ("value", "pk", "anchor_height", "expiry_height")
)


def _credential(value: bytes, pk: bytes, anchor_height: int, expiry_height: int) -> Credential:
    """``Credential(value, pk, anchor_height, expiry_height)`` for
    ``derive_credentials``, without the generated frozen ``__init__``: each
    field is set through its slot descriptor, as that ``__init__`` sets it."""
    cred = _new(Credential)
    _set_value(cred, value)
    _set_pk(cred, pk)
    _set_anchor(cred, anchor_height)
    _set_expiry(cred, expiry_height)
    return cred


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
        pack(_FRAMED_LEN, DIGEST_LEN, c.value, DIGEST_LEN, c.pk, c.anchor_height, c.expiry_height)
        if len(c.value) == DIGEST_LEN == len(c.pk)
        else encode_bytes(credential_blob(c))
        for c in creds
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
    expiry = anchor + epoch_length
    values = tagged_hash_batch(b"cred", pks, seed)
    return [_credential(value, pk, anchor, expiry) for value, pk in zip(values, pks)]


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
    """
    if h >= cred.expiry_height:
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


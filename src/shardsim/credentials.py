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
from typing import Callable, Sequence

from .crypto import tagged_hash
from .ledger import Utxo

_HEIGHTS = struct.Struct(">qq")


@dataclass(frozen=True)
class Credential:
    value: bytes
    pk: bytes
    anchor_height: int
    expiry_height: int

    def __hash__(self) -> int:
        # ``value`` is already a digest of the pk and the anchor seed;
        # equality still compares every field.
        return hash(self.value)


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


def derive_credential(
    pk: bytes, h0: int, h: int, chain: Sequence, epoch_length: int
) -> Credential:
    """Credential value for ``pk`` at height ``h``: a digest of the public
    key and the anchor block's seed.  ``chain`` holds accepted headers
    indexed by height."""
    anchor = epoch_anchor(h0, h, epoch_length)
    if anchor >= len(chain):
        raise ValueError(f"anchor block {anchor} not accepted yet")
    seed = chain[anchor].seed
    value = tagged_hash(b"cred", pk, seed)
    return Credential(
        value=value, pk=pk, anchor_height=anchor, expiry_height=anchor + epoch_length
    )


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


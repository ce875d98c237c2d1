"""UTXO ledger: transactions, blocks, validation and state transitions.

State updates are pure.  ``apply_transaction`` copies its input once;
``apply_block`` copies it once per block, whatever the number of
transactions; ``validate_block`` and ``blocks.build_proposal`` replay a
body on one private copy.  All of them apply transactions with the
in-place ``spend`` step, the only function that mutates a state, and only
a state its caller owns; no function here mutates a state it was given.
The simulation's ``UtxoIndex`` spends each accepted block with ``spend``,
in place on the live set it owns.

All encodings are canonical (length-prefixed fields, big-endian integers)
so identical objects always hash to identical digests.  A header is frozen,
so its two digests, ``core_digest`` and ``digest`` (``header_hash``), are
computed once and cached on it; a ``replace``d or newly built header starts
uncached.  Transaction fees are burned, never redistributed, so total stake
can only shrink.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Mapping, NamedTuple, Sequence

from .crypto import (
    DIGEST_LEN,
    ZERO_DIGEST,
    KeyPair,
    Signature,
    VrfOutput,
    encode_bytes,
    encode_int,
    encode_parts,
    encode_str,
    new_records,
    sign_batch,
    tagged_hash,
    tagged_hash_framed,
    verify_sig_batch,
    vrf_verify_batch,
)

UtxoSet = dict  # pk -> Utxo


@dataclass(frozen=True)
class Validity:
    """Boolean check outcome carrying a reason code on failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


VALID = Validity(True)


class Utxo(NamedTuple):
    pk: bytes
    stake: int
    created_height: int


class TxOutput(NamedTuple):
    pk: bytes
    stake: int


@dataclass(frozen=True)
class Transaction:
    inputs: tuple[bytes, ...]
    outputs: tuple[TxOutput, ...]
    signatures: tuple[Signature, ...]
    tx_id: bytes = field(init=False)

    def __post_init__(self):
        blob = _encode_io(self.inputs, self.outputs)
        sig_blob = b"".join(
            encode_bytes(s.value) + encode_bytes(s.signer_pk) for s in self.signatures
        )
        object.__setattr__(self, "tx_id", tagged_hash(b"tx", blob, sig_blob))


@dataclass(frozen=True)
class ShardSignature:
    """A shard-level endorsement: enough core-member signatures to force
    at least one honest signer in a non-corrupted shard."""

    label: str
    view_height: int
    member_sigs: tuple[tuple[bytes, Signature], ...]


@dataclass(frozen=True)
class BlockHeader:
    prev_hash: bytes
    height: int
    seed: bytes
    body_hash: bytes
    vrf_proofs: tuple[tuple[bytes, VrfOutput], ...]
    proposer_label: str
    certificate: tuple[ShardSignature, ...]

    @cached_property
    def core_digest(self) -> bytes:
        """Digest of everything but the certificate, which shard signatures
        sign (the body is bound through ``body_hash``), computed once: the
        header is frozen, and a ``replace``d copy starts without it."""
        return tagged_hash(
            b"block-core",
            encode_bytes(self.prev_hash),
            encode_int(self.height),
            encode_bytes(self.seed),
            encode_bytes(self.body_hash),
            encode_str(self.proposer_label),
            _vrf_blob(self.vrf_proofs),
        )

    @cached_property
    def digest(self) -> bytes:
        """Digest of the whole header, computed once like ``core_digest``."""
        return tagged_hash(b"block", self.core_digest, _certificate_blob(self.certificate))


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    body: tuple[Transaction, ...]


# A (pk, stake) output as ``encode_bytes(pk) + encode_int(stake)`` when the
# pk is a digest.
_FRAMED_OUTPUT = struct.Struct(f">I{DIGEST_LEN}sq")


def _encode_io(inputs: Sequence[bytes], outputs: Sequence[TxOutput]) -> bytes:
    """The inputs as framed pks, then each output's framed pk and its
    stake as ``encode_int``, each run led by its count.  An output whose pk
    is ``DIGEST_LEN`` bytes wide is packed by one struct call; any other
    width keeps ``encode_bytes``."""
    pack = _FRAMED_OUTPUT.pack
    return b"".join(
        [
            encode_int(len(inputs)),
            encode_parts(inputs),
            encode_int(len(outputs)),
            *[
                pack(DIGEST_LEN, out.pk, out.stake)
                if len(out.pk) == DIGEST_LEN
                else encode_bytes(out.pk) + encode_int(out.stake)
                for out in outputs
            ],
        ]
    )


def tx_signing_digest(inputs: Sequence[bytes], outputs: Sequence[TxOutput]) -> bytes:
    """Digest each input owner signs; excludes the signatures themselves."""
    return tagged_hash(b"tx-sign", _encode_io(inputs, outputs))


def make_transaction(
    input_keys: Sequence, outputs: Sequence[TxOutput]
) -> Transaction:
    """Build a transaction spending ``input_keys`` (KeyPair per input)."""
    inputs = tuple(kp.pk for kp in input_keys)
    msg = tx_signing_digest(inputs, outputs)
    sigs = tuple(sign_batch(input_keys, msg))
    return Transaction(inputs=inputs, outputs=tuple(outputs), signatures=sigs)


def body_digest(body: Sequence[Transaction]) -> bytes:
    return tagged_hash(b"body", *[tx.tx_id for tx in body])


def _vrf_blob(vrf_proofs: Sequence[tuple[bytes, VrfOutput]]) -> bytes:
    return encode_int(len(vrf_proofs)) + encode_parts(
        [part for pk, out in vrf_proofs for part in (pk, out.value, out.proof)]
    )


def _certificate_blob(certificate: Sequence[ShardSignature]) -> bytes:
    parts = [encode_int(len(certificate))]
    for ss in sorted(certificate, key=lambda s: s.label):
        member_sigs = sorted(ss.member_sigs, key=lambda ps: ps[0])
        parts.append(encode_str(ss.label))
        parts.append(encode_int(ss.view_height))
        parts.append(encode_int(len(member_sigs)))
        parts.append(
            encode_parts([p for pk, sig in member_sigs for p in (pk, sig.value, sig.signer_pk)])
        )
    return b"".join(parts)


def header_hash(header: BlockHeader) -> bytes:
    """Chain-linkage digest, cached on the header: binds the whole header,
    certificate included, and the body via ``body_hash``."""
    return header.digest


def block_seed(vrf_values: Sequence[bytes]) -> bytes:
    """Next-block randomness: digest of the decided VRF values in order."""
    if not vrf_values:
        raise ValueError("a block seed needs at least one VRF contribution")
    return tagged_hash_framed(b"seed", encode_parts(vrf_values))


def total_stake(state: Mapping[bytes, Utxo]) -> int:
    return sum(u.stake for u in state.values())


def validate_transaction(
    state: Mapping[bytes, Utxo], tx: Transaction, stake_cap: int
) -> Validity:
    """Check a transaction against the current UTXO set.

    Reason codes: missing-input, duplicate, bad-signature, cap, imbalance.
    """
    if len(tx.inputs) == 0:
        return Validity(False, "missing-input")
    if len(set(tx.inputs)) != len(tx.inputs):
        return Validity(False, "duplicate")
    for pk in tx.inputs:
        if pk not in state:
            return Validity(False, "missing-input")
    out_pks = [o.pk for o in tx.outputs]
    if len(set(out_pks)) != len(out_pks):
        return Validity(False, "duplicate")
    for pk in out_pks:
        if pk in state and pk not in tx.inputs:
            return Validity(False, "duplicate")
    for out in tx.outputs:
        if out.stake < 1 or out.stake > stake_cap:
            return Validity(False, "cap")
    if sum(state[pk].stake for pk in tx.inputs) < sum(o.stake for o in tx.outputs):
        return Validity(False, "imbalance")
    if len(tx.signatures) != len(tx.inputs):
        return Validity(False, "bad-signature")
    msg = tx_signing_digest(tx.inputs, tx.outputs)
    if not all(verify_sig_batch(tuple(zip(tx.inputs, tx.signatures)), msg)):
        return Validity(False, "bad-signature")
    return VALID


def spend(running: UtxoSet, tx: Transaction, height: int) -> None:
    """Apply a validated transaction in place to a state the caller owns:
    delete its inputs, add its outputs."""
    for pk in tx.inputs:
        del running[pk]
    for out in tx.outputs:
        running[out.pk] = tuple.__new__(Utxo, (out.pk, out.stake, height))


def apply_transaction(state: UtxoSet, tx: Transaction, height: int) -> UtxoSet:
    """Pure state update (one copy of ``state``); caller must have
    validated the transaction."""
    new_state = dict(state)
    spend(new_state, tx, height)
    return new_state


def apply_block(state: UtxoSet, block: Block) -> UtxoSet:
    """Pure state update: ``state`` itself for an empty body, otherwise
    one copy of ``state`` with the whole body spent on it.  Caller must
    have validated the block."""
    if not block.body:
        return state
    running = dict(state)
    for tx in block.body:
        spend(running, tx, block.header.height)
    return running


@dataclass(frozen=True)
class BlockRules:
    """Parameters a block validator needs."""

    stake_cap: int
    f_shard: int
    mu_core: Fraction
    s_min: int


def shard_signature_digest(label: str, core_digest: bytes) -> bytes:
    return tagged_hash(b"block-sig", encode_str(label), core_digest)


def shard_quorum(mu_core: Fraction, s_min: int, core_size: int) -> int:
    """Signatures of a shard's core needed before a view or a block
    endorsement counts, for signers and verifiers alike.

    Strictly more than mu_core * n, so at least one signer is honest
    whenever the shard is within its corruption bound.  n is s_min for a
    full-size core and the core size for a degraded one, so an undersized
    shard can still track its membership.  Computed in integers, as
    ``protocols.within_bound`` is: ``int(mu_core * n) + 1`` without
    building a ``Fraction``.
    """
    return mu_core.numerator * min(s_min, core_size) // mu_core.denominator + 1


def certificate_quorum(f: int) -> int:
    """Committee shards that must endorse a block, for f = f_shard: 2 f + 1."""
    return 2 * f + 1


def sign_until_quorum(
    signers: Iterable[bytes],
    keys: Mapping[bytes, KeyPair],
    msg: bytes,
    quorum: int,
) -> list[tuple[bytes, Signature]]:
    """The willing ``signers`` sign ``msg`` in their order until ``quorum``
    distinct signatures are collected.

    ``keys`` maps pks to key pairs; a signer without one does not sign.
    Signers are read only until the quorum: the first ``quorum`` with a key
    are taken at once, and only if a pk repeats among them are the rest read
    one by one.  The chosen key pairs then sign in one ``sign_batch``.
    Returns the (pk, signature) pairs in signer order, fewer than ``quorum``
    when the willing signers run out.  Every signer signs the same message,
    so a further signature could not change a quorum verdict.
    """
    keyed = filter(keys.__contains__, signers)
    chosen = list(islice(keyed, quorum))
    if len(set(chosen)) < len(chosen):
        distinct: dict[bytes, None] = {}
        for pk in chain(chosen, keyed):
            if len(distinct) == quorum:
                break
            distinct[pk] = None
        chosen = list(distinct)
    return list(zip(chosen, sign_batch(list(map(keys.__getitem__, chosen)), msg)))


def count_signers(
    signatures: Iterable[tuple[bytes, Signature]], allowed_pks, msg: bytes
) -> int:
    """Distinct allowed pks with a valid signature over ``msg``; repeated
    and outside signers count for nothing.

    The allowed entries are checked in one ``verify_sig_batch``, which
    hashes the expected value of each distinct pk once; a pk counts once
    if any of its entries is valid."""
    allowed = [(pk, sig) for pk, sig in signatures if pk in allowed_pks]
    valid = verify_sig_batch(allowed, msg)
    return len({pk for (pk, _), ok in zip(allowed, valid) if ok})


def validate_certificate(
    block: Block, directory, rules: BlockRules, committee: Sequence[str]
) -> Validity:
    """Check that ``certificate_quorum`` committee shards endorse the
    block's core digest, each with the ``shard_quorum`` of its registered
    core that ``shard_sign_block`` collects.

    A shard signature from outside ``committee``, a repeated shard and a
    shard with no view in ``directory`` count for nothing.  Only the
    certificate is checked: the header and body are ``validate_block``'s.
    """
    core_digest = block.header.core_digest
    endorsers = set()
    for ss in block.header.certificate:
        if ss.label not in committee or ss.label in endorsers:
            continue
        signer_view = directory.get(ss.label)
        if signer_view is None:
            continue
        signer_core = set(signer_view.core_pks)
        quorum = shard_quorum(rules.mu_core, rules.s_min, len(signer_view.core))
        msg = shard_signature_digest(ss.label, core_digest)
        if count_signers(ss.member_sigs, signer_core, msg) >= quorum:
            endorsers.add(ss.label)
    if len(endorsers) < certificate_quorum(rules.f_shard):
        return Validity(False, "certificate")
    return VALID


def validate_block(
    state: Mapping[bytes, Utxo],
    directory,
    block: Block,
    prev: BlockHeader,
    rules: BlockRules,
    committee: Sequence[str],
    require_certificate: bool = True,
) -> Validity:
    """Full block check against the previous header and registered views.

    ``directory`` maps shard labels to their installed views; ``committee``
    is the elected shard list for this height (recomputable by anyone from
    the previous seed).  ``require_certificate=False`` is the pre-agreement
    mode: committee members vote on candidates before endorsement
    signatures exist, so only the certificate count is waived.  The body is
    replayed on one private copy of ``state``, which is never mutated.
    """
    hdr = block.header
    if hdr.height != prev.height + 1:
        return Validity(False, "height")
    if hdr.prev_hash != header_hash(prev):
        return Validity(False, "linkage")
    if hdr.body_hash != body_digest(block.body):
        return Validity(False, "body-hash")
    if hdr.proposer_label not in committee:
        return Validity(False, "proposer")

    proposer_view = directory.get(hdr.proposer_label)
    if proposer_view is None:
        return Validity(False, "proposer")
    # Outsiders and repeated pks first, then every VRF value and proof in
    # one batch.
    vrf_pks = [pk for pk, _ in hdr.vrf_proofs]
    if not vrf_pks or len(set(vrf_pks)) < len(vrf_pks):
        return Validity(False, "vrf")
    if not set(proposer_view.core_pks).issuperset(vrf_pks):
        return Validity(False, "vrf")
    if not all(vrf_verify_batch(hdr.vrf_proofs, prev.seed)):
        return Validity(False, "vrf")
    if hdr.seed != block_seed([out.value for _, out in hdr.vrf_proofs]):
        return Validity(False, "seed")

    if require_certificate:
        check = validate_certificate(block, directory, rules, committee)
        if not check:
            return check

    running = dict(state)
    seen_tx = set()
    for tx in block.body:
        if tx.tx_id in seen_tx:
            return Validity(False, "duplicate")
        seen_tx.add(tx.tx_id)
        check = validate_transaction(running, tx, rules.stake_cap)
        if not check:
            return Validity(False, check.reason)
        spend(running, tx, hdr.height)
    return VALID


def make_genesis(
    utxos: Iterable[tuple[bytes, int]], seed: bytes, stake_cap: int
) -> Block:
    """Height-0 block carrying the initial UTXO set.

    The genesis block has no parent, no VRF proofs and an empty certificate;
    its seed is the configured scenario seed digest.  Stakes must respect
    the per-UTXO cap.
    """
    pks, stakes = [], []
    seen = set()
    for pk, stake in utxos:
        if stake < 1 or stake > stake_cap:
            raise ValueError(f"genesis stake {stake} outside [1, {stake_cap}]")
        if pk in seen:
            raise ValueError("duplicate genesis pk")
        seen.add(pk)
        pks.append(pk)
        stakes.append(stake)
    outputs = tuple(new_records(TxOutput, pks, stakes))
    genesis_tx = Transaction(inputs=(), outputs=outputs, signatures=())
    body = (genesis_tx,)
    header = BlockHeader(
        prev_hash=ZERO_DIGEST,
        height=0,
        seed=seed,
        body_hash=body_digest(body),
        vrf_proofs=(),
        proposer_label="",
        certificate=(),
    )
    return Block(header=header, body=body)

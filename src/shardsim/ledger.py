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
so its two digests, ``block_core_digest`` and ``header_hash``, are computed
once and cached on it; a ``replace``d or newly built header starts
uncached.  Transaction fees are burned, never redistributed, so total stake
can only shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Container, Iterable, Mapping, Sequence

from .crypto import (
    ZERO_DIGEST,
    KeyPair,
    Signature,
    VrfOutput,
    encode_bytes,
    encode_int,
    encode_str,
    sign,
    tagged_hash,
    verify_sig,
    vrf_verify,
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


@dataclass(frozen=True)
class Utxo:
    pk: bytes
    stake: int
    created_height: int


@dataclass(frozen=True)
class TxOutput:
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
        """Digest of everything but the certificate, computed once: the
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


def _encode_io(inputs: Sequence[bytes], outputs: Sequence[TxOutput]) -> bytes:
    parts = [encode_int(len(inputs))]
    parts.extend(encode_bytes(pk) for pk in inputs)
    parts.append(encode_int(len(outputs)))
    for out in outputs:
        parts.append(encode_bytes(out.pk))
        parts.append(encode_int(out.stake))
    return b"".join(parts)


def tx_signing_digest(inputs: Sequence[bytes], outputs: Sequence[TxOutput]) -> bytes:
    """Digest each input owner signs; excludes the signatures themselves."""
    return tagged_hash(b"tx-sign", _encode_io(inputs, outputs))


def make_transaction(
    input_keys: Sequence, outputs: Sequence[TxOutput]
) -> Transaction:
    """Build a transaction spending ``input_keys`` (KeyPair per input)."""
    inputs = tuple(kp.pk for kp in input_keys)
    msg = tx_signing_digest(inputs, outputs)
    sigs = tuple(sign(kp, msg) for kp in input_keys)
    return Transaction(inputs=inputs, outputs=tuple(outputs), signatures=sigs)


def body_digest(body: Sequence[Transaction]) -> bytes:
    return tagged_hash(b"body", *[tx.tx_id for tx in body])


def _vrf_blob(vrf_proofs: Sequence[tuple[bytes, VrfOutput]]) -> bytes:
    parts = [encode_int(len(vrf_proofs))]
    for pk, out in vrf_proofs:
        parts.append(encode_bytes(pk))
        parts.append(encode_bytes(out.value))
        parts.append(encode_bytes(out.proof))
    return b"".join(parts)


def block_core_digest(header: BlockHeader) -> bytes:
    """Digest of everything in the header except the certificate, cached
    on the header.

    Shard signatures in the certificate sign this digest; the body is bound
    through ``body_hash``.
    """
    return header.core_digest


def _certificate_blob(certificate: Sequence[ShardSignature]) -> bytes:
    parts = [encode_int(len(certificate))]
    for ss in sorted(certificate, key=lambda s: s.label):
        parts.append(encode_str(ss.label))
        parts.append(encode_int(ss.view_height))
        parts.append(encode_int(len(ss.member_sigs)))
        for pk, sig in sorted(ss.member_sigs, key=lambda ps: ps[0]):
            parts.append(encode_bytes(pk))
            parts.append(encode_bytes(sig.value))
            parts.append(encode_bytes(sig.signer_pk))
    return b"".join(parts)


def header_hash(header: BlockHeader) -> bytes:
    """Chain-linkage digest, cached on the header: binds the whole header,
    certificate included, and the body via ``body_hash``."""
    return header.digest


def block_seed(vrf_values: Sequence[bytes]) -> bytes:
    """Next-block randomness: digest of the decided VRF values in order."""
    if not vrf_values:
        raise ValueError("a block seed needs at least one VRF contribution")
    return tagged_hash(b"seed", *vrf_values)


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
    for pk, sig in zip(tx.inputs, tx.signatures):
        if not verify_sig(pk, msg, sig):
            return Validity(False, "bad-signature")
    return VALID


def spend(running: UtxoSet, tx: Transaction, height: int) -> None:
    """Apply a validated transaction in place to a state the caller owns:
    delete its inputs, add its outputs."""
    for pk in tx.inputs:
        del running[pk]
    for out in tx.outputs:
        running[out.pk] = Utxo(pk=out.pk, stake=out.stake, created_height=height)


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


def install_threshold(mu_core: Fraction, core_size: int) -> int:
    """Signatures needed before a view or a block endorsement counts.

    Strictly more than mu_core * core_size, so at least one signer is
    honest whenever the shard is within its corruption bound.
    """
    return int(mu_core * core_size) + 1


def shard_quorum(mu_core: Fraction, s_min: int, core_size: int) -> int:
    """Quorum of a shard's core: measured against s_min for full-size
    shards and against the actual core size for degraded ones, so an
    undersized shard can still track its membership."""
    return install_threshold(mu_core, min(s_min, core_size))


def sign_until_quorum(
    pks: Iterable[bytes],
    keys: Mapping[bytes, KeyPair],
    msg: bytes,
    quorum: int,
    withheld: Container[bytes] = (),
) -> list[tuple[bytes, Signature]]:
    """Willing members sign ``msg`` in the order of ``pks`` until ``quorum``
    distinct signatures are collected.

    ``keys`` maps pks to key pairs; a pk without one, or in ``withheld``,
    does not sign.  Keys are looked up only for the members reached before
    the quorum.  Returns the signatures collected, fewer than ``quorum``
    when the willing members run out.  Every signer signs the same
    message, so a further signature could not change a quorum verdict.
    """
    sigs: dict[bytes, Signature] = {}
    for pk in pks:
        if len(sigs) == quorum:
            break
        if pk in withheld or pk in sigs:
            continue
        kp = keys.get(pk)
        if kp is not None:
            sigs[pk] = sign(kp, msg)
    return list(sigs.items())


def count_signers(
    signatures: Iterable[tuple[bytes, Signature]], allowed_pks, msg: bytes
) -> int:
    """Distinct allowed pks with a valid signature over ``msg``; repeated
    and outside signers count for nothing."""
    signers = set()
    for pk, sig in signatures:
        if pk in allowed_pks and pk not in signers and verify_sig(pk, msg, sig):
            signers.add(pk)
    return len(signers)


def _shard_signature_valid(
    ss: ShardSignature, core_digest: bytes, core_pks: set[bytes], rules: BlockRules
) -> bool:
    # s_min rather than shard_quorum's core-size reference: committee
    # eligibility excludes degraded shards, so the two rules agree on every
    # reachable input.
    quorum = install_threshold(rules.mu_core, rules.s_min)
    msg = shard_signature_digest(ss.label, core_digest)
    return count_signers(ss.member_sigs, core_pks, msg) >= quorum


def validate_certificate(
    block: Block, directory, rules: BlockRules, committee: Sequence[str]
) -> Validity:
    """Check that at least 2 f_shard + 1 committee shards endorse the
    block's core digest, each with a quorum of its registered core.

    A shard signature from outside ``committee``, a repeated shard and a
    shard with no view in ``directory`` count for nothing.  Only the
    certificate is checked: the header and body are ``validate_block``'s.
    """
    core_digest = block_core_digest(block.header)
    endorsers = set()
    for ss in block.header.certificate:
        if ss.label not in committee or ss.label in endorsers:
            continue
        signer_view = directory.get(ss.label)
        if signer_view is None:
            continue
        signer_core = {c.pk for c in signer_view.core}
        if _shard_signature_valid(ss, core_digest, signer_core, rules):
            endorsers.add(ss.label)
    if len(endorsers) < 2 * rules.f_shard + 1:
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
    core_pks = {c.pk for c in proposer_view.core}
    if not hdr.vrf_proofs:
        return Validity(False, "vrf")
    seen_vrf = set()
    for pk, out in hdr.vrf_proofs:
        if pk not in core_pks or pk in seen_vrf:
            return Validity(False, "vrf")
        if not vrf_verify(pk, prev.seed, out):
            return Validity(False, "vrf")
        seen_vrf.add(pk)
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
    outputs = []
    seen = set()
    for pk, stake in utxos:
        if stake < 1 or stake > stake_cap:
            raise ValueError(f"genesis stake {stake} outside [1, {stake_cap}]")
        if pk in seen:
            raise ValueError("duplicate genesis pk")
        seen.add(pk)
        outputs.append(TxOutput(pk=pk, stake=stake))
    genesis_tx = Transaction(inputs=(), outputs=tuple(outputs), signatures=())
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

"""Per-height block pipeline pieces: committee election, proposal
construction and certification.

The committee for height h is drawn from the previous block's seed, so it
cannot be computed before that block is decided.  Each committee shard
builds its proposal from a vector agreement over its core members'
(pending transactions, VRF contribution) pairs; the decided VRF values
define the next seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .crypto import KeyPair, Prg, VrfOutput
from .ledger import (
    Block,
    BlockHeader,
    ShardSignature,
    Transaction,
    block_seed,
    body_digest,
    header_hash,
    shard_quorum,
    shard_signature_digest,
    sign_until_quorum,
    spend,
    validate_transaction,
)
from .membership import ShardView
from .protocols import ParticipantSet, VectorDecision, vector_consensus
from .sampling import sample_without_replacement


def committee_size(f_shard: int, mu_corrupted: Fraction) -> int:
    """Shards needed so that tolerating f_shard corrupted ones keeps the
    corrupted committee fraction within mu_corrupted."""
    if f_shard < 0:
        raise ValueError("f_shard must be non-negative")
    if mu_corrupted <= 0:
        raise ValueError("mu_corrupted must be positive")
    return math.ceil(Fraction(f_shard) / Fraction(mu_corrupted)) + 1


@dataclass(frozen=True)
class Committee:
    labels: tuple[str, ...]
    shortfall: bool = False


def elect_committee(eligible: Iterable[str], prev_seed: bytes, s_c: int) -> Committee:
    """Deterministic committee from the previous block seed.

    Labels are ordered lexicographically, then repeatedly sampled without
    replacement by PRG draws; the resulting order is also the leader order.
    If fewer than ``s_c`` shards are eligible the committee is every
    eligible shard and the shortfall is flagged (parameterization fault).
    """
    pool = sorted(eligible)
    if len(pool) < s_c:
        return Committee(labels=tuple(pool), shortfall=True)
    prg = Prg(prev_seed)
    picked = sample_without_replacement(prg, pool, s_c)
    return Committee(labels=tuple(picked), shortfall=False)


def build_proposal(
    label: str,
    core: ParticipantSet,
    prev_header: BlockHeader,
    state: Mapping,
    member_inputs: Mapping[bytes, tuple[tuple[Transaction, ...], VrfOutput]],
    stake_cap: int,
    decision: VectorDecision | None = None,
) -> Block | None:
    """Run a shard's internal proposal agreement and assemble the block.

    ``core`` is the shard's core in core order with its corrupted members;
    ``member_inputs`` holds, per core member, what that member would
    honestly propose.  The body is the union of the decided transaction
    lists: duplicates collapse by id and the union is validated
    sequentially in id order, so of two conflicting spends exactly the one
    with the lexicographically smallest id survives; ``state`` is replayed
    on one private copy and never mutated.  Returns None when the decided
    vector carries no VRF value at all (no seed can be formed).
    """
    vector = vector_consensus(core, dict(member_inputs), decision)

    vrf_proofs = []
    union: dict[bytes, Transaction] = {}
    # Honest members propose the same transaction tuple, so each distinct
    # list is walked once; the slots keep every list alive, so ids are unique.
    walked = set()
    for pk, slot in zip(core.members, vector):
        if slot is None:
            continue
        txs, vrf_out = slot
        vrf_proofs.append((pk, vrf_out))
        if id(txs) in walked:
            continue
        walked.add(id(txs))
        for tx in txs:
            union.setdefault(tx.tx_id, tx)
    if not vrf_proofs:
        return None

    body = []
    running = dict(state)
    for tx_id in sorted(union):
        tx = union[tx_id]
        if validate_transaction(running, tx, stake_cap):
            spend(running, tx, prev_header.height + 1)
            body.append(tx)

    body_tuple = tuple(body)
    header = BlockHeader(
        prev_hash=header_hash(prev_header),
        height=prev_header.height + 1,
        seed=block_seed([out.value for _, out in vrf_proofs]),
        body_hash=body_digest(body_tuple),
        vrf_proofs=tuple(vrf_proofs),
        proposer_label=label,
        certificate=(),
    )
    return Block(header=header, body=body_tuple)


def shard_sign_block(
    label: str,
    view: ShardView,
    block: Block,
    keyring: Mapping[bytes, KeyPair],
    signers: Iterable[bytes],
    mu_core: Fraction,
    s_min: int,
) -> ShardSignature | None:
    """Endorse a decided block with a quorum of core-member signatures.

    ``signers`` are the core pks willing to sign, in core order; each one
    with a key pair in ``keyring`` signs until the quorum.  Returns None if
    the willing signers cannot reach the quorum.
    """
    quorum = shard_quorum(mu_core, s_min, len(view.core))
    msg = shard_signature_digest(label, block.header.core_digest)
    sigs = sign_until_quorum(signers, keyring, msg, quorum)
    if len(sigs.pks) < quorum:
        return None
    return ShardSignature(label=label, view_height=view.height, member_sigs=sigs)


def attach_certificate(block: Block, shard_sigs: Sequence[ShardSignature]) -> Block:
    """``block`` with a certificate of ``shard_sigs`` in label order.

    The core digest leaves the certificate out, so the certified header
    carries the uncertified one's; its full digest is its own.
    """
    header = replace(
        block.header, certificate=tuple(sorted(shard_sigs, key=lambda s: s.label))
    )
    # ``core_digest`` is a ``cached_property``, which caches in the
    # instance dict; the frozen dataclass leaves that dict writable.
    header.__dict__["core_digest"] = block.header.core_digest
    return Block(header=header, body=block.body)

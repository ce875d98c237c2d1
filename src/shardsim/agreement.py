"""Block agreement of one height, as plain functions over a ``Simulation``:
committee election, per-shard proposals, verifiable BA over them, the
shards' endorsements, and acceptance on every observer's chain.

A committee past its corruption bound may dictate a block; a dictated block
is validated again before any honest member endorses it, and the adversary
may split the observers with two certified variants of one block.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Mapping

from .blocks import attach_certificate, build_proposal, elect_committee, shard_sign_block
from .crypto import encode_int, tagged_hash, vrf_eval_batch
from .ledger import (
    Block,
    ShardSignature,
    Transaction,
    TxOutput,
    body_digest,
    certificate_quorum,
    header_hash,
    make_transaction,
    validate_block,
    validate_certificate,
)
from .oracles import InvariantError
from .protocols import ParticipantSet, verifiable_ba

if TYPE_CHECKING:
    from .harness import Simulation


def produce_block(sim: Simulation, height: int) -> bool:
    prev = sim.chain[-1].header
    eligible = sorted(
        label
        for label, view in sim.directory.items()
        if view.height == height and len(view.core) >= sim.cfg.s_min
    )
    committee_record: list[str] = []
    accepted_block = None
    outcome_rounds = 0
    # Joins this height's view updates consumed, i.e. submissions from the
    # previous renewals phase.
    joins = sim.joins_submitted
    sim.joins_submitted = 0
    if not eligible:
        sim.metrics.incident(height, "no-eligible-shards")
    else:
        # The height only moves on an accepted block, so ``attempt`` counts
        # the failed tries at this height.
        attempt = sim.attempt
        elect_seed = (
            prev.seed if attempt == 0 else tagged_hash(b"retry", prev.seed, encode_int(attempt))
        )
        committee = elect_committee(eligible, elect_seed, sim.s_c)
        committee_record = list(committee.labels)
        if committee.shortfall:
            sim.metrics.incident(height, "committee-shortfall", have=len(eligible))
        sim.events.emit("committee", height, labels=committee_record, attempt=attempt)
        accepted_block, outcome_rounds = _agree_block(sim, height, prev, committee)

    accepted = accepted_block is not None
    sim.attempt = 0 if accepted else sim.attempt + 1
    sim.metrics.record_height(
        height=height,
        block=header_hash(accepted_block.header).hex() if accepted else "",
        committee=committee_record,
        leader_rounds=outcome_rounds,
        corrupted_shards=sum(1 for view in sim.directory.values() if sim.shard_corrupted(view)),
        shards=len(sim.directory),
        members=sum(len(v.core) + len(v.spare) for v in sim.directory.values()),
        joins=joins,
        txs_included=len(accepted_block.body) if accepted else 0,
        messages_total=sim.meter.total,
    )
    return accepted


def _agree_block(sim: Simulation, height: int, prev, committee) -> tuple[Block | None, int]:
    cfg = sim.cfg
    pending_txs = tuple(sim.pending[k] for k in sorted(sim.pending))
    proposals: dict[str, Block] = {}
    corrupted_labels = set()
    for label in committee.labels:
        core = sim.core_parts(sim.directory[label])
        if not core.within(cfg.mu_core):
            corrupted_labels.add(label)
        # Every member with a key evaluates its VRF, in one batch.
        kps = [kp for kp in map(sim.keyring.get, core.members) if kp is not None]
        honest_inputs = {
            kp.pk: (pending_txs, out) for kp, out in zip(kps, vrf_eval_batch(kps, prev.seed))
        }
        decision = sim.strategy.vector_decision(core, honest_inputs, purpose="proposal")
        sim.meter.charge_instance(core.n)
        proposal = build_proposal(
            label, core, prev, sim.utxos.live, honest_inputs, cfg.stake_cap, decision=decision
        )
        if proposal is not None:
            proposals[label] = proposal

    # Nothing below changes a committee core's corrupted set, so each
    # shard's corruption is judged once, here.
    parts = ParticipantSet(members=tuple(committee.labels), byzantine=frozenset(corrupted_labels))

    def block_valid(candidate: Block) -> bool:
        # Pre-agreement check: the certificate only exists after the
        # committee has decided and endorsed.
        return bool(
            validate_block(
                sim.utxos.live,
                sim.directory,
                candidate,
                prev,
                sim.rules,
                committee.labels,
                require_certificate=False,
            )
        )

    decision = sim.strategy.ba_decision(parts, proposals)
    # A committee member is a shard whose s_min core members all take part,
    # so the instance runs over labels * s_min participants.
    sim.meter.charge_instance(len(committee.labels) * cfg.s_min)
    outcome = verifiable_ba(parts, proposals, block_valid, cfg.mu_corrupted, decision)
    if not outcome.contract_held:
        sim.metrics.incident(height, "corrupted-committee", labels=sorted(parts.byzantine))

    decided, rounds = outcome.value, outcome.rounds
    if decided is None and not outcome.contract_held:
        return _try_equivocation(sim, height, committee, proposals, parts.byzantine, rounds)
    if decided is None:
        return _no_block(sim, height, "no-decision", rounds)

    # Within its contract the BA only decides a block that passed
    # block_valid; only a dictated block needs validating again.
    valid = outcome.contract_held or block_valid(decided)
    certified, shard_sigs = _endorse(
        sim, decided, committee, parts.byzantine, valid, sim.strategy.signs()
    )
    sim.meter.charge(sum(len(ss.member_sigs.pks) for ss in shard_sigs))
    if certified is None:
        return _no_block(sim, height, "certificate-shortfall", rounds)

    # Header and body passed block_valid; only the certificate is new.
    if outcome.contract_held:
        final = validate_certificate(certified, sim.directory, sim.rules, committee.labels)
        if not final:
            raise InvariantError(f"certified block failed validation: {final.reason}")
    accept(sim, certified, height, leader=outcome.leader)
    return certified, rounds


def _endorse(
    sim: Simulation, block: Block, committee, byz_labels, honest_sign: bool, byz_sign: bool
) -> tuple[Block | None, list[ShardSignature]]:
    """Collect each committee shard's endorsement of ``block`` and, with at
    least ``certificate_quorum`` of them, attach the certificate.

    An honest member signs iff ``honest_sign``; a corrupted member signs iff
    ``byz_sign`` or its shard is in ``byz_labels`` (past mu_core), since a
    corrupted quorum certifies anything the adversary wants.  Returns the
    certified block (None on a shortfall) and the shard signatures collected
    either way.
    """
    cfg = sim.cfg
    shard_sigs = []
    for label in committee.labels:
        view = sim.directory[label]
        signers = sim.willing_signers(view, honest_sign, byz_sign or label in byz_labels)
        ss = shard_sign_block(label, view, block, sim.keyring, signers, cfg.mu_core, cfg.s_min)
        if ss is not None:
            shard_sigs.append(ss)
    if len(shard_sigs) < certificate_quorum(cfg.f_shard):
        return None, shard_sigs
    return attach_certificate(block, shard_sigs), shard_sigs


def _no_block(sim: Simulation, height: int, kind: str, rounds: int) -> tuple[None, int]:
    """A height that ends without a block: record why."""
    sim.metrics.incident(height, kind)
    sim.events.emit("no-block", height, rounds=rounds)
    return None, rounds


def _try_equivocation(
    sim: Simulation, height, committee, proposals, byz_labels, rounds
) -> tuple[Block | None, int]:
    """Contract-void committee: the adversary may split observers with two
    certified variants, crash the height, or certify one block."""
    base = next((proposals[label] for label in sorted(byz_labels) if label in proposals), None)
    if base is None:
        return _no_block(sim, height, "no-decision", rounds)

    def craft(variant: int) -> Block | None:
        """Variant 0 is the base block, any other one the base block plus a
        marker transaction; corrupted members certify it alone."""
        block = base
        if variant != 0:
            extra = _adversary_marker_tx(sim)
            if extra is None:
                return None
            body = tuple(base.body) + (extra,)
            block = replace(
                base, header=replace(base.header, body_hash=body_digest(body)), body=body
            )
        return _endorse(sim, block, committee, byz_labels, False, True)[0]

    variants = sim.strategy.equivocate_blocks(craft, sim.cfg.observers)
    if not variants:
        single = craft(0)
        if single is None:
            return _no_block(sim, height, "no-decision", rounds)
        accept(sim, single, height, leader=None)
        return single, rounds

    canonical = variants.get(0) or next(iter(variants.values()))
    sim.metrics.incident(
        height,
        "equivocation",
        hashes=sorted({header_hash(b.header).hex() for b in variants.values()}),
    )
    accept(sim, canonical, height, leader=None, per_observer=variants)
    return canonical, rounds


def _adversary_marker_tx(sim: Simulation) -> Transaction | None:
    adv = sim.adv
    for pk in sorted(adv.corrupted):
        utxo = sim.utxos.live.get(pk)
        if utxo is None or pk in sim.in_flight:
            continue
        fresh = adv.fresh_key()
        sim.keyring[fresh.pk] = fresh
        return make_transaction([sim.keyring[pk]], [TxOutput(pk=fresh.pk, stake=utxo.stake)])
    return None


def accept(
    sim: Simulation,
    block: Block,
    height: int,
    leader: str | None,
    per_observer: Mapping[int, Block] | None = None,
):
    """Append ``block`` to the chain, spend it on the UTXO index and deliver
    it to every observer (``per_observer`` overrides the delivery)."""
    sim.chain.append(block)
    sim.headers.append(block.header)
    sim.utxos.apply(block)
    for i, chain in enumerate(sim.observer_chains):
        chain.append(per_observer.get(i, block) if per_observer else block)
    sim.meter.charge(sim.cfg.n_credentials)  # block diffusion
    for tx in block.body:
        sim.metrics.tx_included(tx.tx_id.hex(), height)
        sim.pending.pop(tx.tx_id, None)
        for pk in tx.inputs:
            sim.in_flight.discard(pk)
        sim.events.emit("tx-included", height, tx=tx.tx_id)
    sim.events.emit(
        "block-accepted",
        height,
        block=header_hash(block.header),
        proposer=block.header.proposer_label,
        leader=leader,
        txs=len(block.body),
    )

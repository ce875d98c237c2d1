"""Executable threat model: corruption budget, activation delay, strategies.

The adversary's stake budget is a limit the caller computes from the live
UTXO set: ``mu``, or a smaller ``corrupt_fraction``, of its stake total.
Corrupting an existing user takes one epoch to become effective; keys the
adversary creates for itself (grinding respends) are under its control from
birth, but the credential delay rule still applies to the new UTXOs.

Strategies are deterministic functions of (state, observation, adversary
PRG stream).  The base class behaves exactly like an honest participant,
which doubles as the ``passive`` strategy: budget held, no deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .crypto import KeyPair, Prg, encode_int, keygen, tagged_hash
from .ledger import Transaction, TxOutput, Utxo, make_transaction
from .protocols import BaDecision, ParticipantSet, VectorDecision


@dataclass
class AdversaryState:
    seed: bytes
    corrupted: set = field(default_factory=set)  # active pks
    pending: dict = field(default_factory=dict)  # pk -> activation height
    keys: dict = field(default_factory=dict)  # pk -> KeyPair for controlled users
    key_counter: int = 0
    prg: Prg = field(init=False, compare=False, repr=False)  # the beacon hook's stream

    def __post_init__(self):
        self.prg = Prg(tagged_hash(b"adversary", self.seed))

    def controls(self, pk: bytes) -> bool:
        """Whether ``pk`` is under active or pending adversary control."""
        return pk in self.corrupted or pk in self.pending

    def fresh_key(self) -> KeyPair:
        """A new key, controlled from birth: registered in ``keys`` and ``corrupted``."""
        kp = keygen(tagged_hash(b"adv-key", self.seed, encode_int(self.key_counter)))
        self.key_counter += 1
        self.keys[kp.pk] = kp
        self.corrupted.add(kp.pk)
        return kp


def controlled_stake(state: AdversaryState, utxos: Mapping[bytes, Utxo]) -> int:
    """Stake under active or pending adversary control, on live UTXOs."""
    pks = state.corrupted | set(state.pending)
    return sum(utxos[pk].stake for pk in pks if pk in utxos)


def schedule_corruption(
    state: AdversaryState,
    pk: bytes,
    current_height: int,
    utxos: Mapping[bytes, Utxo],
    limit: Fraction,
    epoch_length: int,
) -> bool:
    """Select a user for corruption, effective one epoch later.

    Rejected (returns False) when ``pk`` is controlled or not live, or when
    the combined active+pending stake would exceed ``limit``, the budget
    fraction of the live stake total.
    """
    if state.controls(pk) or pk not in utxos:
        return False
    if controlled_stake(state, utxos) + utxos[pk].stake > limit:
        return False
    state.pending[pk] = current_height + epoch_length
    return True


def activate_due(
    state: AdversaryState, height: int, keyring: Mapping[bytes, KeyPair]
) -> list[bytes]:
    """Turn pending corruptions whose delay elapsed into active ones; the
    adversary learns the victim's key at activation."""
    due = sorted(pk for pk, h in state.pending.items() if h <= height)
    for pk in due:
        del state.pending[pk]
        state.corrupted.add(pk)
        if pk in keyring:
            state.keys[pk] = keyring[pk]
    return due


def grind_transactions(
    state: AdversaryState,
    utxos: Mapping[bytes, Utxo],
    split: bool = False,
    fraction: Fraction = Fraction(1),
) -> list[Transaction]:
    """Respend controlled UTXOs into fresh keys the adversary owns.

    ``split`` breaks each UTXO into 1-stake outputs (maximizing future
    credentials under the cap); otherwise stake is preserved one-to-one.
    New UTXOs earn credentials only after a full epoch, so none of this
    changes the adversary's standing before the next renewal.
    """
    spendable = sorted(pk for pk in state.corrupted if pk in utxos and pk in state.keys)
    limit = int(fraction * len(spendable))
    txs = []
    for pk in spendable[:limit]:
        utxo = utxos[pk]
        if split and utxo.stake > 1:
            outs = [TxOutput(pk=state.fresh_key().pk, stake=1) for _ in range(utxo.stake)]
        else:
            outs = [TxOutput(pk=state.fresh_key().pk, stake=utxo.stake)]
        txs.append(make_transaction([state.keys[pk]], outs))
        state.corrupted.discard(pk)
    return txs


class Strategy:
    """Hook surface; the base class is honest behavior (``passive``)."""

    name = "passive"
    # The ``params`` keys this strategy reads; a config naming any other key
    # is refused.
    param_names: tuple[str, ...] = ()

    def __init__(self, params: Mapping | None = None):
        self.params = dict(params or {})

    # Vector agreement over the instance ``parts``: what its corrupted slots
    # propose or, outside ``parts.bft_contract_holds``, what vector is
    # dictated.  ``purpose`` ("joins" or "proposal") lets a dictated vector
    # mimic the right slot shape.
    def vector_decision(
        self, parts: ParticipantSet, honest_inputs: Mapping, purpose: str = "joins"
    ) -> VectorDecision:
        return VectorDecision(
            byzantine_values={pk: honest_inputs.get(pk) for pk in parts.byzantine}
        )

    # Corrupted-quorum beacon: return a digest to substitute, or None to
    # leave the honest output alone.
    def beacon_choice(self, entropy_seed: bytes, evaluate: Callable[[bytes], float], prg: Prg) -> bytes | None:
        return None

    # Does a corrupted core member endorse (sign) views and blocks?
    def signs(self) -> bool:
        return True

    # Inter-shard agreement behavior of the committee ``parts``, whose
    # byzantine members are the labels of corrupted shards.
    def ba_decision(self, parts: ParticipantSet, proposals: Mapping) -> BaDecision:
        return BaDecision()

    # Contract-void committee: per-observer blocks (index -> Block) for an
    # equivocation attempt, or None to behave like a crash.
    def equivocate_blocks(self, craft: Callable[[int], object], n_observers: int):
        return None

    # End-of-height actions: transactions to inject into mempools.
    def issue_transactions(self, state: AdversaryState, utxos, height, epoch_length):
        return []


class SilentStrategy(Strategy):
    """Corrupted members withhold everything they are allowed to withhold."""

    name = "silent"

    def vector_decision(self, parts, honest_inputs, purpose="joins"):
        if not parts.bft_contract_holds:
            return VectorDecision(dictated=[None] * parts.n)
        return VectorDecision()  # byzantine slots null

    def signs(self) -> bool:
        return False

    def ba_decision(self, parts, proposals):
        return BaDecision(silent_leaders=parts.byzantine)


class EquivocateStrategy(Strategy):
    """Corrupted quorums lie where no contract stops them: dictated vectors
    omit newcomers, and a corrupted committee splits honest observers."""

    name = "equivocate"

    def vector_decision(self, parts, honest_inputs, purpose="joins"):
        if not parts.bft_contract_holds:
            if purpose == "joins":
                # Lie by omission: present every slot as empty-handed.
                return VectorDecision(dictated=[frozenset() for _ in parts.members])
            # Proposal vectors stay plausible; the lie happens at diffusion
            # time when observers receive conflicting certified blocks.
            return VectorDecision(dictated=[honest_inputs.get(pk) for pk in parts.members])
        return super().vector_decision(parts, honest_inputs, purpose)

    def equivocate_blocks(self, craft, n_observers):
        if n_observers < 2:
            return None
        first = craft(0)
        second = craft(1)
        if first is None or second is None:
            return None
        half = n_observers // 2
        return {i: (first if i < half else second) for i in range(n_observers)}


class GrindStrategy(Strategy):
    """Respend controlled UTXOs every epoch, aiming new credentials at
    future seeds.  The delay rule makes the aim blind, which is the point
    being measured."""

    name = "grind"
    param_names = ("split", "fraction")

    def issue_transactions(self, state, utxos, height, epoch_length):
        if height % epoch_length != 0:
            return []
        return grind_transactions(
            state,
            utxos,
            split=self.params.get("split", False),
            fraction=self.params.get("fraction", 1),
        )


class WorstCaseSeedStrategy(Strategy):
    """A corrupted beacon quorum tries a bounded set of candidate digests
    and keeps the one scoring highest on the supplied objective (corrupted
    promotions / next-committee corruption)."""

    name = "worst-case-seed"
    param_names = ("candidates",)

    def beacon_choice(self, entropy_seed, evaluate, prg):
        n_candidates = self.params.get("candidates", 8)
        best_seed = None
        best_score = float("-inf")
        for i in range(n_candidates):
            candidate = tagged_hash(b"wcs-candidate", entropy_seed, encode_int(i), encode_int(prg.draw(2 ** 31)))
            score = evaluate(candidate)
            if score > best_score:
                best_score = score
                best_seed = candidate
        return best_seed


STRATEGIES = {
    cls.name: cls
    for cls in (
        Strategy,
        SilentStrategy,
        EquivocateStrategy,
        GrindStrategy,
        WorstCaseSeedStrategy,
    )
}

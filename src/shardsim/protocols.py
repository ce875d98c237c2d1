"""Contract-level intra-shard and inter-shard agreement primitives.

These are not message-level protocol implementations.  The two agreement
primitives check whether the corruption among their participants is within
the bound their contract assumes.  Within the bound, the contract's
guarantees are produced directly (and the adversary only gets the freedom
the contract leaves it: nulling its own slots, withholding, delaying).
Above the bound the contract is void and an adversary hook dictates the
outcome.  ``random_beacon`` applies a choice its caller made: the run asks
the strategy for a biased seed only when the beacon's quorum is past
mu_core.  The primitives count no messages: the run charges each instance
to its ``MessageMeter`` where it calls the primitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .crypto import tagged_hash


@dataclass
class MessageMeter:
    """Message accounting: an agreement instance of n members costs n^3."""

    total: int = 0

    def charge_instance(self, n_participants: int):
        self.total += n_participants ** 3

    def charge(self, count: int):
        self.total += count


@dataclass(frozen=True)
class ParticipantSet:
    """An ordered protocol membership with its corrupted subset."""

    members: tuple
    byzantine: frozenset

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def bft_contract_holds(self) -> bool:
        """n >= 3f + 1: at most floor((n - 1) / 3) members are corrupted.

        The contract of a core's vector consensus: outside it the adversary
        dictates the vector."""
        return len(self.byzantine) <= (self.n - 1) // 3

    def within(self, bound: Fraction) -> bool:
        """``within_bound`` of this set's corrupted count."""
        return within_bound(len(self.byzantine), self.n, bound)


def within_bound(corrupted: int, n: int, bound: Fraction) -> bool:
    """True while ``corrupted`` of ``n`` members stays within bound * n; a
    count of exactly bound * n is still within.  Compared in integers:
    ``corrupted <= bound * n`` without building a ``Fraction``.

    The rule for "past mu_core" in a run: a core outside it is a corrupted
    shard and may bias its beacons, and a committee outside mu_corrupted
    voids its agreement."""
    return corrupted * bound.denominator <= bound.numerator * n


@dataclass(frozen=True)
class VectorDecision:
    """Adversary choices for one vector agreement instance.

    ``byzantine_values`` maps a corrupted slot to its proposed value (absent
    means null); honest slots are not the adversary's to null.  When the
    instance is outside its contract, ``dictated`` replaces the whole
    vector.
    """

    byzantine_values: Mapping = field(default_factory=dict)
    dictated: Sequence | None = None


def vector_consensus(
    parts: ParticipantSet,
    honest_inputs: Mapping,
    decision: VectorDecision | None = None,
) -> list:
    """Agree on one value per participant (None for nulled slots).

    The contract binds while the corrupted count f stays at or below
    floor((n-1)/3).  Within it, the decided vector holds the true input of
    every honest member, and each corrupted slot holds its chosen value or
    None: the adversary nulls only its own f slots, never the n - f >= 2f + 1
    honest ones.  Above it the adversary dictates the vector.
    """
    decision = decision or VectorDecision()

    if not parts.bft_contract_holds:
        if decision.dictated is None:
            return [None] * parts.n
        if len(decision.dictated) != parts.n:
            raise ValueError("dictated vector has wrong arity")
        return list(decision.dictated)

    byzantine_values = decision.byzantine_values
    return [
        byzantine_values.get(member) if member in parts.byzantine else honest_inputs.get(member)
        for member in parts.members
    ]


def random_beacon(entropy: bytes, chosen: bytes | None = None) -> bytes:
    """Produce the shard's shared randomness for this height.

    ``entropy`` must come from a stream consumed strictly after all earlier
    adversary decisions, which is what makes the honest output unpredictable
    and bias-free.  A quorum past mu_core may substitute any digest of its
    choice (``chosen``, which the caller asks for); nothing tells the
    substitute from an honest output, which is exactly the modeled threat.
    """
    return tagged_hash(b"beacon", entropy) if chosen is None else chosen


@dataclass(frozen=True)
class BaDecision:
    """Adversary choices for one inter-shard agreement instance.

    ``silent_leaders`` forces view changes; ``substitute`` lets a corrupted
    leader propose an arbitrary block (still subject to validity when the
    contract binds); ``dictated`` (label of winning proposal or None) takes
    over when the committee is corrupted beyond its bound."""

    silent_leaders: frozenset = field(default_factory=frozenset)
    substitute: Mapping = field(default_factory=dict)
    dictated: object | None = None


@dataclass(frozen=True)
class BaOutcome:
    value: object | None
    leader: object | None
    rounds: int
    contract_held: bool


def verifiable_ba(
    parts: ParticipantSet,
    proposals: Mapping,
    validity: Callable[[object], bool],
    mu_corrupted: Fraction,
    decision: BaDecision | None = None,
) -> BaOutcome:
    """Leader-based agreement on one externally-valid proposal.

    Leaders are tried in membership order; a silent or invalid leader burns
    a round and the next leader takes over.  Within the corruption bound
    the decided value is always one that passes ``validity``.  Above the
    bound the adversary dictates (or withholds) the outcome.
    """
    decision = decision or BaDecision()

    if not parts.within(mu_corrupted):
        dictated = decision.dictated
        return BaOutcome(value=dictated, leader=None, rounds=1, contract_held=False)

    rounds = 0
    for leader in parts.members:
        rounds += 1
        if leader in parts.byzantine:
            if leader in decision.silent_leaders:
                continue
            candidate = decision.substitute.get(leader, proposals.get(leader))
        else:
            candidate = proposals.get(leader)
        if candidate is None:
            continue
        if validity(candidate):
            return BaOutcome(value=candidate, leader=leader, rounds=rounds, contract_held=True)
    return BaOutcome(value=None, leader=None, rounds=rounds, contract_held=True)


def shard_entropy(master_seed: bytes, label: str, height: int, purpose: bytes) -> bytes:
    """Per-shard, per-height entropy substream.

    Derived only from static identifiers, so replaying a scenario with
    different adversary decisions leaves every honest entropy draw intact.
    """
    return tagged_hash(
        b"entropy", master_seed, purpose, label.encode("utf-8"), height.to_bytes(8, "big", signed=True)
    )

"""Shard membership: views, join intake, expiry and core elections.

A shard view at height h lists the core (the members running the shard's
protocols) and the spare set (everyone else routed here).  A view update
has two steps: ``update_view`` carries surviving members over and adds
newcomers to the spare set, then ``fill_core`` elects the core's vacancies
from the ordered spare set by PRG draws seeded with the shard's beacon
output.  ``fill_core`` is the only election: a new shard's view
(``form_view``) is ``fill_core`` of an all-spare view, and it draws with the
same sampling code the analysis module uses for its Monte Carlo estimates.

Joins reach ``update_view`` as the slots of the decided vector of the
previous core's join sets; every newcomer is judged there by the caller's
``newcomer_valid``.  The view pipeline (``views``) passes a predicate that
admits a credential the renewal phase derived and routed to the shard
without deriving it again, while it is anchored by the shard's view height,
and checks every other entry in full.  Whether a quorum endorsed the result
is ``install_and_diffuse``'s call.

A view caches values of its member tuples: their digest framing and
earliest expiry, the core's pks (in order and as a set) and the split
count.  ``update_view`` keeps a tuple that loses and gains nobody as the
very tuple object, which hands on whatever of these the previous view
computed, so a quiet height reads them instead of walking the members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import AbstractSet, Callable, Iterable, Sequence

from .credentials import Credential, framed_blobs
from .crypto import Prg, encode_bytes, encode_int, encode_str, tagged_hash_framed
from .ledger import Quorum, count_signers, shard_quorum
from .sampling import sample_without_replacement

_value, _pk, _expiry = (attrgetter(name) for name in ("value", "pk", "expiry_height"))


@dataclass(frozen=True)
class ShardView:
    label: str
    height: int
    core: tuple[Credential, ...]
    spare: tuple[Credential, ...]

    def members(self) -> tuple[Credential, ...]:
        return self.core + self.spare

    @cached_property
    def core_pks(self) -> tuple[bytes, ...]:
        """The core members' pks, in core order."""
        return tuple(map(_pk, self.core))

    @cached_property
    def core_pk_set(self) -> frozenset[bytes]:
        return frozenset(self.core_pks)

    @cached_property
    def core_expiry(self) -> float:
        """The core's earliest expiry height (``inf`` if it is empty); the
        spare set's is ``spare_expiry``."""
        return min(map(_expiry, self.core), default=float("inf"))

    @cached_property
    def spare_expiry(self) -> float:
        return min(map(_expiry, self.spare), default=float("inf"))

    @cached_property
    def split_ones(self) -> int:
        """Members whose value has the ``split_bit`` of the label set."""
        byte, mask = split_bit(self.label)
        return sum(1 for c in self.members() if c.value[byte] & mask)

    @cached_property
    def core_framing(self) -> bytes:
        """The core's run of the digest preimage: its length part, then
        each member's ``credential_blob`` as one part."""
        return _framed_run(self.core)

    @cached_property
    def spare_framing(self) -> bytes:
        """The spare set's run of the digest preimage, like ``core_framing``."""
        return _framed_run(self.spare)

    @cached_property
    def digest(self) -> bytes:
        """Digest of the canonical encoding, computed once: the view is
        frozen, and a ``replace``d copy starts without the cached value.

        The preimage is ``tagged_hash(b"view", encode_str(label),
        encode_int(height), encode_int(len(core)), *core blobs,
        encode_int(len(spare)), *spare blobs)`` over ``credential_blob``s,
        framed here in one buffer and hashed in one update from the two
        member runs, ``core_framing`` and ``spare_framing``."""
        return tagged_hash_framed(
            b"view",
            b"".join(
                (
                    encode_bytes(encode_str(self.label)),
                    encode_bytes(encode_int(self.height)),
                    self.core_framing,
                    self.spare_framing,
                )
            ),
        )


def _framed_run(creds: tuple[Credential, ...]) -> bytes:
    """``encode_int(len(creds))`` and each member's blob, each framed as one
    part of a ``tagged_hash_framed`` preimage.  Members are packed by
    ``framed_blobs``, which keeps the generic encoding for a value or pk
    that is not 32 bytes wide."""
    return b"".join([encode_bytes(encode_int(len(creds))), *framed_blobs(creds)])


# Cached per member tuple, and handed on with it; ``split_ones`` with both.
_CORE_CACHE = ("core_pks", "core_pk_set", "core_expiry", "core_framing")
_SPARE_CACHE = ("spare_expiry", "spare_framing")


def split_bit(label: str) -> tuple[int, int]:
    """The byte index and mask of the bit a split of ``label`` partitions
    on: the value's MSB-first bit right after the label."""
    byte, shift = divmod(len(label), 8)
    return byte, 0x80 >> shift


def view_digest(view: ShardView) -> bytes:
    return view.digest


def order_spare(creds: Iterable[Credential]) -> tuple[Credential, ...]:
    """Canonical spare ordering: lexicographic on the credential value."""
    return tuple(sorted(creds, key=_value))


def update_view(
    prev_view: ShardView,
    decided_joins: Sequence[frozenset | None],
    newcomer_valid: Callable[[Credential], bool] = lambda c: True,
) -> tuple[ShardView, tuple[Credential, ...]]:
    """Carry the previous view's members over to the next height; returns
    the view and the admitted newcomers in value order.

    ``decided_joins`` holds slots of the agreed vector of join sets (None
    for nulled slots): all of them, or fewer with the same distinct slots
    in the same first-seen order, the order of equal-valued newcomers in
    the spare set.  Every proposed newcomer must pass ``newcomer_valid``.
    Members and newcomers whose credentials perished by the previous view's
    height drop out, newcomers before ``newcomer_valid`` is asked.  The core
    is not refilled here: ``fill_core`` elects its vacancies.

    A member tuple that loses and gains nobody is the very tuple object of
    ``prev_view``, with its cached values; the spare set of every view
    built here is already in ``order_spare`` order.
    """
    height = prev_view.height + 1
    newcomers = []
    seen = set()
    if any(decided_joins):
        members = prev_view.members()
        # Member values are hashed by bytes, not by ``Credential.__hash__``;
        # a value hit falls back to comparing whole credentials, so the test
        # below is exactly ``cred in set(members)``.
        known_values = set(map(_value, members))
        for slot in dict.fromkeys(frozenset(s) for s in decided_joins if s):
            for cred in slot:
                if (cred.value in known_values and cred in members) or cred in seen:
                    continue
                if cred.expiry_height < height:
                    continue
                if not newcomer_valid(cred):
                    continue
                seen.add(cred)
                newcomers.append(cred)

    core, spare = prev_view.core, prev_view.spare
    if prev_view.core_expiry < height:
        core = tuple(c for c in core if c.expiry_height >= height)
    if newcomers or prev_view.spare_expiry < height:
        spare = order_spare([c for c in spare if c.expiry_height >= height] + newcomers)
    view = ShardView(label=prev_view.label, height=height, core=core, spare=spare)
    # Seeded into the instance dict, as ``blocks.attach_certificate`` seeds ``core_digest``.
    kept = (core is prev_view.core, spare is prev_view.spare)
    names = _CORE_CACHE * kept[0] + _SPARE_CACHE * kept[1] + ("split_ones",) * all(kept)
    cached = vars(prev_view)
    vars(view).update({name: cached[name] for name in names if name in cached})
    return view, tuple(sorted(seen, key=_value))


def fill_core(
    view: ShardView, beacon_seed: bytes, s_min: int
) -> tuple[ShardView, tuple[Credential, ...]]:
    """Elect the core's vacancies up to ``s_min`` from the ordered spare set
    by PRG draws seeded with ``beacon_seed``; returns the view and the
    members promoted, in draw order.  A shard with too few members promotes
    everyone it has."""
    take = min(s_min - len(view.core), len(view.spare))
    if take <= 0:
        return view, ()
    promoted = sample_without_replacement(Prg(beacon_seed), view.spare, take)
    # The sample holds the spare set's own objects, and the spare set holds
    # no two equal credentials, so an id test is ``c not in set(promoted)``
    # without hashing a credential, as in ``verify_view_transition``.
    promoted_ids = set(map(id, promoted))
    filled = ShardView(
        label=view.label,
        height=view.height,
        core=view.core + tuple(promoted),
        spare=tuple([c for c in view.spare if id(c) not in promoted_ids]),
    )
    return filled, tuple(promoted)


def form_view(
    label: str, members: Iterable[Credential], height: int, beacon_seed: bytes, s_min: int
) -> ShardView:
    """Fresh view for a newly created shard (bootstrap, split or merge):
    everyone starts spare, then ``fill_core`` elects the core."""
    all_spare = ShardView(label=label, height=height, core=(), spare=order_spare(members))
    return fill_core(all_spare, beacon_seed, s_min)[0]


def install_and_diffuse(
    new_view: ShardView,
    signatures: Quorum,
    old_core_pks: AbstractSet[bytes],
    mu_core: Fraction,
    s_min: int,
) -> bool:
    """Whether a quorum of the previous core endorsed ``new_view``, so the
    network installs it in place of the registered view.

    This is the only place a view's signature quorum is counted.  The quorum
    is ``shard_quorum`` of the previous core, so an undersized shard can
    still track membership while barred from block production.  The caller
    registers the view.
    """
    quorum = shard_quorum(mu_core, s_min, len(old_core_pks))
    return count_signers(signatures, old_core_pks, view_digest(new_view)) >= quorum

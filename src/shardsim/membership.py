"""Shard membership: views, join intake, expiry and core elections.

A shard view at height h lists the core (the members running the shard's
protocols) and the spare set (everyone else routed here).  A view update
has two steps: ``update_view`` carries surviving members over and adds
newcomers to the spare set, then ``fill_core`` elects the core's vacancies
from the ordered spare set by PRG draws seeded with the shard's beacon
output.  ``fill_core`` is the only election: a new shard's view
(``form_view``) is ``fill_core`` of an all-spare view, and it draws with the
same sampling code the analysis module uses for its Monte Carlo estimates.

Joins reach ``update_view`` as the decided vector of the previous core's
join sets, one slot per member; every newcomer is judged there by the
caller's ``newcomer_valid``.  The view pipeline (``views``) passes a
predicate that admits a credential the renewal phase derived and routed to
the shard without deriving it again, while it is anchored by the shard's
view height, and checks every other entry in full.
Whether a quorum endorsed the result is ``install_and_diffuse``'s call.

A view caches the framed encoding of its core and of its spare set, the two
member runs its digest hashes.  At most heights a shard gains and loses
nobody: ``update_view`` then keeps the previous view's own member tuples,
and each kept tuple hands its framing on, so the next digest hashes the
cached runs instead of packing every member again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .credentials import Credential, framed_blobs
from .crypto import Prg, Signature, encode_bytes, encode_int, encode_str, tagged_hash_framed
from .ledger import count_signers, shard_quorum
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
        framed here in one buffer and hashed in one update.  The two member
        runs are ``core_framing`` and ``spare_framing``, which a view may
        have been handed by its predecessor along with the very tuple they
        encode (``update_view``)."""
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

    ``decided_joins`` is the agreed vector of join sets (one slot per
    previous core member, None for nulled slots); every proposed newcomer
    must pass ``newcomer_valid`` before joining the spare set.  Members and
    newcomers whose credentials perished by the previous view's height drop
    out, newcomers before ``newcomer_valid`` is asked.  The core is not
    refilled here: ``fill_core`` elects its vacancies.

    A member tuple that loses nobody and gains nobody is kept as the very
    tuple object of ``prev_view``, with its cached framing; the spare set
    of every view built here is already in ``order_spare`` order.
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
        # Core members receive the same joins, so slots repeat; dedup whole
        # slots before walking entries, in first-seen order: two admitted
        # newcomers sharing a value keep that order in the spare set.
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
    if perished_before(core, height):
        core = tuple(c for c in core if c.expiry_height >= height)
    if newcomers or perished_before(spare, height):
        spare = order_spare([c for c in spare if c.expiry_height >= height] + newcomers)
    view = ShardView(label=prev_view.label, height=height, core=core, spare=spare)
    # A kept tuple encodes to the same bytes, so its framing (and the
    # core's pks) carry over, seeded into the instance dict as
    # ``blocks.attach_certificate`` seeds a header's ``core_digest``.
    if core is prev_view.core:
        view.__dict__["core_framing"] = prev_view.core_framing
        view.__dict__["core_pks"] = prev_view.core_pks
    if spare is prev_view.spare:
        view.__dict__["spare_framing"] = prev_view.spare_framing
    return view, tuple(sorted(seen, key=_value))


def perished_before(creds: tuple[Credential, ...], height: int) -> bool:
    """Whether some credential in ``creds`` expired before ``height``, in
    one ``min`` over the tuple."""
    return min(map(_expiry, creds), default=height) < height


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
    signatures: Iterable[tuple[bytes, Signature]],
    old_core_pks: set[bytes],
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

"""Shard membership: views, join buffering, expiry and core elections.

A shard view at height h lists the core (the members running the shard's
protocols) and the spare set (everyone else routed here).  Newcomers always
land in the spare set first; the core is refilled from the ordered spare
set by PRG draws seeded with the shard's beacon output, which is the same
sampling code the analysis module uses for its Monte Carlo estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .credentials import Credential, credential_blob
from .crypto import Prg, Signature, encode_int, encode_str, tagged_hash
from .ledger import count_signers, shard_quorum
from .sampling import sample_without_replacement


@dataclass(frozen=True)
class ShardView:
    label: str
    height: int
    core: tuple[Credential, ...]
    spare: tuple[Credential, ...]

    def members(self) -> tuple[Credential, ...]:
        return self.core + self.spare

    @cached_property
    def digest(self) -> bytes:
        """Digest of the canonical encoding, computed once: the view is
        frozen, and a ``replace``d copy starts without the cached value."""
        parts = [encode_str(self.label), encode_int(self.height)]
        parts.append(encode_int(len(self.core)))
        parts.extend(credential_blob(c) for c in self.core)
        parts.append(encode_int(len(self.spare)))
        parts.extend(credential_blob(c) for c in self.spare)
        return tagged_hash(b"view", *parts)


def view_digest(view: ShardView) -> bytes:
    return view.digest


def order_spare(creds: Iterable[Credential]) -> tuple[Credential, ...]:
    """Canonical spare ordering: lexicographic on the credential value."""
    return tuple(sorted(creds, key=lambda c: c.value))


@dataclass
class ShardRuntime:
    """Mutable per-shard simulation state."""

    label: str
    view: ShardView
    buffers: dict = field(default_factory=dict)  # core pk -> set[Credential]
    degraded: bool = False
    stalled: bool = False

    def reset_buffers(self, corrupted):
        """Fresh join buffers for the current core.  Honest members all
        receive the same join stream, so they share one set, which keeps
        mass renewals linear; each member in ``corrupted`` gets its own."""
        shared: set = set()
        self.buffers = {
            c.pk: set() if c.pk in corrupted else shared for c in self.view.core
        }


@dataclass(frozen=True)
class ViewUpdate:
    view: ShardView
    promoted: tuple[Credential, ...]
    newcomers: tuple[Credential, ...]
    needs_refill: bool
    degraded: bool


def expiring_members(view: ShardView, height: int) -> set[Credential]:
    """Members whose credentials perish with the block at ``height``."""
    return {c for c in view.members() if c.expiry_height <= height}


def refill_needed(view: ShardView, height: int, s_min: int) -> bool:
    surviving_core = [c for c in view.core if c.expiry_height > height]
    return len(surviving_core) < s_min


def update_view(
    prev_view: ShardView,
    decided_buffers: Sequence[frozenset | None],
    expiring: set[Credential],
    beacon_seed: bytes | None,
    s_min: int,
    newcomer_valid: Callable[[Credential], bool] = lambda c: True,
) -> ViewUpdate:
    """Compute the next view from the previous one.

    ``decided_buffers`` is the agreed vector of join buffers (one slot per
    previous core member, None for nulled slots); every proposed newcomer
    is re-validated before joining the spare set.  Core vacancies are
    refilled by PRG draws over the ordered spare set, seeded with the
    shard's beacon output for this height; ``beacon_seed`` may be None only
    when no refill is needed.
    """
    height = prev_view.height + 1
    members = prev_view.members()
    # Member values are hashed by bytes, not by ``Credential.__hash__``; a
    # value hit falls back to comparing whole credentials, so the test
    # below is exactly ``cred in set(members)``.
    known_values = {c.value for c in members}
    newcomers = []
    seen = set()
    # Honest members buffer the same joins, so slots repeat; dedup whole
    # slots before walking entries (order cannot matter: outputs are
    # re-sorted canonically below).
    distinct_slots = []
    slot_keys = set()
    for slot in decided_buffers:
        if slot is None:
            continue
        key = slot if isinstance(slot, frozenset) else frozenset(slot)
        if key in slot_keys:
            continue
        slot_keys.add(key)
        distinct_slots.append(key)
    for slot in distinct_slots:
        for cred in slot:
            if (cred.value in known_values and cred in members) or cred in seen:
                continue
            if cred.expiry_height < height:
                continue
            if not newcomer_valid(cred):
                continue
            seen.add(cred)
            newcomers.append(cred)

    spare_pool = [c for c in prev_view.spare if c not in expiring]
    spare_pool.extend(c for c in newcomers if c not in expiring)
    spare = list(order_spare(spare_pool))
    core = [c for c in prev_view.core if c not in expiring]

    promoted: list[Credential] = []
    needs_refill = len(core) < s_min
    if needs_refill and spare:
        if beacon_seed is None:
            raise ValueError("core refill requires a beacon seed")
        prg = Prg(beacon_seed)
        take = min(s_min - len(core), len(spare))
        promoted = sample_without_replacement(prg, spare, take)
        promoted_set = set(promoted)
        spare = [c for c in spare if c not in promoted_set]
        core.extend(promoted)

    degraded = len(core) < s_min
    view = ShardView(
        label=prev_view.label,
        height=height,
        core=tuple(core),
        spare=tuple(spare),
    )
    return ViewUpdate(
        view=view,
        promoted=tuple(promoted),
        newcomers=tuple(sorted(seen, key=lambda c: c.value)),
        needs_refill=needs_refill,
        degraded=degraded,
    )


def form_view(
    label: str, members: Iterable[Credential], height: int, beacon_seed: bytes, s_min: int
) -> ShardView:
    """Fresh view for a newly created shard (bootstrap, split or merge):
    everyone starts spare, then the core is elected by PRG draws."""
    spare = list(order_spare(members))
    prg = Prg(beacon_seed)
    take = min(s_min, len(spare))
    core = sample_without_replacement(prg, spare, take)
    core_set = set(core)
    spare = [c for c in spare if c not in core_set]
    return ShardView(label=label, height=height, core=tuple(core), spare=tuple(spare))


def install_and_diffuse(
    new_view: ShardView,
    signatures: Iterable[tuple[bytes, Signature]],
    old_core_pks: set[bytes],
    directory: dict,
    mu_core: Fraction,
    s_min: int,
) -> bool:
    """Install a signed view into the directory if a quorum of the previous
    core endorsed it; otherwise leave the old view registered.

    This is the only place a view's signature quorum is counted.  The quorum
    is ``shard_quorum`` of the previous core, so an undersized shard can
    still track membership while barred from block production.
    """
    quorum = shard_quorum(mu_core, s_min, len(old_core_pks))
    if count_signers(signatures, old_core_pks, view_digest(new_view)) < quorum:
        return False
    directory[new_view.label] = new_view
    return True

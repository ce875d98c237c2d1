"""The view pipeline of one height, as plain functions over a ``Simulation``:
view updates, splits and merges, and the delivery of the renewing joins.

View agreement: each updated view is checked against the registered one
(``verify_view_transition``: label, height, core size, expiry, credential
windows and routing of every newcomer) before the previous core signs it.  A
view that fails is never installed; it counts as a view-agreement violation
and stalls the shard.  The signature quorum is counted once, at install.

Per-shard state is two tables keyed by label: ``directory``, the installed
view; and ``joins``, the credentials routed to the shard since that view
was installed, each mapped to whether ``deliver_joins`` derived it.  Every
core member receives every join, so one set serves the whole core; a
corrupted member's proposal is the strategy's to choose.  Admission takes
a derived credential anchored by the shard's view height without deriving
it again: its verdict depends only on its fields, the label and the
immutable chain, so the full check would pass it.  Any other entry takes
the full check.  ``deliver_joins`` takes a height's renewals as one batch:
they all anchor at that height, so they are derived from one seed read,
routed with one ``route`` call per label interval and recorded by one
``EventLog.emit_batch``, in sorted-pk order.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from .credentials import Credential, derive_credentials, verify_credential
from .crypto import tagged_hash
from .ledger import shard_quorum, sign_until_quorum
from .membership import (
    ShardView,
    fill_core,
    form_view,
    install_and_diffuse,
    update_view,
    view_digest,
)
from .oracles import InvariantError
from .overlay import (
    check_prefix_free_cover,
    label_matches,
    maybe_merge,
    maybe_split,
    route_all,
    verify_view_transition,
)
from .protocols import ParticipantSet, random_beacon, shard_entropy, vector_consensus

if TYPE_CHECKING:
    from .harness import Simulation

_value = attrgetter("value")


def update_views(sim: Simulation, height: int):
    for label in sorted(sim.directory):
        view = sim.directory[label]
        if view.height >= height:
            continue
        if view.height < height - 1:
            # Stalled shard catching up one view per round.
            sim.metrics.incident(height, "view-catch-up", label=label)
        _update_one_view(sim, view, view.height + 1)


def _update_one_view(sim: Simulation, old_view: ShardView, height: int):
    cfg = sim.cfg
    label = old_view.label
    parts = sim.core_parts(old_view)

    # Every core member received the shard's joins; what a corrupted
    # member proposes instead is the strategy's ``vector_decision``.
    received = frozenset(sim.joins[label])
    honest_inputs = dict.fromkeys(parts.members, received)
    decision = sim.strategy.vector_decision(parts, honest_inputs, purpose="joins")
    sim.meter.charge_instance(parts.n)
    vector = vector_consensus(parts, honest_inputs, decision)

    # Validity is judged at the shard's own view height.  That is the last
    # accepted block only while the shard keeps up: a lagging shard judges
    # at its older view height and refuses joins anchored after it, and the
    # fast path below keeps that verdict by its anchor condition.
    eval_height = height - 1
    derived = sim.joins[label]

    def newcomer_valid(cred: Credential) -> bool:
        # A credential the renewal phase derived and routed here passes both
        # checks below when it is anchored by ``eval_height``: ``update_view``
        # already dropped it if it expired before ``height``.
        if cred.anchor_height <= eval_height and derived.get(cred):
            return True
        return label_matches(label, cred.value) and verify_credential(
            cred, eval_height, sim.headers, sim.utxos.utxo_at
        )

    view, newcomers = update_view(old_view, vector, newcomer_valid)
    promoted = ()
    if len(view.core) < cfg.s_min:
        # Objective for a seed-grinding beacon quorum: corrupted members
        # in the refilled core.
        corrupted = sim.adv.corrupted
        seed = run_beacon(
            sim,
            label,
            parts,
            height,
            b"refill",
            evaluate=lambda seed: float(
                sum(c.pk in corrupted for c in fill_core(view, seed, cfg.s_min)[0].core)
            ),
        )
        view, promoted = fill_core(view, seed, cfg.s_min)
    # The network checks the diffused view against the registered one;
    # a view that fails is a view-agreement violation and never installs.
    transition = verify_view_transition(old_view, view, height, cfg.s_min)
    if not transition:
        _reject_view(sim, label, height, "view-divergence", reason=transition.reason)
        return

    digest = view_digest(view)
    # Whatever was collected goes to the install, which alone counts the
    # quorum; corrupted members sign as the strategy says.
    old_pks = set(parts.members)
    signatures = sign_until_quorum(
        sim.willing_signers(old_view, True, sim.strategy.signs()),
        sim.keyring,
        digest,
        shard_quorum(cfg.mu_core, cfg.s_min, len(old_pks)),
    )
    if not install_and_diffuse(view, signatures, old_pks, cfg.mu_core, cfg.s_min):
        _reject_view(sim, label, height, "view-install-failed")
        return

    if register_shard(sim, view, height, promoted=len(promoted), newcomers=len(newcomers)):
        sim.metrics.incident(height, "corrupted-shard", label=label)


def _reject_view(sim: Simulation, label: str, height: int, kind: str, **fields):
    """Keep the registered view and its joins; the shard lags the height,
    so it produces no block until it catches up."""
    sim.metrics.incident(height, kind, label=label, **fields)
    sim.events.emit("view-rejected", height, label=label)


def run_beacon(
    sim: Simulation,
    label: str,
    parts: ParticipantSet,
    height: int,
    purpose: bytes,
    evaluate: Callable[[bytes], float],
) -> bytes:
    entropy = shard_entropy(sim.master, label, height, purpose)
    chosen = None
    if not parts.within(sim.cfg.mu_core):
        chosen = sim.strategy.beacon_choice(entropy, evaluate, sim.adv.prg)
    sim.meter.charge_instance(parts.n)
    seed = random_beacon(entropy, chosen)
    sim.events.emit(
        "beacon",
        height,
        label=label,
        purpose=purpose.decode("ascii"),
        seed=seed,
        biased=chosen is not None,
    )
    if chosen is not None:
        sim.metrics.incident(height, "beacon-biased", label=label)
    return seed


def apply_topology(sim: Simulation, height: int):
    # Splits first, then merges, in label order.
    directory, s_min = sim.directory, sim.cfg.s_min
    for label in sorted(directory):
        view = directory[label]
        children = maybe_split(label, view, s_min, sim.cfg.s_max)
        if children is None:
            continue
        beacon = run_beacon(
            sim, label, sim.core_parts(view), height, b"split", evaluate=lambda seed: 0.0
        )
        del directory[label], sim.joins[label]
        child_labels = []
        for child_label, members in children:
            child_seed = tagged_hash(b"child", beacon, child_label.encode("ascii"))
            register_shard(sim, form_view(child_label, members, height, child_seed, s_min), height)
            child_labels.append(child_label)
        sim.events.emit("split", height, parent=label, children=child_labels)

    merged = True
    while merged:
        merged = False
        for label in sorted(directory):
            view = directory[label]
            plan = maybe_merge(label, view, directory, s_min)
            if plan is None:
                continue
            new_label, absorbed, members = plan
            beacon = run_beacon(
                sim, label, sim.core_parts(view), height, b"merge", evaluate=lambda seed: 0.0
            )
            for gone in absorbed:
                del directory[gone], sim.joins[gone]
            merged_view = form_view(new_label, members, height, beacon, s_min)
            register_shard(sim, merged_view, height)
            sim.events.emit("merge", height, label=new_label, absorbed=list(absorbed))
            merged = True
            break

    cover = check_prefix_free_cover(directory)
    if not cover:
        raise InvariantError(f"directory invariant broken at {height}: {cover.reason}")


def deliver_joins(sim: Simulation, height: int):
    """Route each credential renewing at ``height`` to every core member of
    its shard, recorded as derived so admission need not derive it again.
    Only pks whose key the run holds in ``sim.keyring`` renew."""
    # A pk is due only at a multiple of the epoch after its UTXO was
    # created, so every due credential anchors at ``height``.  The
    # adversary's fresh keys stay outside the keyring until ROADMAP item 9.
    due = [pk for pk in sim.utxos.due_renewals(height) if pk in sim.keyring]
    creds = derive_credentials(due, height, sim.headers[height].seed, sim.cfg.epoch_length)
    directory, joins = sim.directory, sim.joins
    # Each view's own label, not ``route``'s freshly sliced copies: the
    # event log keeps one reference per join.
    own = {label: view.label for label, view in directory.items()}
    labels = list(map(own.__getitem__, route_all(directory, list(map(_value, creds)))))
    for label, cred in zip(labels, creds):
        joins[label][cred] = True
    # Every core member receives each join.
    sim.meter.charge(sum(len(directory[label].core) * n for label, n in Counter(labels).items()))
    sim.events.emit_batch("join", height, label=labels, pk=due, anchor=[height] * len(due))
    sim.joins_submitted += len(creds)


def register_shard(sim: Simulation, view: ShardView, height: int, **fields) -> bool:
    """Install ``view`` with an empty join table, and announce it to the
    network; returns whether the shard is corrupted.  After bootstrap only
    ``views`` writes ``directory`` and ``joins``: here, in
    ``apply_topology`` and in ``deliver_joins``."""
    sim.directory[view.label] = view
    sim.joins[view.label] = {}
    sim.meter.charge(sim.cfg.n_credentials)  # network-wide view notification
    corrupted = sim.shard_corrupted(view)
    sim.events.emit(
        "view-installed",
        height,
        label=view.label,
        digest=view.digest,
        core=len(view.core),
        spare=len(view.spare),
        degraded=len(view.core) < sim.cfg.s_min,
        corrupted=corrupted,
        **fields,
    )
    return corrupted

"""The deterministic per-height simulation loop, and the message-scaling
grid built from its runs.

One height is one macro-round: view updates, then topology changes (both in
``views``), then committee election plus block agreement (``agreement``),
then credential renewals (joins delivered by ``views``) and the workload.
``Simulation`` holds the run state, sets it up, runs the height loop and
gives the verdicts.  Every source of randomness is a tagged substream of the
scenario seed, so a config replays to byte-identical outputs.

Set-up does each per-key step once for all keys, in this order: every
genesis key in one ``keygen_batch``; the genesis block and its pre-aged
UTXO set; every genesis credential in one ``derive_credentials`` batch;
the bootstrap directory, whose shards ``overlay.split_tree`` cuts from the
value-sorted credentials, with one ``form_view`` (one core election) per
final shard and none for the shards the split tree passes through; the
``view-installed`` events in label order; then set-up corruption.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import filterfalse
from typing import Iterable, Sequence

from . import agreement, views
from .adversary import STRATEGIES, AdversaryState, activate_due, schedule_corruption
from .blocks import committee_size
from .config import ScenarioConfig
from .credentials import Credential, derive_credentials
from .crypto import KeyPair, Prg, keygen_batch, tagged_hash, tagged_hash_indexed
from .ledger import (
    BlockRules,
    Transaction,
    TxOutput,
    apply_transaction,
    header_hash,
    make_genesis,
    make_transaction,
    total_stake,
)
from .membership import ShardView, form_view, order_spare, view_digest
from .oracles import InvariantError, check_liveness, check_safety
# Joins are routed in ``views``; perfbench's tracer test still wants ``route`` here.
from .overlay import check_prefix_free_cover, route, split_tree
from .protocols import MessageMeter, ParticipantSet, shard_entropy, within_bound
from .records import EventLog, Metrics
from .utxo_index import UtxoIndex


class Simulation:
    """One deterministic scenario run.  The config was checked when it was
    built, so nothing here checks it again."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.master = tagged_hash(b"scenario", config.master_seed.encode("utf-8"))
        self.rules = BlockRules(
            stake_cap=config.stake_cap,
            f_shard=config.f_shard,
            mu_core=config.mu_core,
            s_min=config.s_min,
        )
        self.s_c = committee_size(config.f_shard, config.mu_corrupted)
        self.meter = MessageMeter()
        self.events = EventLog()
        self.metrics = Metrics(config.name, config.n_credentials)
        self.strategy = STRATEGIES[config.adversary_strategy](config.adversary_params)
        self.adv = AdversaryState(seed=tagged_hash(b"adversary-seed", self.master))
        self.pending: dict[bytes, Transaction] = {}
        self.in_flight: set[bytes] = set()
        self.attempt = 0  # failed tries at the current height
        self.workload_prg = Prg(tagged_hash(b"workload", self.master))
        self.workload_counter = 0
        self.joins_submitted = 0
        self._setup()

    # -- bootstrap ---------------------------------------------------------

    def _setup(self):
        cfg = self.cfg
        # Every genesis key in one pass: user i's seed material is
        # tagged_hash(b"user", master, encode_int(i)), groups in config order.
        kps = keygen_batch(tagged_hash_indexed(b"user", range(cfg.n_credentials), self.master))
        self.keyring: dict[bytes, KeyPair] = {kp.pk: kp for kp in kps}
        stakes = [stake for count, stake in cfg.genesis for _ in range(count)]
        genesis = make_genesis(
            zip([kp.pk for kp in kps], stakes), tagged_hash(b"genesis", self.master), cfg.stake_cap
        )
        # UTXOs are pre-aged by one epoch so first credentials anchor at the
        # genesis block and shards can produce from height 1.
        # ``agreement.accept`` is the index's only writer after genesis.
        self.utxos = UtxoIndex(
            apply_transaction({}, genesis.body[0], -cfg.epoch_length), cfg.epoch_length
        )
        self.chain = [genesis]
        self.headers = [genesis.header]  # credential derivation wants headers
        self.observer_chains = [[genesis] for _ in range(cfg.observers)]
        self.events.emit("genesis", 0, block=header_hash(genesis.header), users=cfg.n_credentials)

        # Every keyring key participates; genesis pays keyring keys only.
        # The directory is the leaves of the bootstrap split tree, and a
        # core is elected for each leaf alone: a leaf's members and seed
        # depend only on its label.
        creds = derive_credentials(self.utxos.sorted_pks, 0, genesis.header.seed, cfg.epoch_length)
        leaves = split_tree(order_spare(creds), cfg.s_min, cfg.s_max)
        self.directory: dict[str, ShardView] = {
            label: form_view(
                label, members, 0, shard_entropy(self.master, label, 0, b"bootstrap"), cfg.s_min
            )
            for label, members in leaves.items()
        }
        cover = check_prefix_free_cover(self.directory)
        if not cover:
            raise InvariantError(f"bootstrap directory invalid: {cover.reason}")
        # Per label: the credentials routed to the shard since its view was
        # installed (see ``views``), each mapped to whether the renewal phase
        # derived it, so admission need not derive it again.
        self.joins: dict[str, dict[Credential, bool]] = {label: {} for label in self.directory}
        for label, view in self.directory.items():
            self.events.emit(
                "view-installed",
                0,
                label=label,
                digest=view_digest(view),
                core=len(view.core),
                spare=len(view.spare),
            )

        # Targeted corruption first so the stress hook is predictable; the
        # greedy fill only runs when an explicit fraction asks for it (or a
        # non-passive strategy has no forced targets).  Set-up spends no
        # stake, so one stake limit serves every candidate.
        limit = cfg.corruption_budget * total_stake(self.utxos.live)
        if cfg.force_corrupt_shards:
            self._force_corrupt(cfg.force_corrupt_shards, limit)
        if cfg.corrupt_fraction is not None or (
            cfg.adversary_strategy != "passive" and not cfg.force_corrupt_shards
        ):
            adv, live, epoch = self.adv, self.utxos.live, cfg.epoch_length
            for pk in sorted(self.keyring):
                if adv.controls(pk):
                    continue
                if not schedule_corruption(adv, pk, -epoch, live, limit, epoch):
                    break
                self.events.emit("corruption-scheduled", 0, pk=pk)
        self._activate_corruptions(0)

    def _force_corrupt(self, n_shards: int, limit: Fraction):
        """Stress hook: corrupt enough core members of the first shards to
        push them past the mu_core bound (within the stake ``limit``)."""
        adv, live, epoch = self.adv, self.utxos.live, self.cfg.epoch_length
        for label in sorted(self.directory)[:n_shards]:
            view = self.directory[label]
            have = sum(1 for c in view.core if adv.controls(c.pk))
            for cred in view.core:
                if not within_bound(have, len(view.core), self.cfg.mu_core):
                    break
                if adv.controls(cred.pk):
                    continue
                if schedule_corruption(adv, cred.pk, -epoch, live, limit, epoch):
                    have += 1
                else:
                    self.metrics.incident(0, "force-corrupt-budget", label=label)
                    return

    # -- helpers -----------------------------------------------------------

    @property
    def utxo_history(self) -> UtxoIndex:
        """Read-only mapping from each accepted height to its UTXO set."""
        return self.utxos

    def core_parts(self, view: ShardView) -> ParticipantSet:
        """The view's core as a protocol membership, in core order."""
        byzantine = view.core_pk_set & self.adv.corrupted
        return ParticipantSet(members=view.core_pks, byzantine=byzantine)

    def shard_corrupted(self, view: ShardView) -> bool:
        """Whether the core of ``view``, as ``core_parts`` gives it, is past
        mu_core: such a shard counts as a corrupted shard, votes as a
        corrupted committee member, and its corrupted members sign any
        block.  Counted on the view's cached core pk set, without building
        the ``ParticipantSet``."""
        byzantine = len(view.core_pk_set & self.adv.corrupted)
        return not within_bound(byzantine, len(view.core), self.cfg.mu_core)

    def willing_signers(
        self, view: ShardView, honest_sign: bool, byz_sign: bool
    ) -> Iterable[bytes]:
        """The core pks of ``view`` willing to sign, in core order: an honest
        member iff ``honest_sign``, a corrupted one iff ``byz_sign``.  The
        view's own ``core_pks`` when everyone is willing, else a lazy
        filter, so ``sign_until_quorum`` reads the core only until its
        quorum."""
        corrupted, pks = self.adv.corrupted, view.core_pks
        if honest_sign == byz_sign or not corrupted:
            return pks if honest_sign else ()
        return (filter if byz_sign else filterfalse)(corrupted.__contains__, pks)

    # -- the height loop -----------------------------------------------------

    def run(self) -> tuple[Metrics, EventLog]:
        for _round in range(1, self.cfg.heights + 1):
            target = len(self.chain)
            self._activate_corruptions(target)
            views.update_views(self, target)
            views.apply_topology(self, target)
            if agreement.produce_block(self, target):
                self._renewals_and_workload(target)
        self._finish()
        return self.metrics, self.events

    def _activate_corruptions(self, height: int):
        for pk in activate_due(self.adv, height, self.keyring):
            self.events.emit("corruption-active", height, pk=pk)

    # -- renewals and workload ----------------------------------------------

    def _renewals_and_workload(self, height: int):
        """Joins of the credentials renewing at ``height``, then adversary
        and honest transactions."""
        cfg = self.cfg
        views.deliver_joins(self, height)
        for tx in self.strategy.issue_transactions(
            self.adv, self.utxos.live, height, cfg.epoch_length
        ):
            self._deliver_tx(tx, height, honest=False)

        if cfg.tx_rate and height <= cfg.heights - 2:
            self._issue_workload(height)

    def _draw_senders(self, count: int) -> list[bytes]:
        """Up to ``count`` honest senders.  Keys in flight are none, nor is a
        key whose secret the adversary has ever held, even after a respend
        rotated it out of the corrupted set.  ``adv.keys`` holds every live
        key outside the keyring too: keys join the keyring at set-up, here
        and in the adversary's marker transaction, before their first
        output; every other key is made by ``AdversaryState.fresh_key``,
        which records it in ``adv.keys``."""
        adv = self.adv
        excluded = (self.in_flight, adv.corrupted, adv.pending, adv.keys)
        return self.utxos.draw_senders(count, self.workload_prg, excluded)

    def _issue_workload(self, height: int):
        """``cfg.tx_rate`` honest transfers to fresh keys."""
        senders = self._draw_senders(self.cfg.tx_rate)
        first = self.workload_counter
        self.workload_counter += len(senders)
        receivers = keygen_batch(
            tagged_hash_indexed(b"wl-recv", range(first, self.workload_counter), self.master)
        )
        for sender, receiver in zip(senders, receivers):
            self.keyring[receiver.pk] = receiver
            tx = make_transaction(
                [self.keyring[sender]],
                [TxOutput(pk=receiver.pk, stake=self.utxos.live[sender].stake)],
            )
            self._deliver_tx(tx, height, honest=True)
            self.in_flight.add(sender)

    def _deliver_tx(self, tx: Transaction, height: int, honest: bool):
        self.pending[tx.tx_id] = tx
        self.metrics.tx_delivered(tx.tx_id.hex(), height, honest)
        self.events.emit("tx-delivered", height, tx=tx.tx_id, honest=honest)

    # -- verdicts ------------------------------------------------------------

    def _finish(self):
        safety_ok = check_safety(self.observer_chains)
        liveness = check_liveness(self.metrics)
        blocks = len(self.chain) - 1
        # A run without blocks included nothing: its chain did not grow, and
        # no transaction landed within the window either.
        liveness_ok = liveness.all_included and blocks > 0
        efficiency_ok = liveness.all_within_window and blocks > 0
        users = self.cfg.n_credentials
        per_user = self.meter.total / users if users else 0.0
        self.metrics.finish(
            safety_ok=safety_ok,
            liveness_ok=liveness_ok,
            efficiency_ok=efficiency_ok,
            fraction_within_window=liveness.fraction_within_window,
            view_violations=self.metrics.view_violations,
            incidents=len(self.metrics.incidents),
            blocks=blocks,
            messages_total=self.meter.total,
            per_user_messages=per_user,
            users=users,
        )
        self.events.emit(
            "run-complete",
            blocks,
            safety_ok=safety_ok,
            liveness_ok=liveness_ok,
            efficiency_ok=efficiency_ok,
        )


def run_scenario(config: ScenarioConfig) -> tuple[Metrics, EventLog]:
    sim = Simulation(config)
    return sim.run()


def message_scaling_report(configs: Sequence[ScenarioConfig]) -> dict:
    """Run a grid of configs differing only in size and report per-user
    average message counts plus growth ratios between successive entries."""
    rows = []
    for config in configs:
        metrics, _events = run_scenario(config)
        rows.append(
            {
                "name": config.name,
                "n_credentials": config.n_credentials,
                "blocks": metrics.summary["blocks"],
                "messages_total": metrics.summary["messages_total"],
                "per_user_messages": metrics.summary["per_user_messages"],
            }
        )
    ratios = []
    for prev, cur in zip(rows, rows[1:]):
        if prev["per_user_messages"]:
            ratios.append(cur["per_user_messages"] / prev["per_user_messages"])
        else:
            ratios.append(float("inf"))
    return {"rows": rows, "ratios": ratios}

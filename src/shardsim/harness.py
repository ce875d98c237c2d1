"""The deterministic per-height simulation loop, and the message-scaling
grid built from its runs.

One height is one macro-round: view updates, then topology changes, then
committee election plus block agreement, then credential renewals and the
transaction workload.  Every source of randomness is a tagged substream of
the scenario seed, so a config replays to byte-identical outputs.

View agreement: each updated view is checked against the registered one
(``verify_view_transition``: label, height, core size, expiry, credential
windows and routing of every newcomer) before the previous core signs it.  A
view that fails is never installed; it counts as a view-agreement violation
and stalls the shard.  The signature quorum is counted once, at install.

Per-shard state is two tables keyed by label: ``directory``, the installed
view, and ``joins``, the credentials routed to the shard since that view was
installed.  Every core member receives every join, so one set serves the
whole core; a corrupted member's proposal is the strategy's to choose.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Container, Mapping, Sequence

from .adversary import AdversaryState, activate_due, make_strategy, schedule_corruption
from .blocks import (
    attach_certificate,
    build_proposal,
    committee_size,
    elect_committee,
    shard_sign_block,
)
from .config import ConfigError, ScenarioConfig
from .credentials import Credential, derive_credential, verify_credential
from .crypto import Prg, encode_int, keygen, tagged_hash, vrf_eval
from .ledger import (
    Block,
    BlockHeader,
    BlockRules,
    ShardSignature,
    Transaction,
    TxOutput,
    apply_transaction,
    body_digest,
    header_hash,
    make_genesis,
    make_transaction,
    shard_quorum,
    sign_until_quorum,
    validate_block,
    validate_certificate,
)
from .membership import (
    ShardView,
    fill_core,
    form_view,
    install_and_diffuse,
    update_view,
    view_digest,
)
from .oracles import InvariantError, check_liveness, check_safety
from .overlay import (
    ROOT_LABEL,
    SizeBounds,
    check_prefix_free_cover,
    label_matches,
    maybe_merge,
    maybe_split,
    route,
    verify_view_transition,
)
from .protocols import (
    MessageMeter,
    ParticipantSet,
    random_beacon,
    shard_entropy,
    vector_consensus,
    verifiable_ba,
)
from .records import EventLog, Metrics
from .utxo_index import UtxoIndex


class Simulation:
    """One deterministic scenario run."""

    def __init__(self, config: ScenarioConfig, strict_params: bool = False):
        errors = config.validate(strict=strict_params)
        if errors:
            raise ConfigError("; ".join(errors))
        self.cfg = config
        self.master = tagged_hash(b"scenario", config.master_seed.encode("utf-8"))
        self.bounds = SizeBounds(config.s_min, config.s_max)
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
        self.strategy = make_strategy(config.adversary_strategy, config.adversary_params)
        self.adv = AdversaryState(
            seed=tagged_hash(b"adversary-seed", self.master), strategy=self.strategy
        )
        self.keyring: dict[bytes, object] = {}
        self.participation: dict[bytes, bool] = {}
        self.chain: list[Block] = []
        self.headers: list[BlockHeader] = []  # credential derivation wants headers
        self.directory: dict[str, ShardView] = {}
        self.joins: dict[str, set[Credential]] = {}
        self.observer_chains: list[list[Block]] = []
        self.pending: dict[bytes, Transaction] = {}
        self.in_flight: set[bytes] = set()
        self.attempts: dict[int, int] = {}
        self.workload_prg = Prg(tagged_hash(b"workload", self.master))
        self.workload_counter = 0
        self.joins_submitted = 0
        self.n_users = config.n_credentials
        self._setup()

    # -- bootstrap ---------------------------------------------------------

    def _setup(self):
        cfg = self.cfg
        genesis_utxos = []
        idx = 0
        for count, stake in cfg.genesis:
            for _ in range(count):
                kp = keygen(tagged_hash(b"user", self.master, encode_int(idx)))
                self.keyring[kp.pk] = kp
                self.participation[kp.pk] = cfg.participation == "all"
                genesis_utxos.append((kp.pk, stake))
                idx += 1

        genesis = make_genesis(
            genesis_utxos, tagged_hash(b"genesis", self.master), cfg.stake_cap
        )
        # UTXOs are pre-aged by one epoch so first credentials anchor at the
        # genesis block and shards can produce from height 1.  ``_accept``
        # is the index's only writer after genesis.
        self.utxos = UtxoIndex(
            apply_transaction({}, genesis.body[0], -cfg.epoch_length), cfg.epoch_length
        )
        self.chain = [genesis]
        self.headers = [genesis.header]
        self.observer_chains = [[genesis] for _ in range(cfg.observers)]
        self.events.emit(
            "genesis", 0, block=header_hash(genesis.header).hex(), users=self.n_users
        )

        creds = [self._credential(pk, 0) for pk in self.utxos.sorted_pks if self.participation[pk]]
        seed = shard_entropy(self.master, ROOT_LABEL, 0, b"bootstrap")
        self.directory = {ROOT_LABEL: form_view(ROOT_LABEL, creds, 0, seed, cfg.s_min)}
        self._bootstrap_splits()
        self.joins = {label: set() for label in self.directory}
        for label, view in sorted(self.directory.items()):
            self.events.emit(
                "view-installed",
                0,
                label=label,
                digest=view_digest(view).hex(),
                core=len(view.core),
                spare=len(view.spare),
            )

        # Targeted corruption first so the stress hook is predictable; the
        # greedy fill only runs when an explicit fraction asks for it (or a
        # non-passive strategy has no forced targets).
        if cfg.force_corrupt_shards:
            self._force_corrupt(cfg.force_corrupt_shards)
        if cfg.corrupt_fraction is not None or (
            cfg.adversary_strategy != "passive" and not cfg.force_corrupt_shards
        ):
            for pk in sorted(self.keyring):
                if self._controlled(pk):
                    continue
                if not self._schedule_corruption(pk):
                    break
                self.events.emit("corruption-scheduled", 0, pk=pk.hex())
        self._activate_corruptions(0)

    def _bootstrap_splits(self):
        # Child seeds depend only on the label and a label's members do not
        # depend on split order, so a worklist gives the same directory as
        # any other order.
        pending = list(self.directory)
        while pending:
            label = pending.pop()
            plan = maybe_split(label, self.directory[label], self.bounds)
            if plan is None:
                continue
            del self.directory[label]
            for child_label, members in plan.children:
                seed = shard_entropy(self.master, child_label, 0, b"bootstrap")
                self.directory[child_label] = form_view(
                    child_label, members, 0, seed, self.cfg.s_min
                )
                pending.append(child_label)
        cover = check_prefix_free_cover(self.directory)
        if not cover:
            raise InvariantError(f"bootstrap directory invalid: {cover.reason}")

    def _force_corrupt(self, n_shards: int):
        """Stress hook: corrupt enough core members of the first shards to
        push them past the mu_core bound (budget permitting)."""
        for label in sorted(self.directory)[:n_shards]:
            view = self.directory[label]
            need = int(self.cfg.mu_core * len(view.core)) + 1
            have = sum(1 for c in view.core if self._controlled(c.pk))
            for cred in view.core:
                if have >= need:
                    break
                if self._controlled(cred.pk):
                    continue
                if self._schedule_corruption(cred.pk):
                    have += 1
                else:
                    self.metrics.incident(0, "force-corrupt-budget", label=label)
                    return

    def _controlled(self, pk: bytes) -> bool:
        return pk in self.adv.corrupted or pk in self.adv.pending

    def _schedule_corruption(self, pk: bytes) -> bool:
        """Schedule ``pk`` at set-up if the corruption budget allows it."""
        cfg, live = self.cfg, self.utxos.live
        return schedule_corruption(
            self.adv, pk, -cfg.epoch_length, live, cfg.corruption_budget, cfg.epoch_length
        )

    # -- helpers -----------------------------------------------------------

    @property
    def utxo_history(self) -> UtxoIndex:
        """Read-only mapping from each accepted height to its UTXO set."""
        return self.utxos

    def _credential(self, pk: bytes, h: int) -> Credential:
        """Credential at ``h`` of ``pk``'s live UTXO, at least an epoch old;
        each ``(pk, anchor)`` is asked for once, so nothing is cached."""
        h0 = self.utxos.live[pk].created_height
        return derive_credential(pk, h0, h, self.headers, self.cfg.epoch_length)

    def _core_parts(self, view: ShardView) -> ParticipantSet:
        """The view's core as a protocol membership, in core order."""
        members = tuple([c.pk for c in view.core])
        corrupted = self.adv.corrupted
        byzantine = frozenset(corrupted.intersection(members)) if corrupted else frozenset()
        return ParticipantSet(members=members, byzantine=byzantine)

    def _shard_corrupted(self, view: ShardView) -> bool:
        """Whether the core of ``view`` is past mu_core by
        ``ParticipantSet.within``: such a shard counts as a corrupted shard,
        votes as a corrupted committee member, and its corrupted members
        sign any block."""
        return not self._core_parts(view).within(self.cfg.mu_core)

    def _signing_keys(
        self, view: ShardView, honest_sign: bool, byz_sign: bool
    ) -> tuple[Mapping, Container[bytes]]:
        """Keys and withheld pks for ``sign_until_quorum``: of the core of
        ``view``, honest members sign iff ``honest_sign``, corrupted ones iff
        ``byz_sign``.  While honest members sign, the keyring goes whole and
        is looked up only until the quorum."""
        corrupted, keyring = self.adv.corrupted, self.keyring
        if honest_sign:
            return keyring, (() if byz_sign else corrupted)
        willing = [c.pk for c in view.core if byz_sign and c.pk in corrupted]
        return {pk: keyring[pk] for pk in willing if pk in keyring}, ()

    # -- per-height phases ---------------------------------------------------

    def run(self) -> tuple[Metrics, EventLog]:
        for _round in range(1, self.cfg.heights + 1):
            target = len(self.chain)
            self._activate_corruptions(target)
            self._update_views(target)
            self._apply_topology(target)
            accepted = self._produce_block(target)
            if accepted:
                self._renewals_and_workload(target)
        self._finish()
        return self.metrics, self.events

    def _activate_corruptions(self, height: int):
        for pk in activate_due(self.adv, height, self.keyring):
            self.events.emit("corruption-active", height, pk=pk.hex())

    def _update_views(self, height: int):
        for label in sorted(self.directory):
            view = self.directory[label]
            if view.height >= height:
                continue
            if view.height < height - 1:
                # Stalled shard catching up one view per round.
                self.metrics.incident(height, "view-catch-up", label=label)
            self._update_one_view(view, view.height + 1)

    def _update_one_view(self, old_view: ShardView, height: int):
        cfg = self.cfg
        label = old_view.label
        parts = self._core_parts(old_view)
        core_pks = parts.members

        # Every core member received the shard's joins; what a corrupted
        # member proposes instead is the strategy's ``vector_decision``.
        received = frozenset(self.joins[label])
        honest_inputs = dict.fromkeys(core_pks, received)
        decision = self.strategy.vector_decision(
            core_pks, parts.byzantine, honest_inputs, parts.bft_contract_holds, purpose="joins"
        )
        vector = vector_consensus(parts, honest_inputs, decision, self.meter)

        eval_height = height - 1  # validity judged at the last accepted block

        def newcomer_valid(cred: Credential) -> bool:
            return label_matches(label, cred.value) and verify_credential(
                cred, eval_height, self.headers, self.utxos.utxo_at
            )

        upd = update_view(old_view, vector, newcomer_valid)
        view, promoted = upd.view, ()
        if len(view.core) < cfg.s_min:
            # Objective for a seed-grinding beacon quorum: corrupted members
            # in the refilled core.
            corrupted = self.adv.corrupted
            seed = self._run_beacon(
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
            self.metrics.view_violations += 1
            self._reject_view(label, height, "view-divergence", reason=transition.reason)
            return

        digest = view_digest(view)
        # Whatever was collected goes to the install, which alone counts the
        # quorum; corrupted members sign as the strategy says.
        old_pks = set(core_pks)
        keys, withheld = self._signing_keys(old_view, True, self.strategy.signs())
        signatures = sign_until_quorum(
            core_pks,
            keys,
            digest,
            shard_quorum(cfg.mu_core, cfg.s_min, len(old_pks)),
            withheld,
        )
        if not install_and_diffuse(view, signatures, old_pks, cfg.mu_core, cfg.s_min):
            self._reject_view(label, height, "view-install-failed")
            return

        if self._register_shard(
            view, height, promoted=len(promoted), newcomers=len(upd.newcomers)
        ):
            self.metrics.incident(height, "corrupted-shard", label=label)

    def _reject_view(self, label: str, height: int, kind: str, **fields):
        """Keep the registered view and its joins; the shard lags the
        height, so it produces no block until it catches up."""
        self.metrics.incident(height, kind, label=label, **fields)
        self.events.emit("view-rejected", height, label=label)

    def _run_beacon(
        self,
        label: str,
        parts: ParticipantSet,
        height: int,
        purpose: bytes,
        evaluate: Callable[[bytes], float],
    ) -> bytes:
        entropy = shard_entropy(self.master, label, height, purpose)
        chosen = None
        if not parts.within(self.cfg.mu_core):
            chosen = self.strategy.beacon_choice(entropy, evaluate, self.adv.prg())
        seed = random_beacon(parts, entropy, self.cfg.mu_core, chosen, self.meter)
        self.events.emit(
            "beacon",
            height,
            label=label,
            purpose=purpose.decode("ascii"),
            seed=seed.hex(),
            biased=chosen is not None,
        )
        if chosen is not None:
            self.metrics.incident(height, "beacon-biased", label=label)
        return seed

    def _apply_topology(self, height: int):
        # Splits first, then merges, in label order.
        for label in sorted(self.directory):
            if label not in self.directory:
                continue
            view = self.directory[label]
            plan = maybe_split(label, view, self.bounds)
            if plan is None:
                continue
            beacon = self._run_beacon(
                label, self._core_parts(view), height, b"split", evaluate=lambda seed: 0.0
            )
            del self.directory[label], self.joins[label]
            child_labels = []
            for child_label, members in plan.children:
                child_seed = tagged_hash(b"child", beacon, child_label.encode("ascii"))
                child = form_view(child_label, members, height, child_seed, self.cfg.s_min)
                self._register_shard(child, height)
                child_labels.append(child_label)
            self.events.emit("split", height, parent=label, children=child_labels)

        merged = True
        while merged:
            merged = False
            for label in sorted(self.directory):
                view = self.directory.get(label)
                if view is None:
                    continue
                plan = maybe_merge(label, view, self.directory, self.bounds)
                if plan is None:
                    continue
                beacon = self._run_beacon(
                    label, self._core_parts(view), height, b"merge", evaluate=lambda seed: 0.0
                )
                for absorbed in plan.absorbed:
                    del self.directory[absorbed], self.joins[absorbed]
                merged_view = form_view(
                    plan.new_label, plan.members, height, beacon, self.cfg.s_min
                )
                self._register_shard(merged_view, height)
                self.events.emit(
                    "merge", height, label=plan.new_label, absorbed=list(plan.absorbed)
                )
                merged = True
                break

        cover = check_prefix_free_cover(self.directory)
        if not cover:
            raise InvariantError(f"directory invariant broken at {height}: {cover.reason}")

    def _register_shard(self, view: ShardView, height: int, **fields) -> bool:
        """Install ``view`` with an empty join set and announce it to the
        network; returns whether the shard is corrupted.  After bootstrap
        this is the only writer of ``directory`` and ``joins``."""
        self.directory[view.label] = view
        self.joins[view.label] = set()
        self.meter.charge(self.n_users)  # network-wide view notification
        corrupted = self._shard_corrupted(view)
        self.events.emit(
            "view-installed",
            height,
            label=view.label,
            digest=view.digest.hex(),
            core=len(view.core),
            spare=len(view.spare),
            degraded=len(view.core) < self.cfg.s_min,
            corrupted=corrupted,
            **fields,
        )
        return corrupted

    def _produce_block(self, height: int) -> bool:
        prev = self.chain[-1].header
        eligible = sorted(
            label
            for label, view in self.directory.items()
            if view.height == height and len(view.core) >= self.cfg.s_min
        )
        committee_record: list[str] = []
        accepted_block = None
        outcome_rounds = 0
        # Joins this height's view updates consumed, i.e. submissions from
        # the previous renewals phase.
        joins = self.joins_submitted
        self.joins_submitted = 0
        if not eligible:
            self.metrics.incident(height, "no-eligible-shards")
        else:
            attempt = self.attempts.get(height, 0)
            elect_seed = (
                prev.seed
                if attempt == 0
                else tagged_hash(b"retry", prev.seed, encode_int(attempt))
            )
            committee = elect_committee(eligible, elect_seed, self.s_c)
            committee_record = list(committee.labels)
            if committee.shortfall:
                self.metrics.incident(height, "committee-shortfall", have=len(eligible))
            self.events.emit(
                "committee", height, labels=committee_record, attempt=attempt
            )
            accepted_block, outcome_rounds = self._agree_block(height, prev, committee)

        accepted = accepted_block is not None
        if not accepted:
            self.attempts[height] = self.attempts.get(height, 0) + 1
        self.metrics.record_height(
            height=height,
            block=header_hash(accepted_block.header).hex() if accepted else "",
            committee=committee_record,
            leader_rounds=outcome_rounds,
            corrupted_shards=sum(
                1 for view in self.directory.values() if self._shard_corrupted(view)
            ),
            shards=len(self.directory),
            members=sum(len(v.members()) for v in self.directory.values()),
            joins=joins,
            txs_included=len(accepted_block.body) if accepted else 0,
            messages_total=self.meter.total,
        )
        return accepted

    def _agree_block(self, height: int, prev, committee) -> tuple[Block | None, int]:
        cfg = self.cfg
        pending_txs = tuple(self.pending[k] for k in sorted(self.pending))
        proposals: dict[str, Block] = {}
        corrupted_labels = set()
        for label in committee.labels:
            view = self.directory[label]
            core = self._core_parts(view)
            if self._shard_corrupted(view):
                corrupted_labels.add(label)
            honest_inputs = {}
            for pk in core.members:
                kp = self.keyring.get(pk)
                if kp is None:
                    continue
                honest_inputs[pk] = (pending_txs, vrf_eval(kp, prev.seed))
            decision = self.strategy.vector_decision(
                core.members,
                core.byzantine,
                honest_inputs,
                core.bft_contract_holds,
                purpose="proposal",
            )
            proposal = build_proposal(
                label,
                core,
                prev,
                self.utxos.live,
                honest_inputs,
                cfg.stake_cap,
                decision=decision,
                meter=self.meter,
            )
            if proposal is not None:
                proposals[label] = proposal

        byz_labels = frozenset(corrupted_labels)
        parts = ParticipantSet(members=tuple(committee.labels), byzantine=byz_labels)

        def block_valid(candidate: Block) -> bool:
            # Pre-agreement check: the certificate only exists after the
            # committee has decided and endorsed.
            return bool(
                validate_block(
                    self.utxos.live,
                    self.directory,
                    candidate,
                    prev,
                    self.rules,
                    committee.labels,
                    require_certificate=False,
                )
            )

        decision = self.strategy.ba_decision(byz_labels, proposals)
        outcome = verifiable_ba(
            parts,
            proposals,
            block_valid,
            cfg.mu_corrupted,
            decision,
            self.meter,
            instance_weight=cfg.s_min,
        )
        if not outcome.contract_held:
            self.metrics.incident(
                height, "corrupted-committee", labels=sorted(byz_labels)
            )

        decided = outcome.value
        if decided is None and not outcome.contract_held:
            return self._try_equivocation(height, prev, committee, proposals, byz_labels, outcome.rounds)
        if decided is None:
            return self._no_block(height, "no-decision", outcome.rounds)

        # Within its contract the BA only decides a block that passed
        # block_valid; only a dictated block needs validating again.
        valid = outcome.contract_held or block_valid(decided)
        certified, shard_sigs = self._endorse(decided, committee, valid, self.strategy.signs())
        self.meter.charge(sum(len(ss.member_sigs) for ss in shard_sigs))
        if certified is None:
            return self._no_block(height, "certificate-shortfall", outcome.rounds)

        # Header and body passed block_valid; only the certificate is new.
        if outcome.contract_held:
            final = validate_certificate(certified, self.directory, self.rules, committee.labels)
            if not final:
                raise InvariantError(f"certified block failed validation: {final.reason}")
        self._accept(certified, height, leader=outcome.leader)
        return certified, outcome.rounds

    def _endorse(
        self, block: Block, committee, honest_sign: bool, byz_sign: bool
    ) -> tuple[Block | None, list[ShardSignature]]:
        """Collect each committee shard's endorsement of ``block`` and, with
        at least 2 f_shard + 1 of them, attach the certificate.

        An honest member signs iff ``honest_sign``; a corrupted member signs
        iff ``byz_sign`` or its shard is past mu_core, since a corrupted
        quorum certifies anything the adversary wants.  Returns the
        certified block (None on a shortfall) and the shard signatures
        collected either way.
        """
        shard_sigs = []
        for label in committee.labels:
            view = self.directory[label]
            keys, withheld = self._signing_keys(
                view, honest_sign, byz_sign or self._shard_corrupted(view)
            )
            ss = shard_sign_block(
                label, view, block, keys, self.cfg.mu_core, self.cfg.s_min, withheld
            )
            if ss is not None:
                shard_sigs.append(ss)
        if len(shard_sigs) < 2 * self.cfg.f_shard + 1:
            return None, shard_sigs
        return attach_certificate(block, shard_sigs), shard_sigs

    def _no_block(self, height: int, kind: str, rounds: int) -> tuple[None, int]:
        """A height that ends without a block: record why."""
        self.metrics.incident(height, kind)
        self.events.emit("no-block", height, rounds=rounds)
        return None, rounds

    def _try_equivocation(
        self, height, prev, committee, proposals, byz_labels, rounds
    ) -> tuple[Block | None, int]:
        """Contract-void committee: the adversary may split observers with
        two certified variants, crash the height, or certify one block."""
        base = None
        for label in sorted(byz_labels):
            if label in proposals:
                base = proposals[label]
                break
        if base is None:
            return self._no_block(height, "no-decision", rounds)

        def craft(variant: int) -> Block | None:
            """Variant 0 is the base block, any other one the base block plus
            a marker transaction; corrupted members certify it alone."""
            block = base
            if variant != 0:
                extra = self._adversary_marker_tx()
                if extra is None:
                    return None
                body = tuple(base.body) + (extra,)
                block = replace(
                    base,
                    header=replace(base.header, body_hash=body_digest(body)),
                    body=body,
                )
            return self._endorse(block, committee, False, True)[0]

        variants = self.strategy.equivocate_blocks(craft, self.cfg.observers)
        if not variants:
            single = craft(0)
            if single is None:
                return self._no_block(height, "no-decision", rounds)
            self._accept(single, height, leader=None)
            return single, rounds

        canonical = variants.get(0) or next(iter(variants.values()))
        self.metrics.incident(
            height,
            "equivocation",
            hashes=sorted({header_hash(b.header).hex() for b in variants.values()}),
        )
        self._accept(canonical, height, leader=None, per_observer=variants)
        return canonical, rounds

    def _adversary_marker_tx(self) -> Transaction | None:
        for pk in sorted(self.adv.corrupted):
            utxo = self.utxos.live.get(pk)
            if utxo is None or pk in self.in_flight:
                continue
            fresh = self.adv.fresh_key()
            self.keyring[fresh.pk] = fresh
            self.adv.corrupted.add(fresh.pk)
            self.adv.keys[fresh.pk] = fresh
            self.participation[fresh.pk] = self.cfg.participation == "all"
            return make_transaction(
                [self.keyring[pk]], [TxOutput(pk=fresh.pk, stake=utxo.stake)]
            )
        return None

    def _accept(
        self,
        block: Block,
        height: int,
        leader: str | None,
        per_observer: Mapping[int, Block] | None = None,
    ):
        self.chain.append(block)
        self.headers.append(block.header)
        self.utxos.apply(block, self.keyring)
        for i, chain in enumerate(self.observer_chains):
            delivered = per_observer.get(i, block) if per_observer else block
            chain.append(delivered)
        self.meter.charge(self.n_users)  # block diffusion
        for tx in block.body:
            tx_hex = tx.tx_id.hex()
            self.metrics.tx_included(tx_hex, height)
            self.pending.pop(tx.tx_id, None)
            for pk in tx.inputs:
                self.in_flight.discard(pk)
            self.events.emit("tx-included", height, tx=tx_hex)
        self.events.emit(
            "block-accepted",
            height,
            block=header_hash(block.header).hex(),
            proposer=block.header.proposer_label,
            leader=leader,
            txs=len(block.body),
        )

    # -- renewals and workload ----------------------------------------------

    def _renewals_and_workload(self, height: int):
        """Joins of the credentials renewing at ``height``, then adversary
        and honest transactions."""
        cfg = self.cfg
        for pk in self.utxos.due_renewals(height, self.participation):
            cred = self._credential(pk, height)
            # The view's own label, not ``route``'s freshly sliced copy: the
            # event log keeps one reference per join.
            view = self.directory[route(self.directory, cred.value)]
            self.joins[view.label].add(cred)
            self.meter.charge(len(view.core))  # delivery to every core member
            self.joins_submitted += 1
            self.events.emit(
                "join", height, label=view.label, pk=pk.hex(), anchor=cred.anchor_height
            )

        for tx in self.strategy.issue_transactions(
            self.adv, self.utxos.live, cfg.stake_cap, height, cfg.epoch_length
        ):
            self._deliver_tx(tx, height, honest=False)

        if cfg.tx_rate and height <= cfg.heights - 2:
            self._issue_workload(height)

    def _draw_senders(self, count: int) -> list[bytes]:
        """Up to ``count`` honest senders.  Keys in flight are none, nor is a
        key whose secret the adversary has ever held, even after a respend
        rotated it out of the corrupted set."""
        adv = self.adv
        excluded = (self.in_flight, adv.corrupted, adv.pending, adv.keys)
        return self.utxos.draw_senders(count, self.workload_prg, excluded)

    def _issue_workload(self, height: int):
        """``cfg.tx_rate`` honest transfers to fresh keys."""
        cfg = self.cfg
        for sender in self._draw_senders(cfg.tx_rate):
            receiver = keygen(
                tagged_hash(b"wl-recv", self.master, encode_int(self.workload_counter))
            )
            self.workload_counter += 1
            self.keyring[receiver.pk] = receiver
            self.participation[receiver.pk] = cfg.participation == "all"
            tx = make_transaction(
                [self.keyring[sender]],
                [TxOutput(pk=receiver.pk, stake=self.utxos.live[sender].stake)],
            )
            self._deliver_tx(tx, height, honest=True)
            self.in_flight.add(sender)

    def _deliver_tx(self, tx: Transaction, height: int, honest: bool):
        self.pending[tx.tx_id] = tx
        self.metrics.tx_delivered(tx.tx_id.hex(), height, honest)
        self.events.emit(
            "tx-delivered", height, tx=tx.tx_id.hex(), honest=honest
        )

    # -- verdicts ------------------------------------------------------------

    def _finish(self):
        safety_ok = check_safety(self.observer_chains)
        liveness = check_liveness(self.metrics)
        blocks = len(self.chain) - 1
        # A run without blocks included nothing: its chain did not grow, and
        # no transaction landed within the window either.
        liveness_ok = liveness.all_included and blocks > 0
        efficiency_ok = liveness.all_within_window and blocks > 0
        per_user = self.meter.total / self.n_users if self.n_users else 0.0
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
            users=self.n_users,
        )
        self.events.emit(
            "run-complete",
            blocks,
            safety_ok=safety_ok,
            liveness_ok=liveness_ok,
            efficiency_ok=efficiency_ok,
        )


def run_scenario(config: ScenarioConfig, strict_params: bool = False) -> tuple[Metrics, EventLog]:
    sim = Simulation(config, strict_params=strict_params)
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

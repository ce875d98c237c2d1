"""Scenario configuration, the deterministic per-height simulation loop,
property oracles (safety, liveness, efficiency, message scaling), metrics
and the replayable event log.

One height is one macro-round: view updates, then topology changes, then
committee election plus block agreement, then credential renewals and the
transaction workload.  Every source of randomness is a tagged substream of
the scenario seed, so a config replays to byte-identical outputs.

View agreement: each updated view is checked against the registered one
(``verify_view_transition``: label, height, core size, expiry, credential
windows and routing of every newcomer) before the previous core signs it.  A
view that fails is never installed; it counts as a view-agreement violation
and stalls the shard.  The signature quorum is counted once, at install.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Container, Iterable, Mapping, Sequence

from .adversary import (
    STRATEGIES,
    AdversaryState,
    activate_due,
    make_strategy,
    schedule_corruption,
)
from .analysis import solve_params
from .blocks import (
    attach_certificate,
    build_proposal,
    committee_size,
    elect_committee,
    shard_sign_block,
)
from .credentials import Credential, derive_credential, epoch_anchor, verify_credential
from .crypto import Prg, encode_int, hash_digest, keygen, tagged_hash, vrf_eval
from .ledger import (
    Block,
    BlockHeader,
    BlockRules,
    ShardSignature,
    Transaction,
    TxOutput,
    apply_block,
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
    ShardRuntime,
    ShardView,
    expiring_members,
    form_view,
    install_and_diffuse,
    refill_needed,
    update_view,
    view_digest,
)
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

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal invariant of the simulation broke: a fault in shardsim,
    not a verdict on the scenario."""


def parse_ratio(value) -> Fraction:
    """Ratios come in as exact strings ("1/3") or integers; binary floats
    are rejected so thresholds stay exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ConfigError(f"ratio fields take strings like '1/3' or integers, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    master_seed: str
    epoch_length: int
    heights: int
    s_min: int
    s_max: int
    mu_core: Fraction
    mu_corrupted: Fraction
    mu: Fraction
    stake_cap: int
    kappa: float
    f_shard: int
    genesis: tuple[tuple[int, int], ...]  # (count, stake) groups
    tx_rate: int = 0
    adversary_strategy: str = "passive"
    adversary_params: Mapping = field(default_factory=dict)
    corrupt_fraction: Fraction | None = None
    force_corrupt_shards: int = 0
    participation: str = "all"
    observers: int = 3
    unsafe_params: bool = False
    name: str = ""

    @property
    def n_credentials(self) -> int:
        return sum(count for count, _ in self.genesis)

    @property
    def corruption_budget(self) -> Fraction:
        return self.corrupt_fraction if self.corrupt_fraction is not None else self.mu

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "ScenarioConfig":
        """Parse a config mapping; every malformed input raises ConfigError."""
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        data = dict(raw)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        try:
            genesis = tuple(
                (int(g["count"]), int(g["stake"])) for g in data.pop("genesis")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad genesis spec: {exc}") from exc
        adversary = data.pop("adversary", {})
        if not isinstance(adversary, Mapping):
            raise ConfigError("adversary must be a JSON object")
        corrupt = adversary.get("corrupt_fraction")
        try:
            kwargs = dict(
                master_seed=str(data.pop("master_seed")),
                epoch_length=int(data.pop("epoch_length")),
                heights=int(data.pop("heights")),
                s_min=int(data.pop("s_min")),
                s_max=int(data.pop("s_max")),
                mu_core=parse_ratio(data.pop("mu_core")),
                mu_corrupted=parse_ratio(data.pop("mu_corrupted")),
                mu=parse_ratio(data.pop("mu")),
                stake_cap=int(data.pop("stake_cap")),
                kappa=float(data.pop("kappa")),
                f_shard=int(data.pop("f_shard")),
                genesis=genesis,
                tx_rate=int(data.pop("tx_rate", 0)),
                adversary_strategy=str(adversary.get("strategy", "passive")),
                adversary_params=dict(adversary.get("params", {})),
                corrupt_fraction=parse_ratio(corrupt) if corrupt is not None else None,
                force_corrupt_shards=int(adversary.get("force_corrupt_shards", 0)),
                participation=str(data.pop("participation", "all")),
                observers=int(data.pop("observers", 3)),
                unsafe_params=bool(data.pop("unsafe_params", False)),
                name=str(data.pop("name", "")),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config field: {exc}") from exc
        if data:
            raise ConfigError(f"unknown config fields: {sorted(data)}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}") from exc
        return cls.from_mapping(raw)

    def to_mapping(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "master_seed": self.master_seed,
            "epoch_length": self.epoch_length,
            "heights": self.heights,
            "s_min": self.s_min,
            "s_max": self.s_max,
            "mu_core": str(self.mu_core),
            "mu_corrupted": str(self.mu_corrupted),
            "mu": str(self.mu),
            "stake_cap": self.stake_cap,
            "kappa": self.kappa,
            "f_shard": self.f_shard,
            "genesis": [{"count": c, "stake": s} for c, s in self.genesis],
            "tx_rate": self.tx_rate,
            "adversary": {
                "strategy": self.adversary_strategy,
                "params": dict(self.adversary_params),
                "corrupt_fraction": (
                    str(self.corrupt_fraction) if self.corrupt_fraction is not None else None
                ),
                "force_corrupt_shards": self.force_corrupt_shards,
            },
            "participation": self.participation,
            "observers": self.observers,
            "unsafe_params": self.unsafe_params,
        }

    def validate(self, strict: bool = False) -> list[str]:
        errors = []
        if self.epoch_length < 1:
            errors.append("epoch_length must be >= 1")
        if self.heights < 1:
            errors.append("heights must be >= 1")
        if self.s_min < 1:
            errors.append("s_min must be >= 1")
        if self.s_max < 2 * self.s_min:
            errors.append("s_max must be >= 2 * s_min")
        for name in ("mu_core", "mu_corrupted", "mu"):
            value = getattr(self, name)
            if not (0 < value < 1):
                errors.append(f"{name} must lie strictly between 0 and 1")
        if self.stake_cap < 1:
            errors.append("stake_cap must be >= 1")
        if not self.genesis:
            errors.append("genesis must list at least one UTXO group")
        for count, stake in self.genesis:
            if count < 1:
                errors.append("genesis group count must be >= 1")
            if not (1 <= stake <= self.stake_cap):
                errors.append(f"genesis stake {stake} outside [1, {self.stake_cap}]")
        if self.tx_rate < 0:
            errors.append("tx_rate must be >= 0")
        if self.f_shard < 0:
            errors.append("f_shard must be >= 0")
        if self.observers < 1:
            errors.append("observers must be >= 1")
        if self.adversary_strategy not in STRATEGIES:
            errors.append(f"unknown adversary strategy {self.adversary_strategy!r}")
        if self.corrupt_fraction is not None and self.corrupt_fraction > self.mu:
            errors.append("corrupt_fraction exceeds the adversary stake bound mu")
        if self.participation not in ("all", "none"):
            errors.append(f"unknown participation policy {self.participation!r}")
        if self.force_corrupt_shards < 0:
            errors.append("force_corrupt_shards must be >= 0")

        if strict and self.unsafe_params:
            errors.append("unsafe_params configs rejected under strict parameter checking")
        if not errors and (strict or not self.unsafe_params):
            solved = solve_params(
                self.mu, self.kappa, self.n_credentials, self.stake_cap, self.mu_core
            )
            if not solved.feasible:
                errors.append(
                    "no feasible core size for (mu, kappa, N, stake_cap, mu_core); "
                    "mark unsafe_params for stress runs"
                )
            elif self.s_min < solved.s_min:
                errors.append(
                    f"s_min={self.s_min} below the {solved.s_min} required for "
                    f"kappa={self.kappa}; mark unsafe_params for stress runs"
                )
            elif self.n_credentials < self.s_min:
                errors.append("fewer credentials than s_min: the root shard cannot form")
        return errors


def load_config(path, strict: bool = False) -> ScenarioConfig:
    config = ScenarioConfig.from_file(path)
    errors = config.validate(strict=strict)
    if errors:
        raise ConfigError("; ".join(errors))
    return config


class EventLog:
    """Append-only protocol event records, canonically serialized."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, kind: str, height: int, **fields):
        record = {"seq": len(self.records), "kind": kind, "height": height}
        record.update(fields)
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        return hash_digest(self.to_jsonl().encode("utf-8")).hex()


_CSV_COLUMNS = (
    "height",
    "block",
    "committee",
    "leader_rounds",
    "corrupted_shards",
    "shards",
    "members",
    "joins",
    "txs_included",
    "messages_total",
)


class Metrics:
    """Per-height simulation records plus run verdicts.

    Append-only and a pure function of the scenario config; serialization
    is canonical so digests can be compared across replays.
    """

    def __init__(self, name: str, n_users: int):
        self.name = name
        self.n_users = n_users
        self.rows: list[dict] = []
        self.incidents: list[dict] = []
        # tx id hex -> {"delivered", "included", "honest"}
        self.latencies: dict[str, dict] = {}
        self.view_violations = 0
        self.summary: dict = {}

    def record_height(self, **fields):
        self.rows.append({col: fields.get(col) for col in _CSV_COLUMNS})

    def incident(self, height: int, kind: str, **fields):
        rec = {"height": height, "kind": kind}
        rec.update(fields)
        self.incidents.append(rec)

    def tx_delivered(self, tx_id: str, height: int, honest: bool):
        self.latencies[tx_id] = {"delivered": height, "included": None, "honest": honest}

    def tx_included(self, tx_id: str, height: int):
        if tx_id in self.latencies:
            self.latencies[tx_id]["included"] = height

    def finish(self, **verdicts):
        self.summary = dict(verdicts)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "n_users": self.n_users,
            "rows": self.rows,
            "incidents": self.incidents,
            "latencies": self.latencies,
            "view_violations": self.view_violations,
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = [",".join(_CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[col]) for col in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hash_digest(self.to_json().encode("utf-8")).hex()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "|".join(str(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class LivenessReport:
    all_included: bool
    all_within_window: bool
    fraction_within_window: float
    pending: tuple[str, ...]


def check_safety(chains: Sequence[Sequence[Block]]) -> bool:
    """All pairs of honest chains agree at every common height; prefix
    differences (a node lagging behind) are fine."""
    hashes = [[header_hash(block.header) for block in chain] for chain in chains]
    for i, a in enumerate(hashes):
        for b in hashes[i + 1 :]:
            common = min(len(a), len(b))
            if a[:common] != b[:common]:
                return False
    return True


def check_liveness(
    metrics: Metrics, workload: Iterable[str] | None = None, window: int = 2
) -> LivenessReport:
    """Every honest tx delivered during the run must land in an accepted
    block; landing within ``window`` blocks is the efficiency sub-verdict."""
    if workload is None:
        ids = [tx for tx, rec in metrics.latencies.items() if rec["honest"]]
    else:
        ids = list(workload)
    pending = []
    within = 0
    for tx in sorted(ids):
        rec = metrics.latencies.get(tx)
        if rec is None or rec["included"] is None:
            pending.append(tx)
            continue
        if rec["included"] - rec["delivered"] <= window:
            within += 1
    total = len(ids)
    fraction = (within / total) if total else 1.0
    return LivenessReport(
        all_included=not pending,
        all_within_window=not pending and within == total,
        fraction_within_window=fraction,
        pending=tuple(pending),
    )


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
        self.state: dict = {}
        self.utxo_history: dict[int, Mapping] = {}
        self.runtimes: dict[str, ShardRuntime] = {}
        self.directory: dict[str, ShardView] = {}
        self.observer_chains: list[list[Block]] = []
        self.pending: dict[bytes, Transaction] = {}
        self.in_flight: set[bytes] = set()
        # Written at genesis and then by ``_accept`` alone: the pks of created
        # UTXOs by ``created_height % epoch_length`` (append-only between
        # renewal walks, which prune them), the UTXO set's keys in sorted
        # order, and those of its keys that are outside the keyring.
        self.renewal_schedule: list[list[bytes]] = [[] for _ in range(config.epoch_length)]
        self.utxo_keys: list[bytes] = []
        self.outside_keyring: set[bytes] = set()
        self.cred_cache: dict[tuple[bytes, int], Credential] = {}
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
        # genesis block and shards can produce from height 1.
        self.state = apply_transaction({}, genesis.body[0], -cfg.epoch_length)
        self.chain = [genesis]
        self.headers = [genesis.header]
        self.utxo_history[0] = self.state
        # Genesis pays keyring keys only, so none is outside the keyring.
        self.utxo_keys = sorted(self.state)
        self.renewal_schedule[-cfg.epoch_length % cfg.epoch_length].extend(self.utxo_keys)
        self.observer_chains = [[genesis] for _ in range(cfg.observers)]
        self.events.emit(
            "genesis", 0, block=header_hash(genesis.header).hex(), users=self.n_users
        )

        creds = [
            self._credential(pk, 0) for pk in self.utxo_keys if self.participation[pk]
        ]
        creds = [c for c in creds if c is not None]
        root = form_view(
            ROOT_LABEL,
            creds,
            0,
            shard_entropy(self.master, ROOT_LABEL, 0, b"bootstrap"),
            cfg.s_min,
        )
        self.directory = {ROOT_LABEL: root}
        self._bootstrap_splits()
        for label, view in sorted(self.directory.items()):
            rt = ShardRuntime(label=label, view=view)
            rt.reset_buffers(self.adv.corrupted)
            self.runtimes[label] = rt
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
                scheduled = schedule_corruption(
                    self.adv,
                    pk,
                    -cfg.epoch_length,
                    self.state,
                    cfg.corruption_budget,
                    cfg.epoch_length,
                )
                if not scheduled:
                    break
                self.events.emit("corruption-scheduled", 0, pk=pk.hex())
        activated = activate_due(self.adv, 0, self.keyring)
        for pk in activated:
            self.events.emit("corruption-active", 0, pk=pk.hex())

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
        for label in sorted(self.runtimes)[:n_shards]:
            view = self.runtimes[label].view
            need = int(self.cfg.mu_core * len(view.core)) + 1
            have = sum(1 for c in view.core if self._controlled(c.pk))
            for cred in view.core:
                if have >= need:
                    break
                if self._controlled(cred.pk):
                    continue
                if schedule_corruption(
                    self.adv,
                    cred.pk,
                    -self.cfg.epoch_length,
                    self.state,
                    self.cfg.corruption_budget,
                    self.cfg.epoch_length,
                ):
                    have += 1
                else:
                    self.metrics.incident(0, "force-corrupt-budget", label=label)
                    return

    def _controlled(self, pk: bytes) -> bool:
        return pk in self.adv.corrupted or pk in self.adv.pending

    # -- helpers -----------------------------------------------------------

    def _credential(self, pk: bytes, h: int) -> Credential | None:
        utxo = self.state.get(pk)
        if utxo is None:
            return None
        h0 = utxo.created_height
        if h < h0 + self.cfg.epoch_length:
            return None
        anchor = epoch_anchor(h0, h, self.cfg.epoch_length)
        key = (pk, anchor)
        cached = self.cred_cache.get(key)
        if cached is None:
            cached = derive_credential(pk, h0, h, self.headers, self.cfg.epoch_length)
            self.cred_cache[key] = cached
        return cached

    def _core_byzantine(self, view: ShardView) -> frozenset:
        if not self.adv.corrupted:
            return frozenset()
        return frozenset(c.pk for c in view.core if c.pk in self.adv.corrupted)

    def _core_parts(self, view: ShardView) -> ParticipantSet:
        """The view's core as a protocol membership, in core order."""
        return ParticipantSet(
            members=tuple(c.pk for c in view.core), byzantine=self._core_byzantine(view)
        )

    def _shard_corrupted(self, view: ShardView) -> bool:
        if not view.core:
            return False
        byz = len(self._core_byzantine(view))
        return Fraction(byz, len(view.core)) > self.cfg.mu_core

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
        for label in sorted(self.runtimes):
            rt = self.runtimes[label]
            if rt.view.height >= height:
                continue
            if rt.view.height < height - 1:
                # Stalled shard catching up one view per round.
                self.metrics.incident(height, "view-catch-up", label=label)
            self._update_one_view(rt, rt.view.height + 1)

    def _update_one_view(self, rt: ShardRuntime, height: int):
        cfg = self.cfg
        old_view = rt.view
        parts = self._core_parts(old_view)
        core_pks = parts.members

        # Honest members alias one buffer set; freeze each distinct buffer
        # once so identical slots stay one object (and hash once).
        frozen_by_id: dict[int, frozenset] = {}
        honest_inputs = {}
        for pk in core_pks:
            buf = rt.buffers.get(pk, ())
            key = id(buf)
            if key not in frozen_by_id:
                frozen_by_id[key] = frozenset(buf)
            honest_inputs[pk] = frozen_by_id[key]
        decision = self.strategy.vector_decision(
            core_pks, parts.byzantine, honest_inputs, parts.bft_contract_holds, purpose="joins"
        )
        vector = vector_consensus(parts, honest_inputs, decision, self.meter)

        eval_height = height - 1  # validity judged at the last accepted block
        expiring = expiring_members(old_view, eval_height)

        def newcomer_valid(cred: Credential) -> bool:
            return label_matches(rt.label, cred.value) and verify_credential(
                cred, eval_height, self.headers, self.utxo_history
            )

        beacon_seed = None
        if refill_needed(old_view, eval_height, cfg.s_min):
            beacon_seed = self._run_beacon(
                rt.label,
                parts,
                height,
                b"refill",
                evaluate=lambda seed: self._score_promotions(
                    old_view, vector, expiring, seed, newcomer_valid
                ),
            )

        upd = update_view(old_view, vector, expiring, beacon_seed, cfg.s_min, newcomer_valid)
        # The network checks the diffused view against the registered one;
        # a view that fails is a view-agreement violation and never installs.
        transition = verify_view_transition(old_view, upd.view, height, cfg.s_min)
        if not transition:
            self.metrics.view_violations += 1
            self._reject_view(rt, height, "view-divergence", reason=transition.reason)
            return

        digest = view_digest(upd.view)
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
        if not install_and_diffuse(
            upd.view, signatures, old_pks, self.directory, cfg.mu_core, cfg.s_min
        ):
            self._reject_view(rt, height, "view-install-failed")
            return

        rt.view = upd.view
        rt.degraded = upd.degraded
        rt.stalled = False
        rt.reset_buffers(self.adv.corrupted)
        self.meter.charge(self.n_users)  # network-wide view notification
        corrupted = self._shard_corrupted(upd.view)
        self.events.emit(
            "view-installed",
            height,
            label=rt.label,
            digest=digest.hex(),
            core=len(upd.view.core),
            spare=len(upd.view.spare),
            promoted=len(upd.promoted),
            newcomers=len(upd.newcomers),
            degraded=upd.degraded,
            corrupted=corrupted,
        )
        if corrupted:
            self.metrics.incident(height, "corrupted-shard", label=rt.label)

    def _reject_view(self, rt: ShardRuntime, height: int, kind: str, **fields):
        """Keep the registered view and stall the shard until it catches up."""
        rt.stalled = True
        self.metrics.incident(height, kind, label=rt.label, **fields)
        self.events.emit("view-rejected", height, label=rt.label)

    def _score_promotions(self, old_view, vector, expiring, seed, newcomer_valid) -> float:
        """Objective for a seed-grinding beacon quorum: corrupted members
        promoted into the next core."""
        trial = update_view(
            old_view, vector, expiring, seed, self.cfg.s_min, newcomer_valid
        )
        return float(sum(1 for c in trial.view.core if c.pk in self.adv.corrupted))

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
            del self.directory[label]
            del self.runtimes[label]
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
                    if label == ROOT_LABEL and len(view.members()) < self.cfg.s_min:
                        self.runtimes[label].degraded = True
                    continue
                beacon = self._run_beacon(
                    label, self._core_parts(view), height, b"merge", evaluate=lambda seed: 0.0
                )
                for absorbed in plan.absorbed:
                    del self.directory[absorbed]
                    del self.runtimes[absorbed]
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

    def _register_shard(self, view: ShardView, height: int):
        self.directory[view.label] = view
        rt = ShardRuntime(label=view.label, view=view)
        rt.degraded = len(view.core) < self.cfg.s_min
        rt.reset_buffers(self.adv.corrupted)
        self.runtimes[view.label] = rt
        self.meter.charge(self.n_users)
        self.events.emit(
            "view-installed",
            height,
            label=view.label,
            digest=view_digest(view).hex(),
            core=len(view.core),
            spare=len(view.spare),
            degraded=rt.degraded,
            corrupted=self._shard_corrupted(view),
        )

    def _produce_block(self, height: int) -> bool:
        cfg = self.cfg
        prev = self.chain[-1].header
        eligible = sorted(
            label
            for label, rt in self.runtimes.items()
            if not rt.degraded and not rt.stalled and rt.view.height == height
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
                1 for rt in self.runtimes.values() if self._shard_corrupted(rt.view)
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
            view = self.runtimes[label].view
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
                self.state,
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
                    self.state,
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
            view = self.runtimes[label].view
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
            utxo = self.state.get(pk)
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
        before = self.state
        self.state = apply_block(before, block)
        self.utxo_history[height] = self.state
        self._index_utxos(before, block)
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

    def _index_utxos(self, before: Mapping, block: Block):
        """Bring the renewal schedule, the sorted UTXO keys and the keys
        outside the keyring up to date with ``block``, applied to ``before``.

        Every UTXO the block leaves under a touched pk was created by it.
        The keyring only grows, and a key joins it before its first output
        exists, so a UTXO outside the keyring stays outside for its life.
        """
        state, keys = self.state, self.utxo_keys
        touched = set()
        for tx in block.body:
            touched.update(tx.inputs)
            touched.update(out.pk for out in tx.outputs)
        for pk in touched:
            utxo = state.get(pk)
            if utxo is None:
                if pk in before:
                    del keys[bisect_left(keys, pk)]
                    self.outside_keyring.discard(pk)
                continue
            if pk not in before:
                insort(keys, pk)
            if pk not in self.keyring:
                self.outside_keyring.add(pk)
            self.renewal_schedule[utxo.created_height % self.cfg.epoch_length].append(pk)

    # -- renewals and workload ----------------------------------------------

    def _join_receivers(self, rt: ShardRuntime) -> list[set]:
        """Distinct buffers a join to this shard lands in: the shared honest
        set, plus each corrupted member's own set when the strategy buffers
        joins."""
        byz_buffer = self.strategy.buffers_joins()
        receivers = []
        seen = set()
        for c in rt.view.core:
            if c.pk in self.adv.corrupted and not byz_buffer:
                continue
            buf = rt.buffers.get(c.pk)
            if buf is None or id(buf) in seen:
                continue
            seen.add(id(buf))
            receivers.append(buf)
        return receivers

    def _due_renewals(self, height: int) -> list[bytes]:
        """Participating pks whose credential renews at ``height``, sorted.

        A UTXO renews at every multiple of the epoch after its creation, so
        only the schedule entry of ``height``'s residue is walked; ``_accept``
        is the only writer of the schedule after genesis, and enters every
        UTXO it creates under its residue.  The walk drops repeats, spent
        UTXOs and UTXOs re-created under another residue from the entry.
        """
        epoch = self.cfg.epoch_length
        residue = height % epoch
        kept: list[bytes] = []
        due: list[bytes] = []
        for pk in sorted(self.renewal_schedule[residue]):
            if kept and kept[-1] == pk:
                continue
            utxo = self.state.get(pk)
            if utxo is None or utxo.created_height % epoch != residue:
                continue
            kept.append(pk)
            if not self.participation.get(pk):
                continue
            h0 = utxo.created_height
            if height < h0 + epoch or (height - h0) % epoch != 0:
                continue
            due.append(pk)
        self.renewal_schedule[residue] = kept
        return due

    def _renewals_and_workload(self, height: int):
        """Joins of the credentials renewing at ``height``, then adversary
        and honest transactions.  Only the renewal schedule entry of this
        height's residue and the sorted UTXO keys are read, and ``_accept``
        is their only writer after genesis, so the joins, their order and
        the workload draws are those of a full scan of every key."""
        cfg = self.cfg
        # Views, buffers and corruption stay fixed for the whole phase, so
        # each shard's receivers are worked out once.
        receivers: dict[str, list[set]] = {}
        for pk in self._due_renewals(height):
            cred = self._credential(pk, height)
            if cred is None:
                continue
            rt = self.runtimes[route(self.directory, cred.value)]
            bufs = receivers.get(rt.label)
            if bufs is None:
                bufs = receivers[rt.label] = self._join_receivers(rt)
            for buf in bufs:
                buf.add(cred)
            self.meter.charge(len(rt.view.core))
            self.joins_submitted += 1
            self.events.emit(
                "join", height, label=rt.label, pk=pk.hex(), anchor=cred.anchor_height
            )

        for tx in self.strategy.issue_transactions(
            self.adv, self.state, cfg.stake_cap, height, cfg.epoch_length
        ):
            self._deliver_tx(tx, height, honest=False)

        if cfg.tx_rate and height <= cfg.heights - 2:
            self._issue_workload(height)

    def _draw_senders(self, count: int) -> list[bytes]:
        """Up to ``count`` distinct honest senders, drawn from the sorted
        UTXO keys that are not excluded.

        A key whose secret the adversary has ever held is not an honest
        user, even after a respend rotates it out of the corrupted set;
        keys in flight and keys outside the keyring are excluded too.  The
        excluded keys are few, so only their positions in ``utxo_keys``
        (which ``_accept`` alone writes) are looked up, and each draw over
        the candidates is mapped to the position of the candidate it picks.
        """
        adv, state, keys = self.adv, self.state, self.utxo_keys
        groups = (self.in_flight, adv.corrupted, adv.pending, adv.keys, self.outside_keyring)
        excluded = {pk for group in groups for pk in group if pk in state}
        taken = sorted(bisect_left(keys, pk) for pk in excluded)
        senders = []
        for _ in range(count):
            n_candidates = len(keys) - len(taken)
            if not n_candidates:
                break
            pick = self.workload_prg.draw(n_candidates) - 1
            # The candidate at ``pick`` sits at the least position i with
            # pick + 1 candidates in keys[: i + 1].
            lo, hi = pick, pick + len(taken)
            while lo < hi:
                mid = (lo + hi) // 2
                if mid + 1 - bisect_right(taken, mid) > pick:
                    hi = mid
                else:
                    lo = mid + 1
            insort(taken, lo)
            senders.append(keys[lo])
        return senders

    def _issue_workload(self, height: int):
        """``cfg.tx_rate`` honest transfers to fresh keys, from senders drawn
        by ``_draw_senders`` over the UTXO keys that ``_accept`` keeps sorted
        (it is their only writer after genesis)."""
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
                [TxOutput(pk=receiver.pk, stake=self.state[sender].stake)],
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

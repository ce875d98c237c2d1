"""Scenario configs, end-to-end runs, run oracles and serialization."""

import json
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import config as config_module
from shardsim import harness, oracles, records
from shardsim.adversary import PassiveStrategy, make_strategy
from shardsim.cli import main
from shardsim.credentials import Credential, verify_credential
from shardsim.crypto import Prg, encode_int, keygen, tagged_hash
from shardsim.config import ConfigError, ScenarioConfig, load_config, parse_ratio
from shardsim.harness import Simulation, message_scaling_report, run_scenario
from shardsim.ledger import (
    Block,
    BlockHeader,
    Transaction,
    TxOutput,
    apply_block,
    block_core_digest,
    body_digest,
    make_genesis,
    make_transaction,
    spend,
    validate_block,
)
from shardsim.oracles import check_liveness, check_safety
from shardsim.records import EventLog, Metrics
from shardsim.protocols import BaDecision

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def base_mapping(**overrides):
    mapping = {
        "schema_version": 1,
        "name": "unit",
        "master_seed": "unit-seed",
        "epoch_length": 3,
        "heights": 8,
        "s_min": 16,
        "s_max": 64,
        "mu_core": "1/3",
        "mu_corrupted": "1/3",
        "mu": "1/10",
        "stake_cap": 1,
        "kappa": 20.0,
        "f_shard": 0,
        "genesis": [{"count": 64, "stake": 1}],
        "tx_rate": 2,
        "unsafe_params": True,
    }
    mapping.update(overrides)
    return mapping


def config(**overrides):
    return ScenarioConfig.from_mapping(base_mapping(**overrides))


def test_parse_ratio():
    assert parse_ratio("1/3") == Fraction(1, 3)
    assert parse_ratio(1) == Fraction(1)
    assert parse_ratio(Fraction(2, 5)) == Fraction(2, 5)
    with pytest.raises(ConfigError):
        parse_ratio(0.3333)  # binary floats lose exactness
    with pytest.raises(ConfigError):
        parse_ratio(True)


def test_from_mapping_round_trip():
    cfg = config(
        adversary={
            "strategy": "equivocate",
            "params": {"x": 1},
            "corrupt_fraction": "1/20",
            "force_corrupt_shards": 2,
        }
    )
    again = ScenarioConfig.from_mapping(cfg.to_mapping())
    assert again == cfg
    assert cfg.adversary_strategy == "equivocate"
    assert cfg.corrupt_fraction == Fraction(1, 20)
    assert cfg.n_credentials == 64
    assert cfg.corruption_budget == Fraction(1, 20)
    assert config().corruption_budget == Fraction(1, 10)


def test_from_mapping_rejects_garbage():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(base_mapping(schema_version=99))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(base_mapping(mystery_knob=1))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(base_mapping(genesis=[{"count": 4}]))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_mapping(base_mapping(mu_core=0.33))


@pytest.mark.parametrize(
    "overrides,needle",
    [
        (dict(epoch_length=0), "epoch_length"),
        (dict(heights=0), "heights"),
        (dict(s_min=0), "s_min"),
        (dict(s_max=20), "s_max"),
        (dict(mu="1"), "mu must lie"),
        (dict(stake_cap=0), "stake_cap"),
        (dict(genesis=[]), "genesis"),
        (dict(genesis=[{"count": 4, "stake": 3}]), "outside"),
        (dict(tx_rate=-1), "tx_rate"),
        (dict(f_shard=-1), "f_shard"),
        (dict(observers=0), "observers"),
        (dict(adversary={"strategy": "sneaky"}), "strategy"),
        (dict(adversary={"corrupt_fraction": "1/2"}), "corrupt_fraction"),
        (dict(participation="some"), "participation"),
        (dict(adversary={"force_corrupt_shards": -1}), "force_corrupt"),
    ],
)
def test_validate_field_errors(overrides, needle):
    errors = config(**overrides).validate()
    assert any(needle in e for e in errors), errors


def test_validate_enforces_solved_parameters():
    # Non-stress configs must carry a core size the solver endorses for
    # their (mu, kappa, N, cap, mu_core) point.
    weak = config(
        unsafe_params=False,
        mu="1/1000",
        mu_core="1/2",
        genesis=[{"count": 256, "stake": 1}],
    )
    errors = weak.validate()
    assert any("below the 163" in e for e in errors), errors

    solid = config(
        unsafe_params=False,
        mu="1/1000",
        mu_core="1/2",
        s_min=163,
        s_max=326,
        genesis=[{"count": 256, "stake": 1}],
    )
    assert solid.validate() == []

    infeasible = config(unsafe_params=False, mu="1/10", mu_core="1/3")
    assert any("unsafe_params" in e for e in infeasible.validate())


def test_validate_strict_rejects_stress_configs():
    cfg = config(unsafe_params=True)
    assert cfg.validate(strict=False) == []
    assert any("strict" in e for e in cfg.validate(strict=True))


def test_load_config_smoke_file():
    cfg = load_config(CONFIG_DIR / "smoke.json")
    assert cfg.name == "smoke"
    assert cfg.unsafe_params


def test_load_config_raises_on_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_mapping(epoch_length=0)))
    with pytest.raises(ConfigError):
        load_config(bad)


def test_event_log_sequencing_and_serialization():
    log = EventLog()
    assert log.to_jsonl() == ""
    log.emit("genesis", 0, users=4)
    log.emit("block-accepted", 1, block="aa")
    assert [rec["seq"] for rec in log] == [0, 1]
    lines = log.to_jsonl().splitlines()
    assert json.loads(lines[0]) == {"seq": 0, "kind": "genesis", "height": 0, "users": 4}
    # Canonical form: keys sorted, no spaces.
    assert lines[0] == '{"height":0,"kind":"genesis","seq":0,"users":4}'
    before = log.digest()
    log.emit("no-block", 2, rounds=3)
    assert log.digest() != before
    assert len(log) == 3


def test_metrics_rows_and_csv_shape():
    metrics = Metrics(name="unit", n_users=4)
    metrics.record_height(
        height=1, block=1, committee=["0", "1"], leader_rounds=1,
        corrupted_shards=0, shards=2, members=8, joins=0, txs_included=2,
        messages_total=99, stray_field="dropped",
    )
    csv = metrics.to_csv().splitlines()
    assert csv[0].startswith("height,block,committee")
    assert csv[1] == "1,1,0|1,1,0,2,8,0,2,99"
    payload = json.loads(metrics.to_json())
    assert payload["rows"][0]["committee"] == ["0", "1"]
    assert "stray_field" not in payload["rows"][0]

    before = metrics.digest()
    metrics.incident(1, "no-decision")
    assert metrics.digest() != before


def test_metrics_latency_bookkeeping():
    metrics = Metrics(name="unit", n_users=4)
    metrics.tx_delivered("aa", 3, honest=True)
    metrics.tx_included("aa", 4)
    metrics.tx_included("bb", 4)  # unknown id ignored
    assert metrics.latencies == {
        "aa": {"delivered": 3, "included": 4, "honest": True}
    }


def test_check_safety_pairwise_common_prefix():
    g1 = make_genesis([(b"p" * 32, 1)], b"s" * 32, 1)
    g2 = make_genesis([(b"p" * 32, 1)], b"t" * 32, 1)
    assert check_safety([[g1], [g1], [g1]])
    assert not check_safety([[g1], [g2]])
    # A lagging observer only shortens the common prefix.
    assert check_safety([[g1, g2], [g1]])
    assert check_safety([])
    # Two observers that fork past a third, lagging one: every pair counts.
    g3 = make_genesis([(b"p" * 32, 1)], b"u" * 32, 1)
    assert not check_safety([[g1], [g1, g2], [g1, g3]])


def test_check_liveness_windows():
    metrics = Metrics(name="unit", n_users=4)
    metrics.tx_delivered("aa", 1, honest=True)
    metrics.tx_included("aa", 3)
    metrics.tx_delivered("bb", 1, honest=True)
    metrics.tx_included("bb", 5)
    metrics.tx_delivered("cc", 2, honest=False)  # adversary tx: not counted
    report = check_liveness(metrics)
    assert report.all_included
    assert not report.all_within_window
    assert report.fraction_within_window == 0.5
    assert report.pending == ()


def test_run_scenario_deterministic():
    cfg = config()
    m1, e1 = run_scenario(cfg)
    m2, e2 = run_scenario(cfg)
    assert m1.digest() == m2.digest()
    assert e1.digest() == e2.digest()
    m3, e3 = run_scenario(config(master_seed="unit-seed-2"))
    assert e3.digest() != e1.digest()


def test_fault_free_run_verdicts():
    metrics, events = run_scenario(config())
    s = metrics.summary
    assert s["safety_ok"] and s["liveness_ok"] and s["efficiency_ok"]
    assert s["view_violations"] == 0
    assert s["blocks"] == 8
    assert s["users"] == 64
    assert s["messages_total"] > 0
    assert s["per_user_messages"] == pytest.approx(s["messages_total"] / s["users"])
    assert len(metrics.rows) == 8
    # Workload ran: honest txs delivered and included.
    assert any(rec["honest"] for rec in metrics.latencies.values())


def test_fault_free_views_install_before_blocks():
    _, events = run_scenario(config())
    installed = {}  # height -> max seq of view installations
    for rec in events:
        if rec["kind"] == "view-installed":
            installed.setdefault(rec["height"], []).append(rec["seq"])
        elif rec["kind"] == "block-accepted":
            h = rec["height"]
            assert h in installed, f"block at {h} without view installations"
            assert max(installed[h]) < rec["seq"]


def test_stress_run_detects_equivocation():
    cfg = config(
        heights=10,
        mu="1/3",
        observers=3,
        adversary={"strategy": "equivocate", "force_corrupt_shards": 1},
    )
    metrics, events = run_scenario(cfg)
    assert not metrics.summary["safety_ok"]
    kinds = {rec["kind"] for rec in metrics.incidents}
    assert "corrupted-shard" in kinds
    assert "equivocation" in kinds
    # The run still terminates and reports rather than crashing.
    assert metrics.summary["blocks"] >= 1


def test_silent_strategy_stalls_without_safety_loss():
    cfg = config(
        heights=6,
        mu="1/3",
        adversary={"strategy": "silent", "force_corrupt_shards": 1},
    )
    metrics, _ = run_scenario(cfg)
    assert metrics.summary["safety_ok"]
    assert metrics.summary["blocks"] < 6
    kinds = {rec["kind"] for rec in metrics.incidents}
    assert "no-decision" in kinds


def test_message_scaling_report_shape():
    configs = [
        config(
            name="n64", heights=4, tx_rate=0,
            s_min=8, s_max=16, genesis=[{"count": 64, "stake": 1}],
        ),
        config(
            name="n128", heights=4, tx_rate=0,
            s_min=8, s_max=16, genesis=[{"count": 128, "stake": 1}],
        ),
    ]
    report = message_scaling_report(configs)
    assert [row["name"] for row in report["rows"]] == ["n64", "n128"]
    assert [row["n_credentials"] for row in report["rows"]] == [64, 128]
    assert len(report["ratios"]) == 1
    assert report["ratios"][0] > 0
    for row in report["rows"]:
        assert row["per_user_messages"] == pytest.approx(
            row["messages_total"] / row["n_credentials"]
        )


@pytest.mark.parametrize(
    "raw,needle",
    [
        ([base_mapping()], "JSON object"),
        ({k: v for k, v in base_mapping().items() if k != "master_seed"}, "master_seed"),
        (base_mapping(heights="many"), "bad config field"),
        (base_mapping(adversary=["passive"]), "adversary"),
        (base_mapping(genesis=7), "genesis"),
    ],
)
def test_malformed_configs_raise_config_error(raw, needle, tmp_path):
    with pytest.raises(ConfigError, match=needle):
        ScenarioConfig.from_mapping(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=needle):
        load_config(path)


def test_invalid_json_raises_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


class CountingSet(set):
    """A join buffer that records how often each join was added."""

    def __init__(self):
        super().__init__()
        self.adds = {}

    def add(self, item):
        self.adds[item] = self.adds.get(item, 0) + 1
        super().add(item)


@pytest.mark.parametrize("strategy,corrupted_buffer", [("passive", True), ("silent", False)])
def test_join_lands_once_in_each_receiving_buffer(strategy, corrupted_buffer):
    # Genesis UTXOs are pre-aged by one epoch, so every genesis key renews
    # at height epoch_length.
    sim = Simulation(config(heights=3, tx_rate=0))
    height = sim.cfg.epoch_length
    for target in range(1, height + 1):
        sim._activate_corruptions(target)
        sim._update_views(target)
        sim._apply_topology(target)
        assert sim._produce_block(target)
        if target < height:
            sim._renewals_and_workload(target)

    sim.strategy = make_strategy(strategy, {})
    corrupted = {}
    shared = {}
    for label, rt in sim.runtimes.items():
        shared[label] = CountingSet()
        for i, cred in enumerate(rt.view.core):
            if i < 2:
                sim.adv.corrupted.add(cred.pk)
                corrupted[cred.pk] = rt.buffers[cred.pk] = CountingSet()
            else:
                rt.buffers[cred.pk] = shared[label]

    first_event = len(sim.events)
    sim._renewals_and_workload(height)
    joins = [rec for rec in list(sim.events)[first_event:] if rec["kind"] == "join"]
    assert joins
    for rec in joins:
        rt = sim.runtimes[rec["label"]]
        cred = next(c for c in shared[rec["label"]] if c.pk.hex() == rec["pk"])
        assert shared[rec["label"]].adds[cred] == 1
        for member in rt.view.core[:2]:
            assert corrupted[member.pk].adds.get(cred, 0) == int(corrupted_buffer)
    delivered = sum(len(buf) for buf in shared.values())
    assert delivered == len(joins) == len({rec["pk"] for rec in joins})


def keep_expired_member(update_view, label):
    """``update_view``, except that the update of shard ``label`` to height
    2 keeps a member whose credential has expired.  The fault is a pure
    function of the inputs, so recomputing the update repeats it."""
    stale_pk = keygen(b"stale-member").pk
    stale = Credential(value=stale_pk, pk=stale_pk, anchor_height=-3, expiry_height=0)

    def faulty(prev_view, *args, **kwargs):
        upd = update_view(prev_view, *args, **kwargs)
        if prev_view.label != label or upd.view.height != 2:
            return upd
        return replace(upd, view=replace(upd.view, spare=upd.view.spare + (stale,)))

    return faulty


def test_view_agreement_oracle_rejects_a_faulty_view(monkeypatch, tmp_path, capsys):
    mapping = base_mapping(genesis=[{"count": 256, "stake": 1}])
    sim = Simulation(ScenarioConfig.from_mapping(mapping))
    assert len(sim.runtimes) > 1
    label = sorted(sim.runtimes)[0]
    monkeypatch.setattr(harness, "update_view", keep_expired_member(harness.update_view, label))

    metrics, events = sim.run()
    assert metrics.view_violations >= 1
    assert metrics.summary["view_violations"] == metrics.view_violations
    divergences = [rec for rec in metrics.incidents if rec["kind"] == "view-divergence"]
    assert divergences and divergences[0] == {
        "height": 2, "kind": "view-divergence", "label": label, "reason": "expired-member"
    }
    # The shard stays on its height-1 view, which is the registered one.
    assert sim.runtimes[label].view.height == 1
    assert sim.directory[label] is sim.runtimes[label].view
    assert not any(
        rec["kind"] == "view-installed" and rec["label"] == label and rec["height"] >= 2
        for rec in events
    )
    assert any(rec["kind"] == "view-rejected" and rec["label"] == label for rec in events)
    # The other shards keep producing, so only the view oracle fails.
    assert metrics.summary["blocks"] > 1
    assert metrics.summary["safety_ok"] and metrics.summary["liveness_ok"]

    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(mapping))
    assert main(["run", str(path)]) == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["view_violations"] == metrics.view_violations


class DictateForgedBlock(PassiveStrategy):
    """A committee beyond its corruption bound dictates a forged copy of
    the first proposal: a wrong ``body_hash``, or an extra transaction that
    spends the first transaction's input again."""

    def __init__(self, sim, forgery):
        super().__init__()
        self.sim = sim
        self.forgery = forgery
        self.dictated = []

    def ba_decision(self, corrupted_labels, proposals):
        for label in sorted(proposals):
            block = proposals[label]
            if self.forgery == "body-hash":
                header = replace(
                    block.header, body_hash=tagged_hash(b"forged", block.header.body_hash)
                )
                forged = replace(block, header=header)
            elif block.body:
                spent = block.body[0].inputs[0]
                again = make_transaction(
                    [self.sim.keyring[spent]], [TxOutput(keygen(b"double-spend").pk, 1)]
                )
                body = block.body + (again,)
                forged = replace(
                    block, header=replace(block.header, body_hash=body_digest(body)), body=body
                )
            else:
                continue
            self.dictated.append(forged)
            return BaDecision(dictated=forged)
        return BaDecision()


@pytest.mark.parametrize("forgery", ["body-hash", "double-spend"])
def test_dictated_invalid_block_is_not_certified(forgery):
    # f_shard 1: a committee of 4 needs 3 endorsing shards.  Two corrupted
    # shards in it void the committee's contract, so the block is dictated,
    # yet one honest shard must still endorse it.
    mapping = base_mapping(
        genesis=[{"count": 256, "stake": 1}],
        heights=6,
        f_shard=1,
        mu="1/3",
        adversary={"strategy": "passive", "force_corrupt_shards": 2},
    )
    sim = Simulation(ScenarioConfig.from_mapping(mapping))
    assert sim.s_c == 4
    strategy = DictateForgedBlock(sim, forgery)
    sim.strategy = sim.adv.strategy = strategy

    metrics, _ = sim.run()
    void = {rec["height"] for rec in metrics.incidents if rec["kind"] == "corrupted-committee"}
    shortfall = {
        rec["height"] for rec in metrics.incidents if rec["kind"] == "certificate-shortfall"
    }
    forged = [b for b in strategy.dictated if b.header.height in void]
    assert forged
    assert {b.header.height for b in forged} <= shortfall
    held = {
        block_core_digest(b.header) for chain in sim.observer_chains for b in chain
    }
    assert not any(block_core_digest(b.header) in held for b in forged)
    assert metrics.summary["safety_ok"]


def test_short_certificate_trips_the_post_certification_check(monkeypatch):
    # Every shard signature comes out one member short of its quorum, so the
    # certificate of the decided block cannot pass; the simulation must stop
    # rather than accept the block.
    sign_block = harness.shard_sign_block

    def one_short(*args, **kwargs):
        ss = sign_block(*args, **kwargs)
        return None if ss is None else replace(ss, member_sigs=ss.member_sigs[:-1])

    monkeypatch.setattr(harness, "shard_sign_block", one_short)
    with pytest.raises(RuntimeError, match="certificate"):
        run_scenario(load_config(CONFIG_DIR / "smoke.json"))


def test_run_without_blocks_fails_liveness():
    # f_shard=3 asks for 7 endorsing shards; the smoke population forms one,
    # so no block is certified and no transaction is ever delivered.
    raw = json.loads((CONFIG_DIR / "smoke.json").read_text())
    metrics, events = run_scenario(ScenarioConfig.from_mapping({**raw, "f_shard": 3}))
    summary = metrics.summary
    assert summary["blocks"] == 0
    assert check_liveness(metrics).all_included
    assert summary["liveness_ok"] is False
    done = [rec for rec in events if rec["kind"] == "run-complete"]
    assert done[-1]["liveness_ok"] is False


def test_run_without_blocks_fails_efficiency():
    # The stalled run above delivers no transaction, so none missed the
    # window either; without a block the efficiency verdict must still fail.
    raw = json.loads((CONFIG_DIR / "smoke.json").read_text())
    metrics, events = run_scenario(ScenarioConfig.from_mapping({**raw, "f_shard": 3}))
    summary = metrics.summary
    assert summary["blocks"] == 0
    assert check_liveness(metrics).all_within_window
    assert summary["efficiency_ok"] is False
    done = [rec for rec in events if rec["kind"] == "run-complete"]
    assert done[-1]["efficiency_ok"] is False


def drop_one_tx(build_proposal):
    """``build_proposal``, except that the first transaction it is ever
    offered is taken out of every member's input at every height.  The
    chosen id is kept, so a replay of the same config drops the same
    transaction."""
    chosen = []

    def faulty(label, core, prev, state, member_inputs, *args, **kwargs):
        offered = [tx.tx_id for txs, _ in member_inputs.values() for tx in txs]
        if offered and not chosen:
            chosen.append(offered[0])
        inputs = {
            pk: (tuple(tx for tx in txs if tx.tx_id not in chosen), vrf_out)
            for pk, (txs, vrf_out) in member_inputs.items()
        }
        return build_proposal(label, core, prev, state, inputs, *args, **kwargs)

    return faulty, chosen


def test_liveness_oracle_trips_on_a_transaction_never_included(
    monkeypatch, tmp_path, capsys
):
    # No adversary: every transaction is honest, and no corrupted member
    # can echo the dropped one into a proposal.
    mapping = base_mapping(heights=6)
    faulty, chosen = drop_one_tx(harness.build_proposal)
    monkeypatch.setattr(harness, "build_proposal", faulty)

    metrics, _ = run_scenario(ScenarioConfig.from_mapping(mapping))
    assert chosen
    dropped = chosen[0].hex()
    assert metrics.latencies[dropped] == {"delivered": 1, "included": None, "honest": True}
    assert check_liveness(metrics).pending == (dropped,)
    assert metrics.summary["blocks"] == 6
    assert metrics.summary["liveness_ok"] is False
    assert metrics.summary["safety_ok"]

    path = tmp_path / "dropped-tx.json"
    path.write_text(json.dumps(mapping))
    assert main(["run", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["liveness_ok"] is False


def test_benchmark_imports_resolve_to_the_defining_modules():
    # The benchmark imports these five names from ``harness`` and patches
    # or rebinds them there; each must be the defining module's own object.
    assert harness.ScenarioConfig is config_module.ScenarioConfig
    assert harness.Metrics is records.Metrics
    assert harness.EventLog is records.EventLog
    assert harness.check_safety is oracles.check_safety
    assert harness.Simulation.__module__ == "shardsim.harness"

    # A height's UTXO set, read back after the run, feeds the ledger's
    # block validation and replay.
    sim = Simulation(config(heights=3, tx_rate=4))
    sim.run()
    state = sim.utxo_history[1]
    assert isinstance(state, Mapping)
    block = sim.chain[2]
    assert block.body
    prev = sim.chain[1].header
    committee = tuple(sorted(sim.directory))
    assert validate_block(state, dict(sim.directory), block, prev, sim.rules, committee)
    assert apply_block(state, block) == sim.utxo_history[2]


BODY_KINDS = ["spend", "self", "chain", "outside", "nonpart"]


@settings(deadline=None, max_examples=60)
@given(epoch_length=st.integers(1, 3), data=st.data())
def test_schedule_and_sorted_keys_match_full_scans(epoch_length, data):
    """Drive random accepted bodies through ``_accept`` and compare, at each
    height, every accepted height's UTXO set and credential verdicts with
    snapshots folded by ``apply_block``, the renewal schedule with a sorted
    scan of every participating key, and the workload's sender draws with
    draws over the sorted, filtered UTXO set from the same PRG state."""
    sim = Simulation(
        config(
            epoch_length=epoch_length,
            genesis=[{"count": 12, "stake": 2}],
            stake_cap=2,
            s_min=4,
            s_max=8,
            tx_rate=0,
        )
    )
    reference_prg = Prg(tagged_hash(b"workload", sim.master))
    snapshots = {0: dict(sim.utxos.live)}

    def reference_at(pk, a):
        return snapshots.get(a, {}).get(pk)

    touched = set(sorted(sim.utxos.live)[:2])
    made = []

    def new_key(in_keyring=True, participating=True):
        kp = keygen(tagged_hash(b"differential", encode_int(len(made))))
        made.append(kp)
        if in_keyring:
            sim.keyring[kp.pk] = kp
            sim.participation[kp.pk] = participating
        return kp.pk

    def transfer(running, pk, out, height):
        tx = Transaction((pk,), (TxOutput(out, running[pk].stake),), ())
        spend(running, tx, height)
        return tx

    for height in range(1, 3 * epoch_length + 3):
        running = dict(sim.utxos.live)
        body = []
        for kind in data.draw(st.lists(st.sampled_from(BODY_KINDS), max_size=4)):
            pk = data.draw(st.sampled_from(sorted(running)))
            if kind == "self":
                out = pk
            elif kind == "outside":
                out = new_key(in_keyring=False)
            else:
                out = new_key(participating=kind != "nonpart")
            body.append(transfer(running, pk, out, height))
            if kind == "chain":
                body.append(transfer(running, out, new_key(), height))
        header = BlockHeader(
            prev_hash=b"",
            height=height,
            seed=tagged_hash(b"differential-seed", encode_int(height)),
            body_hash=b"",
            vrf_proofs=(),
            proposer_label="",
            certificate=(),
        )
        block = Block(header, tuple(body))
        sim._accept(block, height, leader=None)
        snapshots[height] = apply_block(snapshots[height - 1], block)
        assert sim.utxos.live == snapshots[height]
        assert list(sim.utxo_history) == list(snapshots)
        for a, snapshot in snapshots.items():
            assert dict(sim.utxo_history[a]) == snapshot
        assert -1 not in sim.utxo_history and height + 1 not in sim.utxo_history

        # The UTXO each pk held at each anchor, and the credential verdicts
        # that follow from it, also for anchors that were never accepted.
        touched.update(pk for tx in body for pk in tx.inputs)
        touched.update(out.pk for tx in body for out in tx.outputs)
        headers = sim.headers
        for pk in sorted(touched):
            for a in range(-epoch_length - 1, height + 2):
                assert sim.utxos.utxo_at(pk, a) == reference_at(pk, a)
                seed = headers[a].seed if -len(headers) <= a < len(headers) else b""
                cred = Credential(tagged_hash(b"cred", pk, seed), pk, a, a + epoch_length)
                assert verify_credential(cred, a, headers, sim.utxos.utxo_at) == (
                    verify_credential(cred, a, headers, reference_at)
                )

        live = sorted(sim.utxos.live)
        assert sim.utxos.sorted_pks == live
        # Keys the adversary corrupts, schedules or learns, and keys in flight.
        for pk in data.draw(st.lists(st.sampled_from(live), max_size=4)):
            kind = data.draw(st.sampled_from(["corrupted", "pending", "keys", "in-flight"]))
            if kind == "corrupted":
                sim.adv.corrupted.add(pk)
            elif kind == "pending":
                sim.adv.pending[pk] = height + epoch_length
            elif kind == "keys":
                sim.adv.keys[pk] = sim.keyring.get(pk)
            else:
                sim.in_flight.add(pk)

        due = [
            pk
            for pk in sorted(sim.participation)
            if sim.participation[pk]
            and pk in sim.utxos.live
            and height >= sim.utxos.live[pk].created_height + epoch_length
            and (height - sim.utxos.live[pk].created_height) % epoch_length == 0
        ]
        assert sim.utxos.due_renewals(height, sim.participation) == due

        candidates = [
            pk
            for pk in live
            if pk not in sim.in_flight
            and pk not in sim.adv.corrupted
            and pk not in sim.adv.pending
            and pk not in sim.adv.keys
            and pk in sim.keyring
        ]
        count = data.draw(st.integers(0, 4))
        expected = []
        for _ in range(count):
            if not candidates:
                break
            expected.append(candidates.pop(reference_prg.draw(len(candidates)) - 1))
        senders = sim._draw_senders(count)
        assert senders == expected
        sim.in_flight.update(pk for pk in senders if data.draw(st.booleans()))

"""Scenario configs, end-to-end runs, run oracles and serialization."""

import hashlib
import json
from collections.abc import Mapping
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import config as config_module
from shardsim import agreement, blocks, harness, membership, oracles, records, views
from shardsim.adversary import (
    STRATEGIES,
    AdversaryState,
    Strategy,
    WorstCaseSeedStrategy,
    activate_due,
    schedule_corruption,
)
from shardsim.analysis import exceedance_threshold
from shardsim.cli import main
from shardsim.credentials import (
    Credential,
    derive_credential,
    derive_credentials,
    verify_credential,
)
from shardsim.crypto import (
    ZERO_DIGEST,
    KeyPair,
    Prg,
    Signature,
    encode_bytes,
    encode_int,
    hash_digest,
    keygen,
    tagged_hash,
)
from shardsim.config import ConfigError, ScenarioConfig, load_config, parse_ratio
from shardsim.harness import Simulation, message_scaling_report, run_scenario
from shardsim.ledger import (
    Block,
    BlockHeader,
    Transaction,
    TxOutput,
    Utxo,
    apply_block,
    body_digest,
    header_hash,
    make_genesis,
    make_transaction,
    spend,
    validate_block,
)
from shardsim.oracles import InvariantError, check_liveness, check_safety
from shardsim.membership import form_view, view_digest
from shardsim.overlay import (
    ROOT_LABEL,
    check_prefix_free_cover,
    label_matches,
    route,
    verify_view_transition,
)
from shardsim.records import EventLog, Metrics
from shardsim.protocols import (
    BaDecision,
    MessageMeter,
    shard_entropy,
    vector_consensus,
    within_bound,
)
from shardsim.sampling import sample_without_replacement
from shardsim.utxo_index import UtxoIndex

from test_golden import GOLDEN

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


def assert_refused(raw, needle, tmp_path, capsys):
    """``raw`` is refused with ``needle`` in the message by
    ``from_mapping``, by ``load_config`` and by ``shardsim run`` (exit 2)."""
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_mapping(raw)
    assert needle in str(info.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert needle in str(info.value)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config rejected:") and needle in err, err


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
            "corrupt_fraction": "1/20",
            "force_corrupt_shards": 2,
        }
    )
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
        (dict(adversary={"force_corrupt_shards": -1}), "force_corrupt"),
        (dict(adversary={"strategy": "grind", "params": {"fraction": [1]}}), "fraction"),
        (dict(adversary={"strategy": "grind", "params": {"fraction": 0.5}}), "fraction"),
        (dict(adversary={"strategy": "grind", "params": {"fraction": "1/0"}}), "fraction"),
        (dict(adversary={"strategy": "grind", "params": {"split": "false"}}), "split"),
        (dict(adversary={"strategy": "grind", "params": {"split": 1}}), "split"),
        (
            dict(adversary={"strategy": "worst-case-seed", "params": {"candidates": 0}}),
            "candidates",
        ),
        (
            dict(adversary={"strategy": "worst-case-seed", "params": {"candidates": "8"}}),
            "candidates",
        ),
        (dict(adversary={"strategy": "grind", "params": {"candidates": 8}}), "reads no param"),
        (dict(adversary={"strategy": "passive", "params": {"split": True}}), "reads no param"),
        (dict(adversary={"strategy": "grind", "params": {"fraction": "-1/2"}}), "[0, 1]"),
        (dict(adversary={"strategy": "grind", "params": {"fraction": "3/2"}}), "[0, 1]"),
        (dict(adversary={"corrupt_fraction": "-1/2"}), "corrupt_fraction must be >= 0"),
        (dict(kappa=-1), "kappa must be a positive"),
        (dict(kappa=-1, unsafe_params=False), "kappa must be a positive"),
        (dict(kappa=0), "kappa must be a positive"),
    ],
)
def test_validate_field_errors(overrides, needle, tmp_path, capsys):
    assert_refused(base_mapping(**overrides), needle, tmp_path, capsys)


def test_replace_checks_the_new_config():
    cfg = config()
    assert replace(cfg) == cfg
    with pytest.raises(ConfigError, match="heights must be >= 1"):
        replace(cfg, heights=0)
    with pytest.raises(ConfigError, match="reads no param"):
        replace(cfg, adversary_params={"split": True})


def test_strategy_params_parse_when_readable():
    for strategy, params, read in [
        ("grind", {"split": True, "fraction": "1/2"}, {"split": True, "fraction": Fraction(1, 2)}),
        ("grind", {"fraction": 1}, {"fraction": Fraction(1)}),
        ("grind", {"fraction": 0}, {"fraction": Fraction(0)}),
        ("grind", {"fraction": "1/2"}, {"fraction": Fraction(1, 2)}),
        ("worst-case-seed", {"candidates": 3}, {"candidates": 3}),
    ]:
        cfg = config(adversary={"strategy": strategy, "params": params})
        assert cfg.adversary_params == read
        assert all(type(cfg.adversary_params[k]) is type(v) for k, v in read.items())
    # Every param a strategy names has a reader.
    assert all(
        name in config_module.PARAM_READERS
        for cls in config_module.STRATEGIES.values()
        for name in cls.param_names
    )


def test_strategy_reads_the_params_as_the_config_read_them():
    cfg = config(adversary={"strategy": "grind", "params": {"split": True, "fraction": "1/2"}})
    assert replace(cfg) == cfg
    sim = Simulation(cfg)
    assert sim.strategy.params == {"split": True, "fraction": Fraction(1, 2)}
    assert type(sim.strategy.params["fraction"]) is Fraction


def test_kappa_takes_a_json_number():
    assert config(kappa=20).kappa == config(kappa=20.0).kappa == 20.0
    for bad in (True, "20"):
        with pytest.raises(ConfigError, match="kappa must be a JSON number"):
            config(kappa=bad)


def test_validate_enforces_solved_parameters(tmp_path, capsys):
    # Non-stress configs must carry a core size the solver endorses for
    # their (mu, kappa, N, cap, mu_core) point.
    weak = base_mapping(
        unsafe_params=False,
        mu="1/1000",
        mu_core="1/2",
        genesis=[{"count": 256, "stake": 1}],
    )
    assert_refused(weak, "below the 163", tmp_path, capsys)

    solid = config(
        unsafe_params=False,
        mu="1/1000",
        mu_core="1/2",
        s_min=163,
        s_max=326,
        genesis=[{"count": 256, "stake": 1}],
    )
    assert solid.s_min == 163

    infeasible = base_mapping(unsafe_params=False, mu="1/10", mu_core="1/3")
    assert_refused(infeasible, "unsafe_params", tmp_path, capsys)


def test_validate_strict_rejects_stress_configs(tmp_path):
    path = tmp_path / "stress.json"
    path.write_text(json.dumps(base_mapping(unsafe_params=True)))
    assert load_config(path).unsafe_params
    with pytest.raises(ConfigError, match="strict"):
        load_config(path, strict=True)


def test_shipped_configs_under_strict():
    # Load only: the solver-checked example passes strict checking, the
    # stress config is marked unsafe_params and is refused.
    assert not load_config(CONFIG_DIR / "suite-example.json", strict=True).unsafe_params
    with pytest.raises(ConfigError, match="strict"):
        load_config(CONFIG_DIR / "stress-equivocate.json", strict=True)


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
    assert log.digest() == hash_digest(b"").hex()
    log.emit("genesis", 0, users=4)
    log.emit("block-accepted", 1, block="aa")
    assert [rec["seq"] for rec in log] == [0, 1]
    lines = log.to_jsonl().splitlines()
    assert json.loads(lines[0]) == {"seq": 0, "kind": "genesis", "height": 0, "users": 4}
    # Canonical form: keys sorted, no spaces.
    assert lines[0] == '{"height":0,"kind":"genesis","seq":0,"users":4}'
    before = log.digest()
    assert before == hash_digest(log.to_jsonl().encode("utf-8")).hex()
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


def test_every_protocol_membership_keeps_its_corrupted_members_inside(monkeypatch):
    """Every ``ParticipantSet`` the run hands to a protocol has its
    corrupted members among its members; the builders keep that rule, so
    no construction checks it."""
    seen = {}

    def record(module, name, at=0):
        protocol = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.setdefault(f"{module.__name__}.{name}", []).append(args[at])
            return protocol(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    record(views, "vector_consensus")
    record(blocks, "vector_consensus")
    # The beacon's quorum is judged where ``run_beacon`` reads it.
    record(views, "run_beacon", at=2)
    record(agreement, "verifiable_ba")
    run_scenario(load_config(CONFIG_DIR / "stress-equivocate.json"))
    assert sorted(seen) == [
        "shardsim.agreement.verifiable_ba",
        "shardsim.blocks.vector_consensus",
        "shardsim.views.run_beacon",
        "shardsim.views.vector_consensus",
    ]
    for calls in seen.values():
        for parts in calls:
            assert parts.byzantine <= set(parts.members)
    assert any(parts.byzantine for calls in seen.values() for parts in calls)


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


def smoke(**fields) -> ScenarioConfig:
    """configs/smoke.json with ``fields`` set."""
    mapping = json.loads((CONFIG_DIR / "smoke.json").read_text())
    return ScenarioConfig.from_mapping({**mapping, **fields})


def test_contract_void_committee_without_equivocation_certifies_one_block():
    # Forcing 5 of the one shard's 16 core members puts it past mu_core = 1/4
    # but inside the vector-consensus contract; a strategy that does not
    # equivocate has the corrupted members certify the base block alone.
    metrics, events = run_scenario(
        smoke(mu_core="1/4", adversary={"strategy": "passive", "force_corrupt_shards": 1})
    )
    accepted = list(events.of_kind("block-accepted"))
    assert len(accepted) == 10
    assert sum(1 for rec in accepted if rec["leader"] is None) == 3
    kinds = [rec["kind"] for rec in metrics.incidents]
    assert kinds.count("corrupted-committee") == 3
    assert kinds.count("corrupted-shard") == 3
    assert "equivocation" not in kinds
    assert metrics.summary["safety_ok"] and metrics.summary["liveness_ok"]


def test_committee_within_its_contract_may_decide_nothing():
    # A 2/5 budget puts the one shard's core past the vector-consensus
    # contract but within mu_core = 1/2, so ``silent`` dictates an empty
    # proposal vector, and a committee with no corrupted label (its
    # contract held) decides no block.
    metrics, events = run_scenario(
        smoke(
            mu="2/5",
            mu_core="1/2",
            mu_corrupted="1/2",
            adversary={"strategy": "silent", "corrupt_fraction": "2/5"},
        )
    )
    assert metrics.summary["blocks"] == 3
    # No ``corrupted-committee``: every height's BA kept its contract.
    assert [rec["kind"] for rec in metrics.incidents] == ["no-decision"] * 7
    assert len(list(events.of_kind("no-block"))) == 7
    assert metrics.summary["safety_ok"] and not metrics.summary["liveness_ok"]


def test_equivocation_without_a_marker_transaction_certifies_one_block(monkeypatch):
    # With no spendable corrupted UTXO, ``craft`` has no second variant, so
    # ``equivocate`` falls back to certifying the base block alone.
    asked = []

    def no_marker(sim):
        asked.append(sim)
        return None

    monkeypatch.setattr(agreement, "_adversary_marker_tx", no_marker)
    metrics, events = run_scenario(load_config(CONFIG_DIR / "stress-equivocate.json"))
    assert len(asked) == 3
    accepted = list(events.of_kind("block-accepted"))
    assert [rec["leader"] for rec in accepted] == [None] * 3
    kinds = [rec["kind"] for rec in metrics.incidents]
    assert kinds.count("corrupted-shard") == kinds.count("corrupted-committee") == 3
    assert kinds.count("no-eligible-shards") == 7 and len(kinds) == 13
    assert metrics.summary["blocks"] == 3 and metrics.summary["safety_ok"]

    # Unpatched, the same config splits the observers.
    monkeypatch.undo()
    metrics, _ = run_scenario(load_config(CONFIG_DIR / "stress-equivocate.json"))
    kinds = [rec["kind"] for rec in metrics.incidents]
    assert kinds.count("equivocation") == 3 and not metrics.summary["safety_ok"]


def test_force_corrupt_stops_at_the_budget():
    # A 1/20 budget of 64 unit stakes covers 3 members, short of the 6 that
    # would push the one shard's 16-member core past mu_core.
    metrics, _ = run_scenario(
        smoke(
            adversary={
                "strategy": "passive",
                "force_corrupt_shards": 1,
                "corrupt_fraction": "1/20",
            }
        )
    )
    budget = [rec for rec in metrics.incidents if rec["kind"] == "force-corrupt-budget"]
    assert budget == [{"height": 0, "kind": "force-corrupt-budget", "label": ""}]


def reference_setup_corruption(sim):
    """Set-up corruption as scheduled before one stake limit served every
    candidate: the stress hook, then the greedy fill, with each candidate
    checked against the budget times a fresh sum of the live stake.  Replays
    on ``sim``'s directory, keyring and UTXO set into a fresh adversary
    state; returns its corrupted set, the scheduled and active events and
    the budget incidents."""
    cfg, live = sim.cfg, sim.utxos.live
    adv = AdversaryState(seed=sim.adv.seed)
    events, incidents = [], []

    def controlled(pk):
        return pk in adv.corrupted or pk in adv.pending

    def schedule(pk):
        if pk in adv.corrupted or pk in adv.pending or pk not in live:
            return False
        pks = adv.corrupted | set(adv.pending)
        projected = sum(live[p].stake for p in pks if p in live) + live[pk].stake
        if Fraction(projected) > cfg.corruption_budget * sum(u.stake for u in live.values()):
            return False
        adv.pending[pk] = -cfg.epoch_length + cfg.epoch_length
        return True

    def force_corrupt(n_shards):
        for label in sorted(sim.directory)[:n_shards]:
            view = sim.directory[label]
            have = sum(1 for c in view.core if controlled(c.pk))
            for cred in view.core:
                if not within_bound(have, len(view.core), cfg.mu_core):
                    break
                if controlled(cred.pk):
                    continue
                if schedule(cred.pk):
                    have += 1
                else:
                    incidents.append({"height": 0, "kind": "force-corrupt-budget", "label": label})
                    return

    if cfg.force_corrupt_shards:
        force_corrupt(cfg.force_corrupt_shards)
    if cfg.corrupt_fraction is not None or (
        cfg.adversary_strategy != "passive" and not cfg.force_corrupt_shards
    ):
        for pk in sorted(sim.keyring):
            if controlled(pk):
                continue
            if not schedule(pk):
                break
            events.append(("corruption-scheduled", 0, pk.hex()))
    events += [("corruption-active", 0, pk.hex()) for pk in activate_due(adv, 0, sim.keyring)]
    return adv.corrupted, events, incidents


@settings(deadline=None, max_examples=60)
@given(
    groups=st.lists(st.tuples(st.integers(5, 20), st.integers(1, 4)), min_size=1, max_size=4),
    mu_twelfths=st.integers(1, 5),
    fraction=st.none() | st.integers(0, 10),
    force=st.integers(0, 3),
    strategy=st.sampled_from(sorted(STRATEGIES)),
)
def test_setup_corruption_matches_the_per_candidate_reference(
    groups, mu_twelfths, fraction, force, strategy
):
    adversary = {"strategy": strategy, "force_corrupt_shards": force}
    if fraction is not None:
        # At most mu, in 24ths.
        adversary["corrupt_fraction"] = f"{min(fraction, 2 * mu_twelfths)}/24"
    sim = Simulation(
        config(
            stake_cap=max(2, *(stake for _, stake in groups)),
            genesis=[{"count": count, "stake": stake} for count, stake in groups],
            mu=f"{mu_twelfths}/12",
            s_min=4,
            s_max=8,
            adversary=adversary,
        )
    )
    corrupted, events, incidents = reference_setup_corruption(sim)
    assert sim.adv.corrupted == corrupted and not sim.adv.pending
    kinds = ("corruption-scheduled", "corruption-active")
    assert [(r["kind"], r["height"], r["pk"]) for r in sim.events if r["kind"] in kinds] == events
    budget = [r for r in sim.metrics.incidents if r["kind"] == "force-corrupt-budget"]
    assert budget == incidents


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
        # Input that used to run as something else, or die in a traceback.
        (base_mapping(adversary={"strategey": "grind"}), "unknown adversary fields"),
        (base_mapping(adversary={"params": [["split", True]]}), "params must be a JSON object"),
        (base_mapping(unsafe_params="false"), "bad config field"),
        (base_mapping(heights=2.7), "bad config field"),
        (base_mapping(observers=True), "bad config field"),
        (base_mapping(tx_rate="2"), "bad config field"),
        (base_mapping(adversary={"force_corrupt_shards": 1.0}), "bad config field"),
        (base_mapping(genesis=[{"count": 64.0, "stake": 1}]), "genesis"),
        (base_mapping(genesis=[{"count": 64, "stake": True}]), "genesis"),
        (base_mapping(kappa=True), "bad config field: kappa"),
        (base_mapping(kappa="20"), "bad config field: kappa"),
        (base_mapping(master_seed=None), "master_seed must be a JSON string"),
        (base_mapping(master_seed=5), "master_seed must be a JSON string"),
        (base_mapping(name=["x"]), "name must be a JSON string"),
        (base_mapping(mu_core="1/0"), "zero denominator"),
        (base_mapping(adversary={"corrupt_fraction": "1/0"}), "zero denominator"),
        (base_mapping(genesis=[{"count": 64, "stake": 1, "stak": 3}]), "genesis"),
    ],
)
def test_malformed_configs_raise_config_error(raw, needle, tmp_path, capsys):
    assert_refused(raw, needle, tmp_path, capsys)


def test_invalid_json_raises_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


class CountingTable(dict):
    """A join table that records how often each join was added."""

    def __init__(self):
        super().__init__()
        self.adds = {}

    def __setitem__(self, key, value):
        self.adds[key] = self.adds.get(key, 0) + 1
        super().__setitem__(key, value)


def run_height(sim, target, renew=True):
    """One height of ``Simulation.run``, phase by phase through the phase
    modules; returns whether a block was accepted."""
    sim._activate_corruptions(target)
    views.update_views(sim, target)
    views.apply_topology(sim, target)
    accepted = agreement.produce_block(sim, target)
    if accepted and renew:
        sim._renewals_and_workload(target)
    return accepted


SPLIT_AND_MERGE = dict(genesis=[{"count": 100, "stake": 1}], s_min=12, s_max=24)
# The ``fshard1-equivocate-n256`` golden config: equivocating committees
# leave heights without a block, so attempts are retried.
FSHARD1_EQUIVOCATE = dict(
    name="fshard1-equivocate-n256",
    heights=8,
    s_min=32,
    f_shard=1,
    mu="1/3",
    genesis=[{"count": 256, "stake": 1}],
    tx_rate=2,
    adversary={"strategy": "equivocate", "force_corrupt_shards": 2},
)


@pytest.mark.parametrize(
    "overrides,kinds",
    [(SPLIT_AND_MERGE, {"split", "merge"}), (FSHARD1_EQUIVOCATE, {"no-block"})],
    ids=["split-merge", "fshard1-equivocate"],
)
def test_phase_functions_compose_to_run(overrides, kinds):
    expected_metrics, expected_events = Simulation(config(**overrides)).run()

    sim = Simulation(config(**overrides))
    for _ in range(sim.cfg.heights):
        run_height(sim, len(sim.chain))
    sim._finish()
    assert sim.events.digest() == expected_events.digest()
    assert sim.metrics.digest() == expected_metrics.digest()
    assert kinds <= {rec["kind"] for rec in sim.events}


def test_willing_signers_are_the_per_pk_filter():
    sim = Simulation(config())
    view = next(iter(sim.directory.values()))
    pks = view.core_pks
    assert sim.willing_signers(view, True, True) is pks
    for corrupted in (set(), set(pks[::2]), set(pks)):
        sim.adv.corrupted = corrupted
        for honest_sign in (True, False):
            for byz_sign in (True, False):
                expected = [pk for pk in pks if (byz_sign if pk in corrupted else honest_sign)]
                assert list(sim.willing_signers(view, honest_sign, byz_sign)) == expected


def test_join_lands_once_in_the_join_set_route_names():
    # Genesis UTXOs are pre-aged by one epoch, so every genesis key renews
    # at height epoch_length.
    sim = Simulation(config(genesis=[{"count": 256, "stake": 1}], heights=3, tx_rate=0))
    height = sim.cfg.epoch_length
    for target in range(1, height):
        assert run_height(sim, target)
    assert run_height(sim, height, renew=False)
    assert not any(sim.joins.values())
    sim.joins = {label: CountingTable() for label in sim.joins}

    messages = sim.meter.total
    first_event = len(sim.events)
    sim._renewals_and_workload(height)
    joins = [rec for rec in sim.events.of_kind("join") if rec["seq"] >= first_event]
    assert len({rec["label"] for rec in joins}) > 1
    landed = {cred.pk.hex(): (label, cred) for label, js in sim.joins.items() for cred in js}
    assert len(landed) == sum(len(js) for js in sim.joins.values())
    assert len(joins) == len(landed) == len({rec["pk"] for rec in joins})
    for rec in joins:
        label, cred = landed[rec["pk"]]
        assert label == rec["label"] == route(sim.directory, cred.value)
        assert cred.anchor_height == rec["anchor"] == height
        assert sim.joins[label].adds[cred] == 1
        assert sim.joins[label][cred] is True  # derived by the renewal phase
    # Each join is delivered to every core member of its shard.
    assert sim.meter.total - messages == sum(
        len(sim.directory[rec["label"]].core) for rec in joins
    )


# Every ``charge_instance`` argument over a run of configs/smoke.json and of
# the golden fshard1-equivocate-n256 config: the join and proposal vector
# consensus, the beacons and the committee BA, in run order.
CHARGE_SEQUENCE_DIGEST = "a813e88cb4cbfac39df0bbba373a224213b55c6f9f465dad52239ac240ef301f"


def test_instance_charges_follow_the_run(monkeypatch):
    charged = []
    charge_instance = MessageMeter.charge_instance

    def record(meter, n):
        charged.append(n)
        charge_instance(meter, n)

    monkeypatch.setattr(MessageMeter, "charge_instance", record)
    run_scenario(load_config(CONFIG_DIR / "smoke.json"))
    run_scenario(
        config(
            name="fshard1-equivocate-n256",
            s_min=32,
            f_shard=1,
            mu="1/3",
            genesis=[{"count": 256, "stake": 1}],
            adversary={"strategy": "equivocate", "force_corrupt_shards": 2},
        )
    )
    # A committee of four 32-member cores weighs 4 * 32 in its BA.
    assert len(charged) == 95 and 128 in charged
    digest = hashlib.sha256(",".join(map(str, charged)).encode()).hexdigest()
    assert digest == CHARGE_SEQUENCE_DIGEST


def test_join_sets_follow_the_directory_through_splits_and_merges():
    sim = Simulation(config(**SPLIT_AND_MERGE))
    assert set(sim.joins) == set(sim.directory)
    for target in range(1, sim.cfg.heights + 1):
        sim._activate_corruptions(target)
        for phase in (views.update_views, views.apply_topology, agreement.produce_block):
            phase(sim, target)
            assert set(sim.joins) == set(sim.directory)
        sim._renewals_and_workload(target)
        assert set(sim.joins) == set(sim.directory)
    kinds = {rec["kind"] for rec in sim.events}
    assert {"split", "merge"} <= kinds


@pytest.mark.parametrize("strategy,corrupted_slot", [("passive", True), ("silent", False)])
def test_corrupted_join_slot_is_the_strategys_choice(monkeypatch, strategy, corrupted_slot):
    sim = Simulation(config(heights=4, tx_rate=0))
    (label,) = sim.directory
    for target in range(1, sim.cfg.epoch_length + 1):
        assert run_height(sim, target)
    received = frozenset(sim.joins[label])
    assert received
    core = sim.directory[label].core
    sim.adv.corrupted.update(c.pk for c in core[:2])
    sim.strategy = STRATEGIES[strategy]({})
    decided = []

    def recording(parts, *args, **kwargs):
        vector = vector_consensus(parts, *args, **kwargs)
        decided.append(dict(zip(parts.members, vector)))
        return vector

    monkeypatch.setattr(views, "vector_consensus", recording)
    views.update_views(sim, sim.cfg.epoch_length + 1)
    (slots,) = decided
    for i, member in enumerate(core):
        expected = received if i >= 2 or corrupted_slot else None
        assert slots[member.pk] == expected
    assert sim.directory[label].height == sim.cfg.epoch_length + 1


def _value_routed_to(label, tag):
    """A credential value with ``label`` as its prefix, found by search."""
    for i in range(1 << 16):
        value = tagged_hash(b"forged-value", tag, encode_int(i))
        if label_matches(label, value):
            return value
    raise AssertionError("no value found")


def forged_join(sim, label, kind):
    """A credential that shard ``label`` must refuse at height 4 (the update
    judges it at height 3), valid in every respect but the forged one."""
    epoch = sim.cfg.epoch_length
    genesis_pk = sim.utxos.sorted_pks[0]
    value = _value_routed_to(label, kind.encode())
    if kind == "other-label":
        other = next(l for l in sorted(sim.joins) if l != label and sim.joins[l])
        return min(sim.joins[other], key=lambda c: c.value)
    if kind == "future-anchor":
        return Credential(value, genesis_pk, anchor_height=2 * epoch, expiry_height=3 * epoch)
    if kind == "no-utxo":
        return Credential(value, keygen(b"no-utxo").pk, epoch, 2 * epoch)
    if kind == "value-mismatch":
        return Credential(value, genesis_pk, epoch, 2 * epoch)
    assert kind == "expired"
    return Credential(value, genesis_pk, 0, epoch)


@pytest.mark.parametrize(
    "kind", ["other-label", "future-anchor", "no-utxo", "value-mismatch", "expired"]
)
def test_forged_join_is_refused(kind):
    sim = Simulation(config(genesis=[{"count": 256, "stake": 1}]))
    assert sim.cfg.epoch_length == 3
    for target in range(1, 4):
        assert run_height(sim, target)
    label = sorted(sim.directory)[0]
    forged = forged_join(sim, label, kind)
    assert forged not in sim.directory[label].members()
    if kind == "other-label":
        h0 = sim.utxos.live[forged.pk].created_height
        assert derive_credential(forged.pk, h0, 3, sim.headers, 3) == forged
    renewed = set(sim.joins[label])
    assert renewed
    sim.joins[label][forged] = False  # not derived by the renewal phase

    views.update_views(sim, 4)
    view = sim.directory[label]
    assert view.height == 4
    assert forged not in view.members()
    assert renewed <= set(view.members())
    assert sim.metrics.view_violations == 0


# The acceptance corpus's ``grind`` scenario at N=256 and epoch 3.
SUITE_GRIND = dict(
    name="suite-003-grind-n256-t3",
    master_seed="suite-003",
    heights=30,
    s_min=169,
    s_max=338,
    mu_core="1/2",
    mu_corrupted="1/2",
    mu="1/100",
    genesis=[{"count": 256, "stake": 1}],
    unsafe_params=False,
    adversary={"strategy": "grind"},
)


@pytest.mark.parametrize(
    "overrides", [dict(genesis=[{"count": 256, "stake": 1}]), SUITE_GRIND], ids=["n256", "grind"]
)
def test_admission_verdicts_equal_the_full_check(monkeypatch, overrides):
    """Every join admission judges, renewed or not, gets the verdict of
    ``label_matches`` and ``verify_credential`` at the shard's view height."""
    sim = Simulation(config(**overrides))
    assert sim.cfg.epoch_length == 3
    update_view = views.update_view
    renewed = []

    def checked(prev_view, decided_joins, newcomer_valid):
        label, eval_height = prev_view.label, prev_view.height

        def judge(cred):
            verdict = newcomer_valid(cred)
            assert verdict == (
                label_matches(label, cred.value)
                and verify_credential(cred, eval_height, sim.headers, sim.utxos.utxo_at)
            )
            renewed.append(sim.joins[label].get(cred, False))
            return verdict

        return update_view(prev_view, decided_joins, judge)

    monkeypatch.setattr(views, "update_view", checked)
    metrics, _events = sim.run()
    assert metrics.summary["safety_ok"] and any(renewed)


def deliver_joins_one_by_one(sim, height):
    """Reference for ``views.deliver_joins``: one derivation, one ``route``
    call, one charge and one count per renewing keyring pk."""
    for pk in sim.utxos.due_renewals(height):
        if pk not in sim.keyring:
            continue
        h0 = sim.utxos.live[pk].created_height
        cred = derive_credential(pk, h0, height, sim.headers, sim.cfg.epoch_length)
        view = sim.directory[route(sim.directory, cred.value)]
        sim.joins[view.label][cred] = True
        sim.meter.charge(len(view.core))
        sim.joins_submitted += 1
        sim.events.emit("join", height, label=view.label, pk=pk.hex(), anchor=cred.anchor_height)


# Transactions every height over more than two epochs: keys they create
# renew at heights off the genesis residue.  Splits and merges also happen.
TX_CHURN = dict(
    genesis=[{"count": 100, "stake": 1}], s_min=12, s_max=24, heights=14, tx_rate=4
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_config(CONFIG_DIR / "smoke.json"),
        lambda: config(**SUITE_GRIND),
        lambda: config(**TX_CHURN),
    ],
    ids=["smoke", "grind", "tx-churn"],
)
def test_batched_renewals_equal_one_by_one_delivery(monkeypatch, make):
    batch, reference = Simulation(make()), Simulation(make())
    epoch = batch.cfg.epoch_length
    assert batch.events.digest() == reference.events.digest()
    genesis = sorted(
        (c for view in batch.directory.values() for c in view.members()), key=lambda c: c.pk
    )
    assert genesis == [
        derive_credential(pk, -epoch, 0, batch.headers, epoch) for pk in batch.utxos.sorted_pks
    ]

    deliver_joins = views.deliver_joins
    renewal_heights = []

    def deliver(sim, height):
        if sim is reference:
            return deliver_joins_one_by_one(sim, height)
        due = sim.utxos.due_renewals(height)
        assert derive_credentials(due, height, sim.headers[height].seed, epoch) == [
            derive_credential(pk, sim.utxos.live[pk].created_height, height, sim.headers, epoch)
            for pk in due
        ]
        if due:
            renewal_heights.append(height)
        return deliver_joins(sim, height)

    monkeypatch.setattr(views, "deliver_joins", deliver)
    for target in range(1, batch.cfg.heights + 1):
        assert run_height(batch, target) == run_height(reference, target)
        assert batch.joins == reference.joins
        assert batch.meter.total == reference.meter.total
        assert batch.joins_submitted == reference.joins_submitted
        assert batch.events.digest() == reference.events.digest()
    assert batch.joins_submitted > 0
    if batch.cfg.tx_rate:
        assert any(height % epoch for height in renewal_heights)


def test_threshold_rules_at_the_mu_core_boundary():
    """mu_core 1/3, a core of 30 and 10 corrupted members: exactly
    mu_core * 30.  The three rules answer differently, one per purpose."""
    sim = Simulation(config(genesis=[{"count": 40, "stake": 1}], s_min=30, s_max=80))
    assert sim.cfg.mu_core == Fraction(1, 3)
    view = sim.directory[""]
    assert len(view.core) == 30
    sim.adv.corrupted = {c.pk for c in view.core[:10]}
    parts = sim.core_parts(view)
    assert parts.within(sim.cfg.mu_core) and not sim.shard_corrupted(view)
    assert not parts.bft_contract_holds
    assert exceedance_threshold(sim.cfg.mu_core, 30) == 10
    # One more corrupted member is past mu_core.
    sim.adv.corrupted.add(view.core[10].pk)
    assert sim.shard_corrupted(view)


@pytest.mark.parametrize("honest_sign", [False, True])
@pytest.mark.parametrize("byz_sign", [False, True])
def test_willing_signers_follow_each_members_consent(honest_sign, byz_sign):
    """Of the core, in core order: an honest member is willing iff
    ``honest_sign``, a corrupted one iff ``byz_sign``."""
    sim = Simulation(config(genesis=[{"count": 40, "stake": 1}], s_min=30, s_max=80))
    view = sim.directory[""]
    core = [c.pk for c in view.core]
    corrupted, honest = core[::3], [pk for pk in core if pk not in core[::3]]
    # A corrupted key outside the core is nobody's signer here.
    sim.adv.corrupted = set(corrupted) | {keygen(b"outside-the-core").pk}
    willing = set(honest if honest_sign else ()) | set(corrupted if byz_sign else ())
    signers = sim.willing_signers(view, honest_sign, byz_sign)
    assert list(signers) == [pk for pk in core if pk in willing]


def keep_expired_member(update_view, label):
    """``update_view``, except that the update of shard ``label`` to height
    2 keeps a member whose credential has expired.  The fault is a pure
    function of the inputs, so recomputing the update repeats it."""
    stale_pk = keygen(b"stale-member").pk
    stale = Credential(value=stale_pk, pk=stale_pk, anchor_height=-3, expiry_height=0)

    def faulty(prev_view, *args, **kwargs):
        view, newcomers = update_view(prev_view, *args, **kwargs)
        if prev_view.label != label or view.height != 2:
            return view, newcomers
        return replace(view, spare=view.spare + (stale,)), newcomers

    return faulty


def test_view_agreement_oracle_rejects_a_faulty_view(monkeypatch, tmp_path, capsys):
    mapping = base_mapping(genesis=[{"count": 256, "stake": 1}])
    sim = Simulation(ScenarioConfig.from_mapping(mapping))
    assert len(sim.directory) > 1
    label = sorted(sim.directory)[0]
    monkeypatch.setattr(views, "update_view", keep_expired_member(views.update_view, label))

    metrics, events = sim.run()
    assert metrics.view_violations >= 1
    assert metrics.summary["view_violations"] == metrics.view_violations
    divergences = [rec for rec in metrics.incidents if rec["kind"] == "view-divergence"]
    assert divergences and divergences[0] == {
        "height": 2, "kind": "view-divergence", "label": label, "reason": "expired-member"
    }
    # The shard stays on its height-1 view, which is the registered one.
    assert sim.directory[label].height == 1
    assert not any(
        rec["label"] == label and rec["height"] >= 2 for rec in events.of_kind("view-installed")
    )
    assert any(rec["label"] == label for rec in events.of_kind("view-rejected"))
    # While its view lags the height, the shard sits on no committee.
    assert not any(
        rec["height"] >= 2 and label in rec["labels"] for rec in events.of_kind("committee")
    )
    # The other shards keep producing, so only the view oracle fails.
    assert metrics.summary["blocks"] > 1
    assert metrics.summary["safety_ok"] and metrics.summary["liveness_ok"]

    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(mapping))
    assert main(["run", str(path)]) == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["view_violations"] == metrics.view_violations


def test_a_lagging_shard_catches_up_one_view_per_height(monkeypatch):
    """One failed install leaves a shard a view behind the height; it then
    installs one view per height, each against its registered view."""
    sim = Simulation(config(genesis=[{"count": 256, "stake": 1}]))
    label = sorted(sim.directory)[0]
    install_and_diffuse = views.install_and_diffuse
    failed, installs = [], []

    def fails_once(new_view, *args, **kwargs):
        if new_view.label == label:
            if new_view.height == 2 and not failed:
                failed.append(new_view)
                return False
            old_view = sim.directory[label]
            installs.append((old_view, new_view, set(sim.joins[label]), len(sim.chain) - 1))
        return install_and_diffuse(new_view, *args, **kwargs)

    monkeypatch.setattr(views, "install_and_diffuse", fails_once)
    metrics, events = sim.run()

    assert metrics.incidents == [
        {"height": 2, "kind": "view-install-failed", "label": label},
        {"height": 3, "kind": "view-catch-up", "label": label},
        {"height": 4, "kind": "view-catch-up", "label": label},
        {"height": 5, "kind": "view-catch-up", "label": label},
    ]
    rejected = [(rec["height"], rec["label"]) for rec in events.of_kind("view-rejected")]
    assert rejected == [(2, label)]
    assert metrics.view_violations == 0 and metrics.summary["safety_ok"]
    catch_ups = installs[1:4]
    assert [(old.height, new.height, last) for old, new, _, last in catch_ups] == [
        (1, 2, 2), (2, 3, 3), (3, 4, 4)
    ]
    for old, new, _, _ in catch_ups:
        verdict = verify_view_transition(old, new, new.height, sim.cfg.s_min)
        assert verdict, verdict.reason
    # The lagging shard judges joins at its own view height, not at the last
    # accepted block: honest renewals anchored after that height are refused.
    old, new, joins, last = catch_ups[1]
    assert joins and {c.anchor_height for c in joins} == {3} and old.height == 2 < last
    assert not joins & set(new.members())
    assert all(verify_credential(c, last, sim.headers, sim.utxos.utxo_at) for c in joins)
    # With its renewals refused, the shard is empty once its members expire;
    # it merges into its sibling subtree at height 5, which ends the lag.
    assert catch_ups[2][1].members() == ()
    merges = [rec for rec in events.of_kind("merge") if label in rec["absorbed"]]
    assert [rec["height"] for rec in merges] == [5]
    assert (events.digest(), metrics.digest()) == (
        "ab0860fec5d298f035d6747f3f4c0e7de9ff88620e1cafe0f178d9288f6eb8f3",
        "f11be1b9f1bfa56e8fe2a843d529a643d639825b0e29603bc429cd67a7ec07fe",
    )


class RecordingWorstCaseSeed(WorstCaseSeedStrategy):
    """The worst-case-seed grinder, recording every candidate it scores."""

    def __init__(self):
        super().__init__()
        self.candidates = []

    def beacon_choice(self, entropy_seed, evaluate, prg):
        def recorded(seed):
            self.candidates.append(seed)
            return evaluate(seed)

        return super().beacon_choice(entropy_seed, recorded, prg)


def test_refill_grinding_installs_the_most_corrupted_core():
    # One root shard: a core of 16 and a spare set of 24.
    sim = Simulation(config(genesis=[{"count": 40, "stake": 1}], s_max=64))
    (label,) = sim.directory
    view = sim.directory[label]
    assert (len(view.core), len(view.spare)) == (16, 24)
    # Six corrupted core members put the beacon quorum past mu_core 1/3,
    # four honest ones perish before height 1, and every other spare
    # member is corrupted, so the four refill draws decide the score.
    corrupted = {c.pk for c in view.core[:6]} | {c.pk for c in view.spare[::2]}
    sim.adv.pending.clear()
    sim.adv.corrupted = set(corrupted)
    expiring = {c: c._replace(expiry_height=0) for c in view.core[6:10]}
    view = replace(view, core=tuple(expiring.get(c, c) for c in view.core))
    sim.directory[label] = view
    sim.strategy = RecordingWorstCaseSeed()

    views.update_views(sim, 1)

    installed = sim.directory[label]
    assert installed.height == 1
    survivors = [c for c in view.core if c not in expiring]

    def corrupted_core(seed):
        promoted = sample_without_replacement(Prg(seed), view.spare, 4)
        return sum(c.pk in corrupted for c in survivors + promoted)

    scores = [corrupted_core(seed) for seed in sim.strategy.candidates]
    assert len(scores) == 8
    achieved = sum(c.pk in corrupted for c in installed.core)
    assert achieved == max(scores) > scores[0]


class DictateForgedBlock(Strategy):
    """A committee beyond its corruption bound dictates a forged copy of
    the first proposal: a wrong ``body_hash``, or an extra transaction that
    spends the first transaction's input again."""

    def __init__(self, sim, forgery):
        super().__init__()
        self.sim = sim
        self.forgery = forgery
        self.dictated = []

    def ba_decision(self, parts, proposals):
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
    sim.strategy = strategy

    metrics, _ = sim.run()
    void = {rec["height"] for rec in metrics.incidents if rec["kind"] == "corrupted-committee"}
    shortfall = {
        rec["height"] for rec in metrics.incidents if rec["kind"] == "certificate-shortfall"
    }
    forged = [b for b in strategy.dictated if b.header.height in void]
    assert forged
    assert {b.header.height for b in forged} <= shortfall
    held = {
        b.header.core_digest for chain in sim.observer_chains for b in chain
    }
    assert not any(b.header.core_digest in held for b in forged)
    assert metrics.summary["safety_ok"]


def test_short_certificate_trips_the_post_certification_check(monkeypatch):
    # Every shard signature comes out one member short of its quorum, so the
    # certificate of the decided block cannot pass; the simulation must stop
    # rather than accept the block.
    sign_block = agreement.shard_sign_block

    def one_short(*args, **kwargs):
        ss = sign_block(*args, **kwargs)
        return None if ss is None else replace(ss, member_sigs=ss.member_sigs[:-1])

    monkeypatch.setattr(agreement, "shard_sign_block", one_short)
    with pytest.raises(RuntimeError, match="certificate"):
        run_scenario(load_config(CONFIG_DIR / "smoke.json"))


def flip_first_signature(sign_until_quorum, flipped: list):
    """``sign_until_quorum`` whose first collection comes back with the
    value of its first signature flipped; that call's quorum and the count
    it collected are kept in ``flipped``."""

    def flipping(signers, keys, msg, quorum):
        sigs = sign_until_quorum(signers, keys, msg, quorum)
        if not flipped and sigs:
            pk, sig = sigs[0]
            value = bytes([sig.value[0] ^ 1]) + sig.value[1:]
            sigs[0] = (pk, Signature(value, sig.signer_pk))
            flipped.append((quorum, len(sigs)))
        return sigs

    return flipping


def test_one_flipped_install_signature_fails_the_install(monkeypatch):
    # Installs collect exactly the quorum, so one bad signature among them
    # leaves the view short: batch verification must see it.
    flipped = []
    monkeypatch.setattr(
        views, "sign_until_quorum", flip_first_signature(views.sign_until_quorum, flipped)
    )
    sim = Simulation(load_config(CONFIG_DIR / "smoke.json"))
    first_label = sorted(sim.directory)[0]
    metrics, events = sim.run()
    ((quorum, collected),) = flipped
    assert collected == quorum
    failed = [rec for rec in metrics.incidents if rec["kind"] == "view-install-failed"]
    assert failed == [{"height": 1, "kind": "view-install-failed", "label": first_label}]
    rejected = [(rec["height"], rec["label"]) for rec in events.of_kind("view-rejected")]
    assert rejected == [(1, first_label)]


def test_one_flipped_endorsement_signature_trips_the_certificate_check(monkeypatch):
    # The smoke committee is one shard (f_shard=0), so its endorsement alone
    # certifies a block; one bad signature in it must fail the check that
    # follows certification.
    flipped = []
    monkeypatch.setattr(
        blocks, "sign_until_quorum", flip_first_signature(blocks.sign_until_quorum, flipped)
    )
    with pytest.raises(InvariantError, match="certificate"):
        run_scenario(load_config(CONFIG_DIR / "smoke.json"))
    assert len(flipped) == 1


def test_run_without_blocks_fails_liveness():
    # f_shard=3 asks for 7 endorsing shards; the smoke population forms one,
    # so no block is certified and no transaction is ever delivered.
    raw = json.loads((CONFIG_DIR / "smoke.json").read_text())
    metrics, events = run_scenario(ScenarioConfig.from_mapping({**raw, "f_shard": 3}))
    summary = metrics.summary
    assert summary["blocks"] == 0
    assert check_liveness(metrics).all_included
    assert summary["liveness_ok"] is False
    done = list(events.of_kind("run-complete"))
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
    done = list(events.of_kind("run-complete"))
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
    faulty, chosen = drop_one_tx(agreement.build_proposal)
    monkeypatch.setattr(agreement, "build_proposal", faulty)

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


BODY_KINDS = ["spend", "self", "chain", "outside"]


@settings(deadline=None, max_examples=60)
@given(epoch_length=st.integers(1, 3), data=st.data())
def test_schedule_and_sorted_keys_match_full_scans(epoch_length, data):
    """Drive random accepted bodies through ``agreement.accept`` and compare,
    at each height, every accepted height's UTXO set and credential verdicts
    with snapshots folded by ``apply_block``, the renewal schedule with a
    sorted scan of every live key, and the workload's sender draws with
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

    def new_key():
        kp = keygen(tagged_hash(b"differential", encode_int(len(made))))
        made.append(kp)
        sim.keyring[kp.pk] = kp
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
                # Outside the keyring, as the adversary's respends are.
                out = sim.adv.fresh_key().pk
            else:
                out = new_key()
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
        agreement.accept(sim, block, height, leader=None)
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
            for pk in live
            if height >= sim.utxos.live[pk].created_height + epoch_length
            and (height - sim.utxos.live[pk].created_height) % epoch_length == 0
        ]
        assert sim.utxos.due_renewals(height) == due

        candidates = [
            pk
            for pk in live
            if pk not in sim.in_flight
            and pk not in sim.adv.corrupted
            and pk not in sim.adv.pending
            and pk not in sim.adv.keys
            and pk in sim.keyring
        ]
        # Past the 12-key pool, so an exhausted pool is drawn from too.
        count = data.draw(st.integers(0, 16))
        expected = []
        for _ in range(count):
            if not candidates:
                break
            expected.append(candidates.pop(reference_prg.draw(len(candidates)) - 1))
        senders = sim._draw_senders(count)
        assert senders == expected
        assert sim.workload_prg.counter == reference_prg.counter
        assert sim.workload_prg._words == reference_prg._words
        sim.in_flight.update(pk for pk in senders if data.draw(st.booleans()))


# -- set-up against the one-key-at-a-time reference --------------------------


def _reference_encode_io(inputs, outputs):
    """A transaction's inputs and outputs framed part by part."""
    parts = [encode_int(len(inputs))]
    parts.extend(encode_bytes(pk) for pk in inputs)
    parts.append(encode_int(len(outputs)))
    for out in outputs:
        parts.append(encode_bytes(out.pk))
        parts.append(encode_int(out.stake))
    return b"".join(parts)


def _reference_split(label, view, s_min, s_max):
    """The split decision of an oversized view: its members partitioned on
    the bit after the label, deferred when a child would fall under s_min."""
    if len(view.members()) <= s_max:
        return None
    zeros, ones = [], []
    for c in view.members():
        bit = (c.value[len(label) // 8] >> (7 - len(label) % 8)) & 1
        (ones if bit else zeros).append(c)
    if len(zeros) < s_min or len(ones) < s_min:
        return None
    return ((label + "0", tuple(zeros)), (label + "1", tuple(ones)))


class ReferenceSetup(Simulation):
    """``Simulation`` set up one key at a time: a keygen per user, the
    genesis outputs and UTXOs built by their public constructors and framed
    part by part, and a bootstrap worklist that forms the root's view,
    splits it and forms a view, core election included, for every shard
    it makes, intermediate ones too."""

    def _setup(self):
        cfg = self.cfg
        self.keyring = {}
        genesis_utxos = []
        idx = 0
        for count, stake in cfg.genesis:
            for _ in range(count):
                sk = tagged_hash(b"sk", tagged_hash(b"user", self.master, encode_int(idx)))
                kp = KeyPair(pk=tagged_hash(b"pk", sk), sk=sk)
                self.keyring[kp.pk] = kp
                genesis_utxos.append((kp.pk, stake))
                idx += 1
        outputs = tuple(TxOutput(pk=pk, stake=stake) for pk, stake in genesis_utxos)
        genesis_tx = Transaction(inputs=(), outputs=outputs, signatures=())
        assert genesis_tx.tx_id == tagged_hash(b"tx", _reference_encode_io((), outputs), b"")
        header = BlockHeader(
            prev_hash=ZERO_DIGEST,
            height=0,
            seed=tagged_hash(b"genesis", self.master),
            body_hash=tagged_hash(b"body", genesis_tx.tx_id),
            vrf_proofs=(),
            proposer_label="",
            certificate=(),
        )
        genesis = Block(header=header, body=(genesis_tx,))
        live = {o.pk: Utxo(o.pk, o.stake, -cfg.epoch_length) for o in outputs}
        self.utxos = UtxoIndex(live, cfg.epoch_length)
        self.chain = [genesis]
        self.headers = [genesis.header]
        self.observer_chains = [[genesis] for _ in range(cfg.observers)]
        self.events.emit(
            "genesis", 0, block=header_hash(genesis.header).hex(), users=cfg.n_credentials
        )

        creds = derive_credentials(self.utxos.sorted_pks, 0, genesis.header.seed, cfg.epoch_length)
        seed = shard_entropy(self.master, ROOT_LABEL, 0, b"bootstrap")
        self.directory = {ROOT_LABEL: form_view(ROOT_LABEL, creds, 0, seed, cfg.s_min)}
        pending = list(self.directory)
        while pending:
            label = pending.pop()
            children = _reference_split(label, self.directory[label], cfg.s_min, cfg.s_max)
            if children is None:
                continue
            del self.directory[label]
            for child_label, members in children:
                seed = shard_entropy(self.master, child_label, 0, b"bootstrap")
                self.directory[child_label] = form_view(child_label, members, 0, seed, cfg.s_min)
                pending.append(child_label)
        assert check_prefix_free_cover(self.directory)
        self.joins = {label: {} for label in self.directory}
        for label, view in sorted(self.directory.items()):
            self.events.emit(
                "view-installed",
                0,
                label=label,
                digest=view_digest(view).hex(),
                core=len(view.core),
                spare=len(view.spare),
            )

        limit = cfg.corruption_budget * sum(u.stake for u in live.values())
        if cfg.force_corrupt_shards:
            self._force_corrupt(cfg.force_corrupt_shards, limit)
        if cfg.corrupt_fraction is not None or (
            cfg.adversary_strategy != "passive" and not cfg.force_corrupt_shards
        ):
            for pk in sorted(self.keyring):
                if self.adv.controls(pk):
                    continue
                epoch = cfg.epoch_length
                if not schedule_corruption(self.adv, pk, -epoch, live, limit, epoch):
                    break
                self.events.emit("corruption-scheduled", 0, pk=pk.hex())
        self._activate_corruptions(0)


def assert_same_setup(cfg):
    """``Simulation(cfg)`` and ``ReferenceSetup(cfg)`` hold the same
    directory, keys, genesis, UTXO set and set-up events."""
    sim, ref = Simulation(cfg), ReferenceSetup(cfg)
    assert sorted(sim.directory) == sorted(ref.directory)
    for label, view in ref.directory.items():
        got = sim.directory[label]
        assert (got.core, got.spare, got.digest) == (view.core, view.spare, view.digest)
    assert sim.keyring == ref.keyring
    assert header_hash(sim.chain[0].header) == header_hash(ref.chain[0].header)
    assert sim.utxos.live == ref.utxos.live
    assert sim.utxos.sorted_pks == ref.utxos.sorted_pks
    assert list(sim.events) == list(ref.events)
    assert sim.adv.corrupted == ref.adv.corrupted
    return sim


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_setups_equal_the_one_key_at_a_time_reference(name):
    assert_same_setup(GOLDEN[name][0]())


@settings(deadline=None, max_examples=40)
@given(
    groups=st.lists(st.tuples(st.integers(1, 150), st.integers(1, 3)), min_size=1, max_size=3),
    s_min=st.integers(1, 12),
    slack=st.integers(0, 2),
    seed=st.integers(0, 999),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    force=st.integers(0, 2),
)
def test_setup_equals_the_one_key_at_a_time_reference(groups, s_min, slack, seed, strategy, force):
    # s_max at or just past 2 * s_min defers many splits, and small groups
    # leave lopsided children near the leaves.
    assert_same_setup(
        config(
            master_seed=f"setup-{seed}",
            genesis=[{"count": count, "stake": stake} for count, stake in groups],
            stake_cap=3,
            s_min=s_min,
            s_max=2 * s_min + slack,
            adversary={"strategy": strategy, "force_corrupt_shards": force},
        )
    )


def test_bootstrap_forms_one_view_per_shard(monkeypatch):
    """The bench ``wide`` config at seed 0: a view is formed, core election
    included, for each of the 159 final shards and for no other label (the
    intermediate shards of the split tree used to get one each)."""
    formed = []

    def counted(label, *args):
        formed.append(label)
        return form_view(label, *args)

    for module in (harness, views, membership):
        monkeypatch.setattr(module, "form_view", counted)
    sim = Simulation(
        config(
            master_seed="bench-wide-seed0",
            epoch_length=5,
            heights=10,
            s_min=64,
            s_max=128,
            genesis=[{"count": 16384, "stake": 1}],
        )
    )
    assert len(sim.directory) == 159
    assert sorted(formed) == sorted(sim.directory)

"""Contract-level agreement primitives and their corruption bounds."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from shardsim import agreement, views
from shardsim.config import load_config
from shardsim.crypto import tagged_hash
from shardsim.harness import Simulation
from shardsim.protocols import (
    BaDecision,
    BaOutcome,
    MessageMeter,
    ParticipantSet,
    VectorDecision,
    random_beacon,
    shard_entropy,
    vector_consensus,
    verifiable_ba,
    within_bound,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def smoke_sim():
    return Simulation(load_config(CONFIG_DIR / "smoke.json"))


def charges_before_calls(monkeypatch, module, name):
    """Record, in order, every ``charge_instance`` argument and every call of
    ``module.name`` (as its participant set) while the patch is in place."""
    trace = []
    charge_instance = MessageMeter.charge_instance
    primitive = getattr(module, name)

    def charge(meter, n):
        trace.append(n)
        charge_instance(meter, n)

    def call(ps, *args, **kwargs):
        trace.append(ps)
        return primitive(ps, *args, **kwargs)

    monkeypatch.setattr(MessageMeter, "charge_instance", charge)
    monkeypatch.setattr(module, name, call)
    return trace


def parts(n, byz=()):
    members = tuple("m%d" % i for i in range(n))
    return ParticipantSet(members=members, byzantine=frozenset(byz))


def inputs(ps):
    return {m: "val-" + m for m in ps.members}


def test_meter_cubic_instance_charge():
    meter = MessageMeter()
    meter.charge_instance(4)
    assert meter.total == 64
    meter.charge(10)
    assert meter.total == 74


def test_participant_set_validation_and_within():
    ps = parts(9, byz=["m0", "m1", "m2"])
    # Exactly at the bound counts as within: 3 <= (1/3) * 9.
    assert ps.within(Fraction(1, 3))
    assert not parts(9, byz=["m0", "m1", "m2", "m3"]).within(Fraction(1, 3))
    assert ps.n == 9


@given(
    st.integers(0, 10**6),
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
    st.integers(-2, 2),
)
def test_within_bound_is_the_fraction_comparison(n, bound, offset):
    # Counts around bound * n, where exactly-at-the-bound must stay within.
    corrupted = max(0, math.floor(bound * n) + offset)
    assert within_bound(corrupted, n, bound) == (corrupted <= bound * n)


def test_bft_contract_holds_up_to_a_third():
    # n >= 3f + 1: four members tolerate one corrupted, three tolerate none.
    assert parts(4, byz=["m0"]).bft_contract_holds
    assert not parts(4, byz=["m0", "m1"]).bft_contract_holds
    assert parts(3).bft_contract_holds
    assert not parts(3, byz=["m0"]).bft_contract_holds
    assert parts(7, byz=["m0", "m1"]).bft_contract_holds
    assert not parts(7, byz=["m0", "m1", "m2"]).bft_contract_holds


class TestVectorConsensus:
    def test_echoes_honest_inputs(self):
        ps = parts(4)
        vec = vector_consensus(ps, inputs(ps))
        assert vec == ["val-m0", "val-m1", "val-m2", "val-m3"]

    def test_byzantine_slot_control_within_bound(self):
        ps = parts(4, byz=["m2"])
        decision = VectorDecision(byzantine_values={"m2": "lie"})
        vec = vector_consensus(ps, inputs(ps), decision)
        assert vec == ["val-m0", "val-m1", "lie", "val-m3"]
        # Absent entry nulls the slot.
        vec = vector_consensus(ps, inputs(ps), VectorDecision())
        assert vec == ["val-m0", "val-m1", None, "val-m3"]

    @given(st.data())
    def test_contract_keeps_honest_inputs(self, data):
        # Within the contract, whatever the adversary chooses (even values
        # keyed by honest members), every honest slot holds its input and
        # every corrupted slot its chosen value or None.
        n = data.draw(st.integers(1, 12))
        members = ["m%d" % i for i in range(n)]
        byz = data.draw(st.lists(st.sampled_from(members), max_size=(n - 1) // 3, unique=True))
        ps = parts(n, byz=byz)
        chosen = data.draw(
            st.dictionaries(st.sampled_from(members), st.none() | st.text(max_size=3))
        )
        vec = vector_consensus(ps, inputs(ps), VectorDecision(byzantine_values=chosen))
        assert vec == [chosen.get(m) if m in byz else "val-" + m for m in members]

    def test_contract_boundary(self):
        # n=4 tolerates exactly one corrupted member.
        ps = parts(4, byz=["m0", "m1"])
        assert vector_consensus(ps, inputs(ps)) == [None] * 4
        dictated = VectorDecision(dictated=["x"] * 4)
        assert vector_consensus(ps, inputs(ps), dictated) == ["x"] * 4
        with pytest.raises(ValueError):
            vector_consensus(ps, inputs(ps), VectorDecision(dictated=["x"] * 3))

    def test_meter_charged_even_when_void(self, monkeypatch):
        # The run charges the join instance before it calls the primitive,
        # whether or not the shard's core keeps the BFT contract.
        sim = smoke_sim()
        (view,) = sim.directory.values()
        sim.adv.corrupted.update(c.pk for c in view.core)
        trace = charges_before_calls(monkeypatch, views, "vector_consensus")
        before = sim.meter.total
        views.update_views(sim, 1)
        charged, ps = trace
        assert not ps.bft_contract_holds
        assert charged == ps.n == len(view.core)
        # The height also delivers the new view, charged on its own.
        assert sim.meter.total - before >= ps.n**3


class TestRandomBeacon:
    """``views.run_beacon`` asks the strategy for a seed only when the
    beacon's quorum is past mu_core (1/3 in smoke.json); ``random_beacon``
    applies what it is given."""

    def beacon(self, monkeypatch, ps, choice):
        """Run one refill beacon of the smoke run's shard over ``ps`` with
        ``choice`` as the strategy's ``beacon_choice``; returns the seed, its
        entropy, the beacon's event and the run's incident kinds."""
        sim = smoke_sim()
        (label,) = sim.directory
        monkeypatch.setattr(sim.strategy, "beacon_choice", choice)
        incidents = len(sim.metrics.incidents)
        seed = views.run_beacon(sim, label, ps, 1, b"refill", lambda seed: 0.0)
        (event,) = [rec for rec in sim.events.of_kind("beacon") if rec["height"] == 1]
        kinds = [rec["kind"] for rec in sim.metrics.incidents[incidents:]]
        return seed, shard_entropy(sim.master, label, 1, b"refill"), event, kinds

    @staticmethod
    def refuse(entropy, evaluate, prg):
        raise AssertionError("beacon_choice asked within mu_core")

    def test_a_core_within_mu_core_is_never_asked(self, monkeypatch):
        seed, entropy, event, kinds = self.beacon(monkeypatch, parts(3, byz=["m0"]), self.refuse)
        assert seed == tagged_hash(b"beacon", entropy) == random_beacon(entropy)
        assert event["seed"] == seed.hex() and event["biased"] is False
        assert kinds == []

    def test_a_core_past_mu_core_gets_its_chosen_seed(self, monkeypatch):
        chosen = b"b" * 32
        asked = []

        def choose(entropy, evaluate, prg):
            asked.append(entropy)
            return chosen

        ps = parts(3, byz=["m0", "m1"])
        seed, entropy, event, kinds = self.beacon(monkeypatch, ps, choose)
        assert asked == [entropy]
        assert seed == chosen == random_beacon(entropy, chosen)
        assert event["seed"] == chosen.hex() and event["biased"] is True
        assert kinds == ["beacon-biased"]

    def test_a_core_past_mu_core_without_a_choice_stays_honest(self, monkeypatch):
        ps = parts(3, byz=["m0", "m1"])
        seed, entropy, event, kinds = self.beacon(monkeypatch, ps, lambda *args: None)
        assert seed == tagged_hash(b"beacon", entropy)
        assert event["biased"] is False and kinds == []

    def test_meter(self):
        # ``run_beacon`` charges one n^3 instance per beacon it draws.
        sim = smoke_sim()
        (label,) = sim.directory
        before = sim.meter.total
        views.run_beacon(sim, label, parts(5), 1, b"e", lambda seed: 0.0)
        assert sim.meter.total - before == 125


class TestVerifiableBa:
    mu = Fraction(1, 3)

    def proposals(self, ps):
        return {m: "block-" + m for m in ps.members}

    def test_first_live_leader_wins(self):
        ps = parts(4)
        out = verifiable_ba(ps, self.proposals(ps), lambda v: True, self.mu)
        assert out == BaOutcome(value="block-m0", leader="m0", rounds=1, contract_held=True)

    def test_silent_leader_burns_round(self):
        ps = parts(4, byz=["m0"])
        decision = BaDecision(silent_leaders=frozenset({"m0"}))
        out = verifiable_ba(ps, self.proposals(ps), lambda v: True, self.mu, decision)
        assert (out.leader, out.rounds) == ("m1", 2)
        assert out.contract_held

    def test_substitute_must_pass_validity(self):
        ps = parts(4, byz=["m0"])
        decision = BaDecision(substitute={"m0": "forged"})
        valid = lambda v: v != "forged"
        out = verifiable_ba(ps, self.proposals(ps), valid, self.mu, decision)
        # Invalid substitute burns the round; the next leader decides.
        assert (out.value, out.rounds) == ("block-m1", 2)

        accepted = verifiable_ba(ps, self.proposals(ps), lambda v: True, self.mu, decision)
        assert accepted.value == "forged" and accepted.leader == "m0"

    def test_missing_proposals_can_exhaust_rounds(self):
        ps = parts(3)
        out = verifiable_ba(ps, {}, lambda v: True, self.mu)
        assert out.value is None and out.rounds == 3 and out.contract_held

    def test_above_bound_dictates(self):
        ps = parts(3, byz=["m0", "m1"])
        out = verifiable_ba(ps, self.proposals(ps), lambda v: True, self.mu)
        assert out == BaOutcome(value=None, leader=None, rounds=1, contract_held=False)
        dictated = verifiable_ba(
            ps, self.proposals(ps), lambda v: False, self.mu,
            BaDecision(dictated="anything"),
        )
        # Validity is not consulted once the contract is void.
        assert dictated.value == "anything" and not dictated.contract_held

    def test_instance_weight_scales_charge(self, monkeypatch):
        # The committee BA runs over committee shards, each standing for its
        # s_min core members, so the run charges labels * s_min participants.
        sim = smoke_sim()
        views.update_views(sim, 1)
        views.apply_topology(sim, 1)
        trace = charges_before_calls(monkeypatch, agreement, "verifiable_ba")
        assert agreement.produce_block(sim, 1)
        # One committee shard: its proposal instance, then the weighted BA.
        (view,) = sim.directory.values()
        *charged, ps = trace
        assert isinstance(ps, ParticipantSet) and ps.n == 1
        assert charged == [len(view.core), ps.n * sim.cfg.s_min]


def test_shard_entropy_distinct_streams():
    master = b"m" * 32
    draws = {
        shard_entropy(master, "0", 1, b"beacon"),
        shard_entropy(master, "0", 1, b"election"),
        shard_entropy(master, "1", 1, b"beacon"),
        shard_entropy(master, "0", 2, b"beacon"),
        shard_entropy(b"n" * 32, "0", 1, b"beacon"),
    }
    assert len(draws) == 5
    assert shard_entropy(master, "0", 1, b"beacon") == shard_entropy(
        master, "0", 1, b"beacon"
    )

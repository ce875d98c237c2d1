"""Corruption budget accounting, activation delay and strategy hooks."""

from fractions import Fraction

from shardsim.adversary import (
    STRATEGIES,
    AdversaryState,
    activate_due,
    controlled_stake,
    grind_transactions,
    schedule_corruption,
)
from shardsim.crypto import Prg, keygen, tagged_hash
from shardsim.ledger import Utxo, total_stake, validate_transaction
from shardsim.protocols import BaDecision, ParticipantSet


def fresh_state(seed=b"adv-seed"):
    return AdversaryState(seed=seed)


def stake_map(stakes):
    keys = [keygen(b"victim-%d" % i) for i in range(len(stakes))]
    utxos = {
        kp.pk: Utxo(pk=kp.pk, stake=s, created_height=0)
        for kp, s in zip(keys, stakes)
    }
    return keys, utxos


def test_schedule_respects_budget_and_delay():
    keys, utxos = stake_map([1] * 10)
    adv = fresh_state()
    limit = Fraction(1, 5) * total_stake(utxos)  # budget 2
    assert schedule_corruption(adv, keys[0].pk, 5, utxos, limit, epoch_length=3)
    assert adv.pending[keys[0].pk] == 8
    assert schedule_corruption(adv, keys[1].pk, 5, utxos, limit, epoch_length=3)
    # Third single-stake target would exceed 1/5 of 10.
    assert not schedule_corruption(adv, keys[2].pk, 5, utxos, limit, epoch_length=3)
    # Dropping a pending corruption frees the budget again.
    del adv.pending[keys[0].pk]
    assert schedule_corruption(adv, keys[2].pk, 6, utxos, limit, epoch_length=3)


def test_schedule_limit_is_exact():
    # 1/3 of 10 is 10/3: a controlled stake of 3 fits and 4 does not, with
    # no rounding of the limit either way.
    keys, utxos = stake_map([1] * 10)
    adv = fresh_state()
    limit = Fraction(1, 3) * total_stake(utxos)
    assert [schedule_corruption(adv, kp.pk, 0, utxos, limit, 1) for kp in keys[:4]] == [
        True, True, True, False
    ]
    assert schedule_corruption(fresh_state(), keys[0].pk, 0, utxos, Fraction(1), 1)
    assert not schedule_corruption(fresh_state(), keys[0].pk, 0, utxos, Fraction(99, 100), 1)


def test_schedule_rejects_duplicates_and_ghosts():
    keys, utxos = stake_map([1, 1, 1])
    adv = fresh_state()
    limit = Fraction(2)  # 2/3 of 3
    assert schedule_corruption(adv, keys[0].pk, 1, utxos, limit, 2)
    assert adv.controls(keys[0].pk)
    assert not schedule_corruption(adv, keys[0].pk, 1, utxos, limit, 2)  # pending
    adv.corrupted.add(keys[1].pk)
    assert adv.controls(keys[1].pk) and not adv.controls(keys[2].pk)
    assert not schedule_corruption(adv, keys[1].pk, 1, utxos, limit, 2)  # active
    assert not schedule_corruption(adv, keygen(b"ghost").pk, 1, utxos, limit, 2)


def test_budget_counts_stake_not_heads():
    keys, utxos = stake_map([5, 1, 1, 1])
    adv = fresh_state()
    limit = Fraction(1, 2) * total_stake(utxos)  # budget 4
    assert not schedule_corruption(adv, keys[0].pk, 1, utxos, limit, 2)  # 5 > 4
    assert schedule_corruption(adv, keys[1].pk, 1, utxos, limit, 2)
    assert schedule_corruption(adv, keys[2].pk, 1, utxos, limit, 2)
    assert controlled_stake(adv, utxos) == 2


def test_controlled_stake_ignores_dead_utxos():
    keys, utxos = stake_map([2, 3])
    adv = fresh_state()
    adv.corrupted.add(keys[0].pk)
    adv.pending[keys[1].pk] = 9
    assert controlled_stake(adv, utxos) == 5
    del utxos[keys[0].pk]  # spent since
    assert controlled_stake(adv, utxos) == 3


def test_activate_due_learns_keys():
    keys, utxos = stake_map([1, 1, 1])
    keyring = {kp.pk: kp for kp in keys}
    adv = fresh_state()
    limit = Fraction(total_stake(utxos))
    schedule_corruption(adv, keys[0].pk, 5, utxos, limit, epoch_length=3)  # due 8
    schedule_corruption(adv, keys[1].pk, 6, utxos, limit, epoch_length=3)  # due 9
    assert activate_due(adv, 7, keyring) == []
    due = activate_due(adv, 8, keyring)
    assert due == [keys[0].pk]
    assert keys[0].pk in adv.corrupted and adv.keys[keys[0].pk] is keyring[keys[0].pk]
    assert keys[1].pk in adv.pending
    assert activate_due(adv, 20, keyring) == [keys[1].pk]


def test_fresh_keys_are_distinct_and_deterministic():
    a = fresh_state()
    b = fresh_state()
    seq_a = [a.fresh_key().pk for _ in range(4)]
    seq_b = [b.fresh_key().pk for _ in range(4)]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 4
    assert fresh_state(seed=b"other").fresh_key().pk != seq_a[0]


def test_prg_is_built_once_from_the_seed():
    adv = fresh_state()
    assert adv.prg is adv.prg
    expected = Prg(tagged_hash(b"adversary", b"adv-seed"))
    assert [adv.prg.draw(1000) for _ in range(5)] == [expected.draw(1000) for _ in range(5)]
    # The stream is not state: it is left out of comparison and repr.
    assert adv == fresh_state()
    assert "prg" not in repr(adv)


class TestGrindTransactions:
    def _controlled(self, stakes):
        keys, utxos = stake_map(stakes)
        adv = fresh_state()
        for kp in keys:
            adv.corrupted.add(kp.pk)
            adv.keys[kp.pk] = kp
        return adv, keys, utxos

    def test_respend_preserves_stake_and_rotates_keys(self):
        adv, keys, utxos = self._controlled([2, 1])
        txs = grind_transactions(adv, utxos)
        assert len(txs) == 2
        for tx in txs:
            assert validate_transaction(utxos, tx, 2)
        # Old pks are dropped from the controlled set, new ones added.
        for kp in keys:
            assert kp.pk not in adv.corrupted
        new_pks = {out.pk for tx in txs for out in tx.outputs}
        assert new_pks <= adv.corrupted
        assert sum(out.stake for tx in txs for out in tx.outputs) == 3

    def test_split_breaks_into_unit_stakes(self):
        adv, keys, utxos = self._controlled([3])
        txs = grind_transactions(adv, utxos, split=True)
        assert len(txs) == 1
        assert [out.stake for out in txs[0].outputs] == [1, 1, 1]
        assert len({out.pk for out in txs[0].outputs}) == 3

    def test_fraction_limits_respends(self):
        adv, keys, utxos = self._controlled([1, 1, 1, 1])
        txs = grind_transactions(adv, utxos, fraction=Fraction(1, 2))
        assert len(txs) == 2
        # The two lowest pks were respent; the others remain controlled.
        spent = sorted(kp.pk for kp in keys)[:2]
        assert all(pk not in adv.corrupted for pk in spent)

    def test_skips_unspendable(self):
        adv, keys, utxos = self._controlled([1, 1])
        del utxos[keys[0].pk]
        adv.keys.pop(keys[1].pk)
        assert grind_transactions(adv, utxos) == []


class TestStrategyHooks:
    members = tuple(b"pk-%d" % i for i in range(4))
    honest = {pk: ("txs-%d" % i, "vrf-%d" % i) for i, pk in enumerate(members)}

    def parts(self, *byzantine_slots):
        """The four members with the given slots corrupted: one keeps the
        BFT contract, two void it."""
        byzantine = frozenset(self.members[i] for i in byzantine_slots)
        return ParticipantSet(members=self.members, byzantine=byzantine)

    def test_registry(self):
        assert set(STRATEGIES) == {
            "passive", "silent", "equivocate", "grind", "worst-case-seed"
        }
        for name, cls in STRATEGIES.items():
            assert cls.name == name
        assert STRATEGIES["silent"]().name == "silent"

    def test_passive_echoes_honest_inputs(self):
        s = STRATEGIES["passive"]()
        d = s.vector_decision(self.parts(1), self.honest)
        assert d.byzantine_values == {self.members[1]: self.honest[self.members[1]]}
        assert d.dictated is None
        assert s.signs()
        assert s.beacon_choice(b"e", lambda c: 0.0, None) is None
        assert s.ba_decision(ParticipantSet(("10", "11"), frozenset()), {}) == BaDecision()
        assert s.equivocate_blocks(lambda i: object(), 4) is None
        assert s.issue_transactions(fresh_state(), {}, 3, 3) == []

    def test_silent_withholds(self):
        s = STRATEGIES["silent"]()
        d = s.vector_decision(self.parts(0), self.honest)
        assert d.byzantine_values == {} and d.dictated is None
        void = s.vector_decision(self.parts(0, 1), self.honest)
        assert void.dictated == [None] * 4
        assert not s.signs()
        ba = s.ba_decision(ParticipantSet(("10", "11"), frozenset({"10"})), {})
        assert ba.silent_leaders == frozenset({"10"})

    def test_equivocate_dictated_vectors_match_purpose(self):
        s = STRATEGIES["equivocate"]()
        joins = s.vector_decision(self.parts(0, 1), self.honest, purpose="joins")
        assert joins.dictated == [frozenset()] * 4
        proposal = s.vector_decision(self.parts(0, 1), self.honest, purpose="proposal")
        assert proposal.dictated == [self.honest[pk] for pk in self.members]
        held = s.vector_decision(self.parts(0), self.honest)
        assert held.dictated is None
        assert held.byzantine_values == {self.members[0]: self.honest[self.members[0]]}

    def test_equivocate_splits_observers(self):
        s = STRATEGIES["equivocate"]()
        crafted = s.equivocate_blocks(lambda i: "block-%d" % i, 4)
        assert crafted == {0: "block-0", 1: "block-0", 2: "block-1", 3: "block-1"}
        assert s.equivocate_blocks(lambda i: "block-%d" % i, 1) is None
        assert s.equivocate_blocks(lambda i: None, 4) is None

    def test_grind_fires_on_epoch_boundaries(self):
        s = STRATEGIES["grind"]()
        adv = fresh_state()
        keys, utxos = stake_map([1])
        adv.corrupted.add(keys[0].pk)
        adv.keys[keys[0].pk] = keys[0]
        assert s.issue_transactions(adv, utxos, height=4, epoch_length=3) == []
        txs = s.issue_transactions(adv, utxos, height=6, epoch_length=3)
        assert len(txs) == 1

    def test_worst_case_seed_maximizes_objective(self):
        s = STRATEGIES["worst-case-seed"]({"candidates": 6})
        adv = fresh_state()
        scores = {}

        def evaluate(candidate):
            # Deterministic but arbitrary objective.
            score = candidate[0] / 255.0
            scores[candidate] = score
            return score

        choice = s.beacon_choice(b"entropy", evaluate, adv.prg)
        assert len(scores) == 6
        assert choice in scores
        assert scores[choice] == max(scores.values())

    def test_worst_case_seed_deterministic_per_stream(self):
        s = STRATEGIES["worst-case-seed"]()
        a = s.beacon_choice(b"entropy", lambda c: c[0], fresh_state().prg)
        b = s.beacon_choice(b"entropy", lambda c: c[0], fresh_state().prg)
        assert a == b

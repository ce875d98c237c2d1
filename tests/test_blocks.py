"""Committee election, proposal assembly and block certification."""

from fractions import Fraction

import pytest

from shardsim.blocks import (
    Committee,
    attach_certificate,
    build_proposal,
    committee_size,
    elect_committee,
    shard_sign_block,
)
from shardsim.credentials import Credential
from shardsim.crypto import Prg, keygen, tagged_hash, vrf_eval
from shardsim.ledger import (
    BlockHeader,
    ShardSignature,
    TxOutput,
    Utxo,
    apply_transaction,
    block_seed,
    make_transaction,
    validate_transaction,
)
from shardsim.membership import ShardView
from shardsim.protocols import ParticipantSet, VectorDecision
from shardsim.sampling import sample_without_replacement


def test_committee_size_values():
    assert committee_size(0, Fraction(1, 3)) == 1
    assert committee_size(1, Fraction(1, 3)) == 4
    assert committee_size(2, Fraction(1, 3)) == 7
    assert committee_size(1, Fraction(1, 2)) == 3
    # Non-integral ratio rounds up before the +1.
    assert committee_size(2, Fraction(3, 7)) == 6
    with pytest.raises(ValueError):
        committee_size(-1, Fraction(1, 3))
    with pytest.raises(ValueError):
        committee_size(1, Fraction(0))


def test_elect_committee_matches_sampler():
    labels = ["11", "0", "10"]
    seed = tagged_hash(b"test-seed", b"elect")
    committee = elect_committee(labels, seed, 2)
    expected = sample_without_replacement(Prg(seed), sorted(labels), 2)
    assert committee == Committee(labels=tuple(expected), shortfall=False)
    # Same seed, same outcome; different seed almost surely reorders.
    assert elect_committee(labels, seed, 2) == committee


def test_elect_committee_shortfall():
    committee = elect_committee(["0", "1"], b"s" * 32, 4)
    assert committee.shortfall
    assert committee.labels == ("0", "1")


class TestBuildProposal:
    def setup_method(self):
        self.keys = [keygen(b"blk-%d" % i) for i in range(6)]
        self.parts = ParticipantSet(
            members=tuple(kp.pk for kp in self.keys[:3]), byzantine=frozenset()
        )
        self.prev = BlockHeader(
            prev_hash=b"\x00" * 32,
            height=2,
            seed=tagged_hash(b"test-seed", b"prev"),
            body_hash=b"\x00" * 32,
            vrf_proofs=(),
            proposer_label="",
            certificate=(),
        )
        # Two spendable coins owned by keys 3 and 4.
        self.state = {
            kp.pk: Utxo(pk=kp.pk, stake=1, created_height=0) for kp in self.keys[3:5]
        }
        self.vrfs = {kp.pk: vrf_eval(kp, self.prev.seed) for kp in self.keys[:3]}

    def _inputs(self, txs_by_member):
        return {
            kp.pk: (tuple(txs_by_member.get(kp.pk, ())), self.vrfs[kp.pk])
            for kp in self.keys[:3]
        }

    def test_union_and_seed(self):
        tx_a = make_transaction([self.keys[3]], [TxOutput(keygen(b"pay-a").pk, 1)])
        tx_b = make_transaction([self.keys[4]], [TxOutput(keygen(b"pay-b").pk, 1)])
        member_inputs = self._inputs({
            self.keys[0].pk: (tx_a,),
            self.keys[1].pk: (tx_a, tx_b),  # tx_a seen twice: collapses by id
        })
        block = build_proposal(
            "1", self.parts, self.prev, self.state, member_inputs, stake_cap=1
        )
        assert block is not None
        assert block.header.height == 3
        assert block.header.proposer_label == "1"
        assert {tx.tx_id for tx in block.body} == {tx_a.tx_id, tx_b.tx_id}
        assert [tx.tx_id for tx in block.body] == sorted(tx.tx_id for tx in block.body)
        assert block.header.seed == block_seed(
            [self.vrfs[kp.pk].value for kp in self.keys[:3]]
        )

    def test_conflicting_spends_smallest_id_wins(self):
        owner = self.keys[3]
        tx_x = make_transaction([owner], [TxOutput(keygen(b"pay-x").pk, 1)])
        tx_y = make_transaction([owner], [TxOutput(keygen(b"pay-y").pk, 1)])
        member_inputs = self._inputs({
            self.keys[0].pk: (tx_x,),
            self.keys[1].pk: (tx_y,),
        })
        block = build_proposal(
            "1", self.parts, self.prev, self.state, member_inputs, stake_cap=1
        )
        winner = min([tx_x, tx_y], key=lambda t: t.tx_id)
        assert [tx.tx_id for tx in block.body] == [winner.tx_id]

        # Oracle replay of the documented rule: validate in id order against
        # a running state, keep what validates.
        running = dict(self.state)
        survivors = []
        for tx in sorted([tx_x, tx_y], key=lambda t: t.tx_id):
            if validate_transaction(running, tx, 1):
                running = apply_transaction(running, tx, 3)
                survivors.append(tx.tx_id)
        assert [tx.tx_id for tx in block.body] == survivors

    def test_invalid_transactions_filtered(self):
        bad = make_transaction([self.keys[5]], [TxOutput(keygen(b"pay-z").pk, 1)])
        member_inputs = self._inputs({self.keys[0].pk: (bad,)})
        block = build_proposal(
            "1", self.parts, self.prev, self.state, member_inputs, stake_cap=1
        )
        assert block.body == ()

    def test_nulled_slots_drop_their_contribution(self):
        # Four members tolerate one corrupted; the adversary nulls its slot
        # (no value chosen), so neither its VRF value nor its transaction
        # reaches the block.
        byz = keygen(b"blk-byz")
        parts = ParticipantSet(
            members=(byz.pk,) + self.parts.members, byzantine=frozenset({byz.pk})
        )
        tx = make_transaction([self.keys[3]], [TxOutput(keygen(b"pay-n").pk, 1)])
        member_inputs = {
            **self._inputs({}), byz.pk: ((tx,), vrf_eval(byz, self.prev.seed))
        }
        block = build_proposal(
            "1", parts, self.prev, self.state, member_inputs, 1,
            decision=VectorDecision(),
        )
        assert block.body == ()
        proof_pks = [pk for pk, _ in block.header.vrf_proofs]
        assert proof_pks == list(self.parts.members)
        assert block.header.seed == block_seed(
            [self.vrfs[pk].value for pk in proof_pks]
        )

    def test_no_vrf_contribution_returns_none(self):
        # Two of three corrupted voids the vector contract; the dictated
        # all-null vector leaves nothing to seed the next block with.
        byz = frozenset({self.keys[0].pk, self.keys[1].pk})
        parts = ParticipantSet(members=self.parts.members, byzantine=byz)
        assert build_proposal("1", parts, self.prev, self.state, self._inputs({}), 1) is None


class TestShardSignBlock:
    mu_core = Fraction(1, 3)

    def setup_method(self):
        self.keys = [keygen(b"sign-%d" % i) for i in range(4)]
        self.core = tuple(
            Credential(value=kp.pk, pk=kp.pk, anchor_height=0, expiry_height=10)
            for kp in self.keys[:3]
        )
        self.view = ShardView(label="0", height=4, core=self.core, spare=())
        self.keyring = {kp.pk: kp for kp in self.keys}
        prev = BlockHeader(
            prev_hash=b"\x00" * 32, height=3, seed=tagged_hash(b"test-seed", b"p"),
            body_hash=b"\x00" * 32, vrf_proofs=(), proposer_label="", certificate=(),
        )
        inputs = {
            kp.pk: ((), vrf_eval(kp, prev.seed)) for kp in self.keys[:3]
        }
        parts = ParticipantSet(members=tuple(inputs), byzantine=frozenset())
        self.block = build_proposal("0", parts, prev, {}, inputs, 1)

    def test_stops_at_exact_quorum(self):
        signers = [c.pk for c in self.core]
        ss = shard_sign_block(
            "0", self.view, self.block, self.keyring, signers, self.mu_core, s_min=3
        )
        assert ss is not None
        assert len(ss.member_sigs) == 2  # int(1/3 * 3) + 1
        assert [pk for pk, _ in ss.member_sigs] == [kp.pk for kp in self.keys[:2]]
        assert ss.view_height == 4

    def test_unwilling_signers_yield_none(self):
        signers = [c.pk for c in self.core]
        only_one = {self.keys[0].pk: self.keys[0]}
        assert shard_sign_block(
            "0", self.view, self.block, only_one, signers, self.mu_core, 3
        ) is None
        # A core member that is not among the signers does not sign.
        assert shard_sign_block(
            "0", self.view, self.block, self.keyring, signers[:1], self.mu_core, 3
        ) is None

    def test_degraded_core_quorum_is_proportional(self):
        degraded = ShardView(label="0", height=4, core=self.core[:2], spare=())
        signers = [c.pk for c in degraded.core]
        ss = shard_sign_block(
            "0", degraded, self.block, self.keyring, signers, self.mu_core, s_min=3
        )
        assert ss is not None and len(ss.member_sigs) == 1


def test_attach_certificate_sorts_by_label():
    keys = [keygen(b"att-%d" % i) for i in range(3)]
    prev = BlockHeader(
        prev_hash=b"\x00" * 32, height=1, seed=tagged_hash(b"test-seed", b"a"),
        body_hash=b"\x00" * 32, vrf_proofs=(), proposer_label="", certificate=(),
    )
    inputs = {kp.pk: ((), vrf_eval(kp, prev.seed)) for kp in keys}
    parts = ParticipantSet(members=tuple(inputs), byzantine=frozenset())
    block = build_proposal("0", parts, prev, {}, inputs, 1)

    sig_b = ShardSignature(label="1", view_height=2, member_sigs=())
    sig_a = ShardSignature(label="0", view_height=2, member_sigs=())
    certified = attach_certificate(block, [sig_b, sig_a])
    assert [s.label for s in certified.header.certificate] == ["0", "1"]
    assert certified.body == block.body
    assert certified.header.seed == block.header.seed

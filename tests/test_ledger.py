"""Transaction and block validation over a hand-built micro-chain."""

import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import ledger
from shardsim.blocks import attach_certificate, build_proposal
from shardsim.credentials import Credential
from shardsim.crypto import (
    ZERO_DIGEST,
    Signature,
    VrfOutput,
    encode_bytes,
    encode_int,
    encode_str,
    keygen,
    sign,
    sign_batch,
    tagged_hash,
    verify_sig_batch,
    vrf_eval,
)
from shardsim.ledger import (
    Block,
    BlockHeader,
    BlockRules,
    Quorum,
    ShardSignature,
    Transaction,
    TxOutput,
    Utxo,
    Validity,
    _certificate_blob,
    _encode_io,
    _vrf_blob,
    apply_block,
    apply_transaction,
    block_seed,
    body_digest,
    count_signers,
    header_hash,
    make_genesis,
    make_transaction,
    shard_quorum,
    shard_signature_digest,
    sign_until_quorum,
    total_stake,
    tx_signing_digest,
    validate_block,
    validate_certificate,
    validate_transaction,
)
from shardsim.membership import ShardView
from shardsim.protocols import ParticipantSet

KEYS = [keygen(b"ledger-user-%d" % i) for i in range(6)]
KEY_OF = {kp.pk: kp for kp in KEYS}


def _quorum(kps, msg):
    """The quorum ``kps`` sign over ``msg``, a repeated key pair repeated."""
    return Quorum(tuple(kp.pk for kp in kps), tuple(sign_batch(kps, msg)))


def _as_quorum(entries):
    """The quorum of (pk, value) ``entries``, in order."""
    return Quorum(tuple(pk for pk, _ in entries), tuple(value for _, value in entries))


def fresh_state(stake=1, count=4, height=0):
    return {
        kp.pk: Utxo(pk=kp.pk, stake=stake, created_height=height)
        for kp in KEYS[:count]
    }


def test_validity_truthiness():
    assert Validity(True)
    assert not Validity(False, "why")
    assert Validity(False, "why").reason == "why"


def test_tx_id_binds_io_and_signatures():
    out = TxOutput(pk=b"o", stake=1)
    a = Transaction(inputs=(b"i",), outputs=(out,), signatures=())
    b = Transaction(inputs=(b"i",), outputs=(out,), signatures=())
    assert a.tx_id == b.tx_id
    c = Transaction(inputs=(b"j",), outputs=(out,), signatures=())
    assert a.tx_id != c.tx_id
    sig = sign(KEYS[0], b"m")
    d = Transaction(inputs=(b"i",), outputs=(out,), signatures=(sig,))
    assert a.tx_id != d.tx_id


def test_signing_digest_excludes_signatures():
    outs = (TxOutput(pk=b"o", stake=1),)
    digest = tx_signing_digest((KEYS[0].pk,), outs)
    tx = make_transaction([KEYS[0]], outs)
    assert tx_signing_digest(tx.inputs, tx.outputs) == digest


def test_a_transaction_keeps_its_signing_digest():
    # ``make_transaction`` encodes once and builds what the constructor
    # builds from the same fields; any built transaction, a ``replace``d
    # one too, keeps the digest its inputs and outputs give.
    outs = [TxOutput(pk=b"o" * 32, stake=1), TxOutput(pk=b"short", stake=2)]
    tx = make_transaction([KEYS[0], KEYS[1]], outs)
    rebuilt = Transaction(inputs=tx.inputs, outputs=tx.outputs, signatures=tx.signatures)
    assert vars(tx) == vars(rebuilt) and tx == rebuilt
    assert tx.signing_digest == tx_signing_digest(tx.inputs, tx.outputs)
    moved = replace(tx, outputs=tx.outputs[:1])
    assert moved.signing_digest == tx_signing_digest(moved.inputs, moved.outputs)
    assert moved.signing_digest != tx.signing_digest


def test_a_transaction_keeps_its_signature_verdict(monkeypatch):
    # The signatures are verified once per transaction, whatever the state
    # of each later check; a ``replace``d transaction is verified afresh.
    checked = []
    verify = ledger.verify_sig_batch
    monkeypatch.setattr(
        ledger, "verify_sig_batch", lambda entries, msg: checked.append(msg) or verify(entries, msg)
    )
    state = fresh_state(stake=1, count=2)
    tx = make_transaction([KEYS[0]], [TxOutput(keygen(b"kept").pk, 1)])
    size = sys.getsizeof(vars(tx))
    assert tx.signatures_valid is None
    assert validate_transaction(state, tx, 1) and validate_transaction(dict(state), tx, 1)
    assert checked == [tx.signing_digest] and tx.signatures_valid is True
    # Set in place: the instance dict keeps its shared-key form.
    assert sys.getsizeof(vars(tx)) == size
    assert validate_transaction({}, tx, 1).reason == "missing-input"
    forged = replace(tx, signatures=(sign(KEYS[1], tx.signing_digest),))
    assert forged.signatures_valid is None
    for _ in range(2):
        assert validate_transaction(state, forged, 1).reason == "bad-signature"
    assert len(checked) == 2 and forged.signatures_valid is False


def test_validate_transaction_happy_path_and_fee_burn():
    state = fresh_state(stake=2, count=2)
    # One 2-stake input pays out 1; the difference is burned, not an error.
    tx = make_transaction([KEYS[0]], [TxOutput(pk=keygen(b"n1").pk, stake=1)])
    assert validate_transaction(state, tx, stake_cap=2)
    nxt = apply_transaction(state, tx, height=3)
    assert total_stake(nxt) == total_stake(state) - 1
    assert KEYS[0].pk not in nxt
    assert nxt[keygen(b"n1").pk].created_height == 3
    # apply_transaction must not mutate its input
    assert KEYS[0].pk in state


def test_validate_transaction_reason_codes():
    state = fresh_state(stake=1, count=3)
    cap = 1
    fresh = keygen(b"fresh").pk

    no_inputs = Transaction(inputs=(), outputs=(TxOutput(fresh, 1),), signatures=())
    assert validate_transaction(state, no_inputs, cap).reason == "missing-input"

    unknown = make_transaction([keygen(b"ghost")], [TxOutput(fresh, 1)])
    assert validate_transaction(state, unknown, cap).reason == "missing-input"

    dup_in = Transaction(
        inputs=(KEYS[0].pk, KEYS[0].pk),
        outputs=(TxOutput(fresh, 1),),
        signatures=(),
    )
    assert validate_transaction(state, dup_in, cap).reason == "duplicate"

    dup_out = make_transaction(
        [KEYS[0], KEYS[1]], [TxOutput(fresh, 1), TxOutput(fresh, 1)]
    )
    assert validate_transaction(state, dup_out, cap).reason == "duplicate"

    # Paying an existing UTXO owner that is not an input would silently
    # overwrite a live coin; rejected as a duplicate.
    overwrite = make_transaction([KEYS[0]], [TxOutput(KEYS[2].pk, 1)])
    assert validate_transaction(state, overwrite, cap).reason == "duplicate"

    over_cap = make_transaction([KEYS[0]], [TxOutput(fresh, 2)])
    assert validate_transaction(state, over_cap, cap).reason == "cap"
    zero_out = make_transaction([KEYS[0]], [TxOutput(fresh, 0)])
    assert validate_transaction(state, zero_out, cap).reason == "cap"

    mint = make_transaction(
        [KEYS[0]], [TxOutput(fresh, 1), TxOutput(keygen(b"f2").pk, 1)]
    )
    assert validate_transaction(state, mint, 2).reason == "imbalance"

    unsigned = Transaction(
        inputs=(KEYS[0].pk,), outputs=(TxOutput(fresh, 1),), signatures=()
    )
    assert validate_transaction(state, unsigned, cap).reason == "bad-signature"

    wrong_signer = Transaction(
        inputs=(KEYS[0].pk,),
        outputs=(TxOutput(fresh, 1),),
        signatures=(sign(KEYS[1], tx_signing_digest((KEYS[0].pk,), (TxOutput(fresh, 1),))),),
    )
    assert validate_transaction(state, wrong_signer, cap).reason == "bad-signature"


def test_spend_own_output_back_to_self():
    # An input pk may reappear as an output: the coin is consumed first.
    state = fresh_state(stake=1, count=1)
    tx = make_transaction([KEYS[0]], [TxOutput(KEYS[0].pk, 1)])
    assert validate_transaction(state, tx, stake_cap=1)
    nxt = apply_transaction(state, tx, height=7)
    assert nxt[KEYS[0].pk].created_height == 7


def test_make_genesis_shape_and_errors():
    pairs = [(kp.pk, 1) for kp in KEYS[:4]]
    seed = tagged_hash(b"test-seed", b"g")
    genesis = make_genesis(pairs, seed, stake_cap=1)
    assert genesis.header.height == 0
    assert genesis.header.prev_hash == ZERO_DIGEST
    assert genesis.header.seed == seed
    assert genesis.header.vrf_proofs == ()
    assert genesis.header.certificate == ()
    assert genesis.header.body_hash == body_digest(genesis.body)
    state = apply_block({}, genesis)
    assert total_stake(state) == 4

    with pytest.raises(ValueError):
        make_genesis([(KEYS[0].pk, 2)], seed, stake_cap=1)
    with pytest.raises(ValueError):
        make_genesis([(KEYS[0].pk, 0)], seed, stake_cap=1)
    with pytest.raises(ValueError):
        make_genesis([(KEYS[0].pk, 1), (KEYS[0].pk, 1)], seed, stake_cap=1)


def test_block_seed_orders_and_rejects_empty():
    assert block_seed([b"a", b"b"]) != block_seed([b"b", b"a"])
    assert block_seed([b"a"]) == block_seed([b"a"])
    with pytest.raises(ValueError):
        block_seed([])


def _cred(kp, anchor=0, expiry=100):
    return Credential(
        value=tagged_hash(b"cred", kp.pk, b"view-seed"),
        pk=kp.pk,
        anchor_height=anchor,
        expiry_height=expiry,
    )


def _micro_chain():
    """Genesis plus one fully certified block proposed by the root shard.

    Rules use mu_core=1/3, s_min=3, so a certificate needs two core
    signatures; f_shard=0 means one endorsing shard suffices.
    """
    seed = tagged_hash(b"test-seed", b"chain")
    genesis = make_genesis([(kp.pk, 1) for kp in KEYS[:4]], seed, stake_cap=1)
    state = apply_block({}, genesis)

    core = tuple(_cred(kp) for kp in KEYS[:3])
    spare = (_cred(KEYS[3]),)
    view = ShardView(label="", height=1, core=core, spare=spare)
    directory = {"": view}
    rules = BlockRules(stake_cap=1, f_shard=0, mu_core=Fraction(1, 3), s_min=3)

    tx = make_transaction([KEYS[3]], [TxOutput(keygen(b"payee").pk, 1)])
    body = (tx,)
    proofs = tuple(
        (kp.pk, vrf_eval(kp, genesis.header.seed)) for kp in KEYS[:2]
    )
    header = BlockHeader(
        prev_hash=header_hash(genesis.header),
        height=1,
        seed=block_seed([out.value for _, out in proofs]),
        body_hash=body_digest(body),
        vrf_proofs=proofs,
        proposer_label="",
        certificate=(),
    )
    digest = shard_signature_digest("", header.core_digest)
    cert = (
        ShardSignature(
            label="",
            view_height=1,
            member_sigs=_quorum(KEYS[:2], digest),
        ),
    )
    certified = BlockHeader(
        prev_hash=header.prev_hash,
        height=header.height,
        seed=header.seed,
        body_hash=header.body_hash,
        vrf_proofs=header.vrf_proofs,
        proposer_label=header.proposer_label,
        certificate=cert,
    )
    block = Block(header=certified, body=body)
    return genesis, state, directory, rules, block


def test_header_digest_certificate_binding():
    genesis, _, _, _, block = _micro_chain()
    bare = BlockHeader(
        prev_hash=block.header.prev_hash,
        height=block.header.height,
        seed=block.header.seed,
        body_hash=block.header.body_hash,
        vrf_proofs=block.header.vrf_proofs,
        proposer_label=block.header.proposer_label,
        certificate=(),
    )
    # The chain-linkage hash covers the certificate; the core digest, which
    # endorsements sign and seeds derive from, must not.
    assert header_hash(bare) != header_hash(block.header)
    assert bare.core_digest == block.header.core_digest


def test_validate_block_accepts_micro_chain():
    genesis, state, directory, rules, block = _micro_chain()
    verdict = validate_block(state, directory, block, genesis.header, rules, [""])
    assert verdict, verdict.reason
    nxt = apply_block(state, block)
    assert total_stake(nxt) == 4


def _rebuild(header, **overrides):
    fields = dict(
        prev_hash=header.prev_hash,
        height=header.height,
        seed=header.seed,
        body_hash=header.body_hash,
        vrf_proofs=header.vrf_proofs,
        proposer_label=header.proposer_label,
        certificate=header.certificate,
    )
    fields.update(overrides)
    return BlockHeader(**fields)


def test_validate_block_reason_codes():
    genesis, state, directory, rules, block = _micro_chain()
    prev = genesis.header
    committee = [""]

    def check(blk, reason, committee=committee):
        verdict = validate_block(state, directory, blk, prev, rules, committee)
        assert not verdict and verdict.reason == reason, (verdict, reason)

    check(Block(_rebuild(block.header, height=2), block.body), "height")
    check(Block(_rebuild(block.header, prev_hash=ZERO_DIGEST), block.body), "linkage")
    check(Block(block.header, ()), "body-hash")
    check(Block(_rebuild(block.header, proposer_label="1"), block.body), "proposer")
    check(block, "proposer", committee=["0"])

    check(Block(_rebuild(block.header, vrf_proofs=()), block.body), "vrf")
    outsider = ((keygen(b"out").pk, vrf_eval(keygen(b"out"), prev.seed)),)
    check(Block(_rebuild(block.header, vrf_proofs=outsider), block.body), "vrf")
    doubled = block.header.vrf_proofs + (block.header.vrf_proofs[0],)
    check(Block(_rebuild(block.header, vrf_proofs=doubled), block.body), "vrf")
    stale = tuple((kp.pk, vrf_eval(kp, b"wrong-input")) for kp in KEYS[:2])
    check(Block(_rebuild(block.header, vrf_proofs=stale), block.body), "vrf")

    check(Block(_rebuild(block.header, seed=tagged_hash(b"x", b"y")), block.body), "seed")

    stripped = Block(_rebuild(block.header, certificate=()), block.body)
    check(stripped, "certificate")
    # Pre-agreement mode: the same block without endorsements is acceptable.
    early = validate_block(
        state, directory, stripped, prev, rules, committee, require_certificate=False
    )
    assert early, early.reason

    # Body perturbations invalidate the old certificate too, so exercise the
    # transaction checks in pre-agreement mode where they are reachable.
    def check_early(blk, reason):
        verdict = validate_block(
            state, directory, blk, prev, rules, committee, require_certificate=False
        )
        assert not verdict and verdict.reason == reason, (verdict, reason)

    twice = Block(
        _rebuild(block.header, body_hash=body_digest(block.body + block.body)),
        block.body + block.body,
    )
    check_early(twice, "duplicate")

    bad_tx = Transaction(
        inputs=(KEYS[3].pk,),
        outputs=(TxOutput(keygen(b"payee").pk, 1),),
        signatures=(sign(KEYS[0], b"junk"),),
    )
    forged = Block(
        _rebuild(block.header, body_hash=body_digest((bad_tx,))), (bad_tx,)
    )
    check_early(forged, "bad-signature")


def test_certificate_threshold_and_dedup():
    genesis, state, directory, rules, block = _micro_chain()
    digest = shard_signature_digest("", block.header.core_digest)

    # One signature is below the two-of-three threshold.
    thin = (
        ShardSignature(
            label="",
            view_height=1,
            member_sigs=_quorum(KEYS[:1], digest),
        ),
    )
    verdict = validate_block(
        state,
        directory,
        Block(_rebuild(block.header, certificate=thin), block.body),
        genesis.header,
        rules,
        [""],
    )
    assert verdict.reason == "certificate"

    # The same signer repeated must count once; spare members do not count.
    padded = (
        ShardSignature(
            label="",
            view_height=1,
            member_sigs=_quorum([KEYS[0], KEYS[0], KEYS[3]], digest),
        ),
    )
    verdict = validate_block(
        state,
        directory,
        Block(_rebuild(block.header, certificate=padded), block.body),
        genesis.header,
        rules,
        [""],
    )
    assert verdict.reason == "certificate"


def test_validate_certificate_counts_distinct_registered_committee_shards():
    _, _, directory, rules, block = _micro_chain()
    directory = {label: replace(directory[""], label=label) for label in ("", "0", "1", "2")}
    rules = replace(rules, f_shard=1)  # three endorsing shards
    core_digest = block.header.core_digest

    def endorsement(label):
        digest = shard_signature_digest(label, core_digest)
        return ShardSignature(label=label, view_height=1, member_sigs=_quorum(KEYS[:2], digest))

    def verdict(labels):
        cert = tuple(endorsement(label) for label in labels)
        certified = Block(_rebuild(block.header, certificate=cert), block.body)
        return validate_certificate(certified, directory, rules, ("", "0", "1"))

    assert verdict(["", "0", "1"])
    # A repeated shard counts once; a shard off the committee not at all.
    assert verdict(["", "0", "0"]).reason == "certificate"
    assert verdict(["", "0", "2"]).reason == "certificate"
    # A committee shard without a registered view cannot endorse.
    del directory["1"]
    assert verdict(["", "0", "1"]).reason == "certificate"


def test_sign_until_quorum_signs_in_order_until_quorum():
    msg = b"payload"
    keys = {kp.pk: kp for kp in KEYS[:3]}
    # KEYS[3] has no key to sign with; KEYS[2] is listed twice.
    order = [KEYS[2].pk, KEYS[3].pk, KEYS[2].pk, KEYS[0].pk, KEYS[1].pk]
    sigs = sign_until_quorum(order, keys, msg, 2)
    assert sigs == _quorum([KEYS[2], KEYS[0]], msg) and type(sigs) is Quorum
    assert count_signers(sigs, set(keys), msg) == 2
    # Short of the quorum, every willing member's signature comes back.
    short = sign_until_quorum(order, keys, msg, 4)
    assert short.pks == (KEYS[2].pk, KEYS[0].pk, KEYS[1].pk)
    # A pk that is not among the signers does not sign although its key is
    # at hand.
    held = sign_until_quorum([pk for pk in order if pk != KEYS[2].pk], keys, msg, 2)
    assert held.pks == (KEYS[0].pk, KEYS[1].pk)


def sign_until_quorum_one_by_one(signers, keys, msg, quorum):
    """The reference ``sign_until_quorum``: signers read one by one, a
    repeat or a signer without a key skipped, until ``quorum``."""
    chosen = {}
    for pk in signers:
        if len(chosen) == quorum:
            break
        if pk not in chosen and pk in keys:
            chosen[pk] = keys[pk]
    return _as_quorum([(pk, sign(kp, msg).value) for pk, kp in chosen.items()])


@settings(deadline=None)
@given(
    st.lists(st.sampled_from([kp.pk for kp in KEYS] + [b"no-key"]), max_size=14),
    st.sets(st.integers(0, len(KEYS) - 1)),
    st.integers(0, len(KEYS) + 2),
    st.booleans(),
)
def test_sign_until_quorum_equals_the_one_by_one_loop(signers, held, quorum, lazy):
    # Repeated pks take the fallback loop; a quorum above the willing set
    # comes back short.
    keys = {KEYS[i].pk: KEYS[i] for i in held}
    msg = b"payload"
    picked = sign_until_quorum(iter(signers) if lazy else signers, keys, msg, quorum)
    assert picked == sign_until_quorum_one_by_one(signers, keys, msg, quorum)
    assert type(picked) is Quorum and {type(column) for column in picked} == {tuple}


def test_sign_until_quorum_reads_a_lazy_signer_list_only_to_the_quorum():
    keys = {kp.pk: kp for kp in KEYS}
    for order in ([kp.pk for kp in KEYS], [KEYS[0].pk, KEYS[0].pk] + [kp.pk for kp in KEYS]):
        signers = iter(order)
        sigs = sign_until_quorum(signers, keys, b"payload", 3)
        assert sigs.pks == tuple(kp.pk for kp in KEYS[:3])
        assert next(signers) in (KEYS[3].pk, KEYS[4].pk)


def test_shard_quorum_measures_against_the_smaller_of_s_min_and_core():
    third = Fraction(1, 3)
    assert shard_quorum(third, 9, 9) == 4
    # A degraded core of two needs int(2/3) + 1 = 1 signature.
    assert shard_quorum(third, 3, 2) == 1
    # A core never counts for more than s_min.
    assert shard_quorum(third, 3, 12) == shard_quorum(third, 3, 3) == 2


def test_count_signers_counts_distinct_allowed_valid_signers():
    msg = b"payload"
    allowed = {KEYS[0].pk, KEYS[1].pk, KEYS[2].pk}
    sigs = [
        (KEYS[0].pk, sign(KEYS[0], msg).value),
        (KEYS[0].pk, sign(KEYS[0], msg).value),  # repeat
        (KEYS[1].pk, sign(KEYS[1], b"other").value),  # wrong payload
        (KEYS[3].pk, sign(KEYS[3], msg).value),  # outsider
        (KEYS[2].pk, sign(KEYS[0], msg).value),  # someone else's signature
    ]
    assert count_signers(_as_quorum(sigs), allowed, msg) == 1
    more = sigs + [(KEYS[1].pk, sign(KEYS[1], msg).value)]
    assert count_signers(_as_quorum(more), allowed, msg) == 2
    assert count_signers(Quorum((), ()), allowed, msg) == 0


def test_one_bad_entry_in_a_full_quorum_counts_for_nothing():
    # A quorum fresh from ``sign_until_quorum`` counts whole; a flipped
    # value, a non-bytes value equal to the signature, an outside pk and a
    # repeated pk each take the entry-by-entry count and add nothing.
    msg = b"payload"
    allowed = {kp.pk for kp in KEYS[:3]}
    full = sign_until_quorum([kp.pk for kp in KEYS[:3]], KEY_OF, msg, 3)
    assert count_signers(full, allowed, msg) == 3
    entries = list(zip(*full))
    pk, value = entries[1]
    for bad in (_flipped(value), bytearray(value), type("Bytes", (bytes,), {})(value)):
        swapped = entries[:1] + [(pk, bad)] + entries[2:]
        assert count_signers(_as_quorum(swapped), allowed, msg) == 2
    outsider = (KEYS[3].pk, sign(KEYS[3], msg).value)
    for extra in (outsider, entries[0], (KEYS[0].pk, _flipped(entries[0][1]))):
        assert count_signers(_as_quorum(entries + [extra]), allowed, msg) == 3
    assert count_signers(full, allowed - {pk}, msg) == 2


def count_signers_one_by_one(quorum, allowed_pks, msg):
    """The reference ``count_signers``: one entry at a time, in order,
    skipping outsiders and pks already counted; a value counts when it is
    ``bytes`` and equals a freshly hashed signature."""
    signers = set()
    for pk, value in zip(quorum.pks, quorum.values):
        if (
            pk in allowed_pks
            and pk not in signers
            and type(value) is bytes
            and value == tagged_hash(b"sig", pk, msg)
        ):
            signers.add(pk)
    return len(signers)


def _flipped(data):
    return bytes([data[0] ^ 1]) + data[1:]


def _signer_values(msg):
    """Every kind of value a quorum may hold for a pk, per key: its
    signature over ``msg``, one over another message, someone else's, a
    flipped one, and values that are not ``bytes``: an equal bytearray, a
    string and None."""
    entries = []
    for kp, other in zip(KEYS, KEYS[1:] + KEYS[:1]):
        good = sign(kp, msg).value
        entries += [
            (kp.pk, good),
            (kp.pk, sign(kp, b"other").value),
            (kp.pk, sign(other, msg).value),
            (kp.pk, _flipped(good)),
            (kp.pk, bytearray(good)),
            (kp.pk, "not-bytes"),
            (kp.pk, None),
        ]
    return entries


SIGNER_VALUES = _signer_values(b"payload")


@settings(deadline=None)
@given(
    st.lists(st.sampled_from(SIGNER_VALUES), max_size=12),
    st.lists(st.sampled_from(KEYS), max_size=8),
    st.sets(st.sampled_from([kp.pk for kp in KEYS])),
    st.sampled_from(["exact", "subset", "other-message", "none"]),
)
def test_count_signers_equals_the_one_by_one_loop(entries, valid_signers, allowed, issued):
    # Valid entries of distinct allowed pks alone are counted whole; a
    # repeated or outside pk, or any other value, sends the quorum to the
    # entry-by-entry count.  The expected values are read from the issued
    # record when it holds this message and these pks (all, some), and
    # hashed when it does not.
    msg = b"payload"
    valid = [(kp.pk, sign(kp, msg).value) for kp in valid_signers]
    for quorum in map(_as_quorum, (valid, entries, valid + entries, [])):
        if issued == "exact":
            sign_batch([KEY_OF[pk] for pk in quorum.pks], msg)
        elif issued == "subset":
            sign_batch(KEYS[:3], msg)
        elif issued == "other-message":
            sign_batch([KEY_OF[pk] for pk in quorum.pks], b"other")
        for allowed_pks in (allowed, set(quorum.pks)):
            assert count_signers(quorum, allowed_pks, msg) == count_signers_one_by_one(
                quorum, allowed_pks, msg
            )


def verify_sig_reference(pk, msg, sig):
    """The per-entry check, with the expected value hashed afresh."""
    return (
        type(sig) is Signature
        and isinstance(sig.value, bytes)
        and sig.signer_pk == pk
        and sig.value == tagged_hash(b"sig", pk, msg)
    )


# What a transaction input may carry: a Signature of each value above, one
# naming another signer, a bare value and no signature at all.
SIGNED_ENTRIES = [(pk, Signature(value, pk)) for pk, value in SIGNER_VALUES] + [
    entry
    for kp, other in zip(KEYS, KEYS[1:] + KEYS[:1])
    for entry in (
        (kp.pk, Signature(sign(kp, b"payload").value, other.pk)),
        (kp.pk, sign(kp, b"payload").value),
        (kp.pk, None),
    )
]


@settings(deadline=None)
@given(
    st.lists(st.sampled_from(SIGNED_ENTRIES), max_size=12),
    st.lists(st.sampled_from(KEYS), max_size=8),
    st.booleans(),
)
def test_verify_sig_batch_equals_the_per_entry_check(entries, valid_signers, issued_last):
    msg = b"payload"
    valid = [(kp.pk, sign(kp, msg)) for kp in valid_signers]
    for batch in (valid, entries, valid + entries):
        if issued_last:
            sign_until_quorum([pk for pk, _ in batch], KEY_OF, msg, 99)
        assert verify_sig_batch(batch, msg) == [
            verify_sig_reference(pk, msg, sig) for pk, sig in batch
        ]


def test_count_signers_counts_a_repeated_pk_once_whatever_its_order():
    msg = b"payload"
    good = sign(KEYS[0], msg).value
    bad = _flipped(good)
    allowed = {KEYS[0].pk}
    for values in ((bad, good), (good,) * 3):
        assert count_signers(Quorum((KEYS[0].pk,) * len(values), values), allowed, msg) == 1
    assert count_signers(Quorum((KEYS[0].pk,) * 2, (bad,) * 2), allowed, msg) == 0


@pytest.mark.parametrize("field", ["value", "proof"])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_validate_block_refuses_a_tampered_vrf_output_anywhere(position, field):
    genesis, state, directory, rules, block = _micro_chain()
    prev = genesis.header

    def verdict(proofs):
        header = _rebuild(
            block.header,
            vrf_proofs=tuple(proofs),
            seed=block_seed([out.value for _, out in proofs]),
        )
        return validate_block(
            state, directory, Block(header, block.body), prev, rules, [""],
            require_certificate=False,
        )

    proofs = [(kp.pk, vrf_eval(kp, prev.seed)) for kp in KEYS[:3]]
    assert verdict(proofs)
    pk, out = proofs[position]
    proofs[position] = (pk, out._replace(**{field: _flipped(getattr(out, field))}))
    refused = verdict(proofs)
    assert not refused and refused.reason == "vrf"


# -- replaying a body on a running state --------------------------------------

REPLAY_CAP = 3
REPLAY_POOL = [keygen(b"replay-user-%d" % i) for i in range(10)]
REPLAY_KEYS = {kp.pk: kp for kp in REPLAY_POOL}
REPLAY_CORE = [keygen(b"replay-core-%d" % i) for i in range(2)]
REPLAY_PREV = BlockHeader(
    prev_hash=ZERO_DIGEST,
    height=0,
    seed=tagged_hash(b"test-seed", b"replay"),
    body_hash=ZERO_DIGEST,
    vrf_proofs=(),
    proposer_label="",
    certificate=(),
)
REPLAY_VIEW = ShardView(
    label="", height=1, core=tuple(_cred(kp) for kp in REPLAY_CORE), spare=()
)
REPLAY_DIRECTORY = {"": REPLAY_VIEW}
REPLAY_PARTS = ParticipantSet(
    members=tuple(kp.pk for kp in REPLAY_CORE), byzantine=frozenset()
)
REPLAY_RULES = BlockRules(
    stake_cap=REPLAY_CAP, f_shard=0, mu_core=Fraction(1, 3), s_min=2
)
REPLAY_PROOFS = tuple(
    (kp.pk, vrf_eval(kp, REPLAY_PREV.seed)) for kp in REPLAY_CORE
)


def _replay_block(body):
    """Uncertified height-1 block over ``body``, proposed by the root shard."""
    header = BlockHeader(
        prev_hash=header_hash(REPLAY_PREV),
        height=1,
        seed=block_seed([out.value for _, out in REPLAY_PROOFS]),
        body_hash=body_digest(body),
        vrf_proofs=REPLAY_PROOFS,
        proposer_label="",
        certificate=(),
    )
    return Block(header=header, body=tuple(body))


def _replay_verdict(state, block):
    return validate_block(
        state, REPLAY_DIRECTORY, block, REPLAY_PREV, REPLAY_RULES, [""],
        require_certificate=False,
    )


def _replay_proposal(state, txs):
    member_inputs = {
        pk: (tuple(txs), out) for pk, out in REPLAY_PROOFS
    }
    return build_proposal(
        "", REPLAY_PARTS, REPLAY_PREV, state, member_inputs, REPLAY_CAP
    )


@st.composite
def replay_cases(draw):
    """A state and a body that is valid in order, with the stake it burns.

    Inputs are drawn from the running state, so later transactions may
    spend earlier outputs; outputs go back to an input's own key (a
    self-transfer) or to a key holding no coin, and may total less than
    the inputs (a fee burn)."""
    stakes = draw(st.lists(st.integers(1, REPLAY_CAP), min_size=1, max_size=6))
    state = {
        kp.pk: Utxo(pk=kp.pk, stake=stake, created_height=0)
        for kp, stake in zip(REPLAY_POOL, stakes)
    }
    running = dict(state)
    body, seen, burned = [], set(), 0
    for _ in range(draw(st.integers(0, 8))):
        inputs = draw(
            st.lists(st.sampled_from(sorted(running)), min_size=1, max_size=2, unique=True)
        )
        in_stake = sum(running[pk].stake for pk in inputs)
        free = [kp.pk for kp in REPLAY_POOL if kp.pk not in running or kp.pk in inputs]
        n_out = draw(st.integers(1, min(2, in_stake, len(free))))
        out_pks = draw(
            st.lists(st.sampled_from(free), min_size=n_out, max_size=n_out, unique=True)
        )
        outputs, left = [], in_stake
        for i, pk in enumerate(out_pks):
            stake = draw(st.integers(1, min(REPLAY_CAP, left - (n_out - 1 - i))))
            outputs.append(TxOutput(pk=pk, stake=stake))
            left -= stake
        tx = make_transaction([REPLAY_KEYS[pk] for pk in inputs], outputs)
        if tx.tx_id in seen:
            continue  # a repeated transaction is a duplicate, not a spend
        assert validate_transaction(running, tx, REPLAY_CAP)
        running = apply_transaction(running, tx, 1)
        seen.add(tx.tx_id)
        body.append(tx)
        burned += left
    return state, tuple(body), burned


@settings(deadline=None)
@given(replay_cases())
def test_block_replay_matches_the_per_transaction_fold(case):
    state, body, burned = case
    before = dict(state)
    block = _replay_block(body)

    applied = apply_block(state, block)
    assert state == before
    folded = state
    for tx in body:
        folded = apply_transaction(folded, tx, 1)
    assert applied == folded
    # Stake conservation: fees are burned, nothing else is created or lost.
    assert total_stake(applied) == total_stake(state) - burned

    verdict = _replay_verdict(state, block)
    assert verdict, verdict.reason
    assert state == before

    proposal = _replay_proposal(state, body)
    assert state == before
    verdict = _replay_verdict(state, proposal)
    assert verdict, verdict.reason


def test_block_spending_an_earlier_output_of_the_same_block_validates():
    payer, middle, payee = REPLAY_POOL[:3]
    state = {payer.pk: Utxo(pk=payer.pk, stake=1, created_height=0)}
    first = make_transaction([payer], [TxOutput(middle.pk, 1)])
    second = make_transaction([middle], [TxOutput(payee.pk, 1)])

    verdict = _replay_verdict(state, _replay_block((first, second)))
    assert verdict, verdict.reason
    assert apply_block(state, _replay_block((first, second))) == {
        payee.pk: Utxo(pk=payee.pk, stake=1, created_height=1)
    }
    # In the other order the second coin does not exist yet.
    assert _replay_verdict(state, _replay_block((second, first))).reason == "missing-input"
    assert state == {payer.pk: Utxo(pk=payer.pk, stake=1, created_height=0)}


def test_two_spends_of_one_input_are_rejected_and_filtered():
    payer, left, right = REPLAY_POOL[:3]
    state = {payer.pk: Utxo(pk=payer.pk, stake=1, created_height=0)}
    spends = [
        make_transaction([payer], [TxOutput(left.pk, 1)]),
        make_transaction([payer], [TxOutput(right.pk, 1)]),
    ]
    spends.sort(key=lambda tx: tx.tx_id)

    verdict = _replay_verdict(state, _replay_block(spends))
    assert not verdict and verdict.reason == "missing-input"
    proposal = _replay_proposal(state, spends)
    assert proposal.body == (spends[0],)
    assert _replay_verdict(state, proposal)


# -- header digests ------------------------------------------------------------


def reference_core_digest(header):
    """The field encoding ``BlockHeader.core_digest`` had before it was cached."""
    vrf = [encode_int(len(header.vrf_proofs))]
    for pk, out in header.vrf_proofs:
        vrf += [encode_bytes(pk), encode_bytes(out.value), encode_bytes(out.proof)]
    return tagged_hash(
        b"block-core",
        encode_bytes(header.prev_hash),
        encode_int(header.height),
        encode_bytes(header.seed),
        encode_bytes(header.body_hash),
        encode_str(header.proposer_label),
        b"".join(vrf),
    )


def reference_header_hash(header):
    """The field encoding ``header_hash`` had before it was cached."""
    cert = [encode_int(len(header.certificate))]
    for ss in sorted(header.certificate, key=lambda s: s.label):
        cert += [encode_str(ss.label), encode_int(ss.view_height), encode_int(len(ss.member_sigs.pks))]
        for pk, value in sorted(zip(*ss.member_sigs), key=lambda entry: entry[0]):
            cert += [encode_bytes(pk), encode_bytes(value), encode_bytes(pk)]
    return tagged_hash(b"block", reference_core_digest(header), b"".join(cert))


HEADER_KEYS = [keygen(b"hdr-%d" % i) for i in range(3)]


def frozen_header():
    return BlockHeader(
        prev_hash=tagged_hash(b"test", b"prev"),
        height=7,
        seed=tagged_hash(b"test", b"seed"),
        body_hash=tagged_hash(b"test", b"body"),
        vrf_proofs=tuple((kp.pk, vrf_eval(kp, b"prev-seed")) for kp in HEADER_KEYS),
        proposer_label="01",
        certificate=(),
    )


def frozen_certificate(core_digest):
    def endorse(label, view_height, keys):
        msg = shard_signature_digest(label, core_digest)
        return ShardSignature(label, view_height, _quorum(keys, msg))

    # Out of label order: the encoding sorts it.
    return (endorse("1", 6, HEADER_KEYS[1:]), endorse("01", 7, HEADER_KEYS[:1]))


def test_header_digests_are_frozen():
    header = frozen_header()
    core = "86922572810222b45d09a631304d7901221fe6ddd60a65620c22f9e1dffe336a"
    assert header.core_digest.hex() == core
    assert header_hash(header).hex() == (
        "067f6170dc1b1fb6449325bc0ffeefd87e00d73cf8669f02751443572df735e9"
    )
    certified = replace(header, certificate=frozen_certificate(header.core_digest))
    assert certified.core_digest.hex() == core
    assert header_hash(certified).hex() == (
        "4aecdf024e92ba525aed7e5fc6d6ac3835c1a463b31ed89f548eab6b09fc10a0"
    )


def test_replaced_header_gets_fresh_digests():
    header = frozen_header()
    core, full = header.core_digest, header_hash(header)
    for changed in (
        replace(header, height=8),
        replace(header, seed=b"other"),
        replace(header, vrf_proofs=header.vrf_proofs[:1]),
        replace(header, proposer_label="1"),
    ):
        assert changed.core_digest == reference_core_digest(changed) != core
        assert header_hash(changed) == reference_header_hash(changed) != full
    # A certificate binds the header hash alone; attach_certificate builds
    # a new header, which must not keep the uncertified one's hash.
    certified = attach_certificate(Block(header, ()), frozen_certificate(core)).header
    assert certified.core_digest == core
    assert header_hash(certified) == reference_header_hash(certified) != full
    # The original keeps its own digests.
    assert (header.core_digest, header_hash(header)) == (core, full)


def test_certified_header_carries_the_core_digest_it_would_compute():
    header = frozen_header()
    # The uncertified header's full digest is cached too, and must not be
    # carried into the certified one.
    full = header_hash(header)
    certified = attach_certificate(Block(header, ()), frozen_certificate(header.core_digest)).header
    assert "core_digest" in vars(certified) and "digest" not in vars(certified)
    fresh = replace(certified)
    assert "core_digest" not in vars(fresh)
    assert certified.core_digest == fresh.core_digest == reference_core_digest(fresh)
    assert header_hash(certified) == reference_header_hash(fresh) != full


digests = st.binary(max_size=40)
heights = st.integers(-(2**63), 2**63 - 1)
labels = st.text(max_size=6)
vrf_proofs = st.lists(
    st.tuples(digests, st.builds(VrfOutput, value=digests, proof=digests)), max_size=4
)
shard_signatures = st.builds(
    ShardSignature,
    label=labels,
    view_height=heights,
    member_sigs=st.lists(st.tuples(digests, digests), max_size=3).map(_as_quorum),
)
headers = st.builds(
    BlockHeader,
    prev_hash=digests,
    height=heights,
    seed=digests,
    body_hash=digests,
    vrf_proofs=vrf_proofs.map(tuple),
    proposer_label=labels,
    certificate=st.lists(shard_signatures, max_size=3).map(tuple),
)


@settings(deadline=None)
@given(headers)
def test_header_digests_are_the_field_encoding(header):
    # Twice each: the second call reads the cached value.
    for _ in range(2):
        assert header.core_digest == reference_core_digest(header)
        assert header_hash(header) == reference_header_hash(header)


def _vrf_blob_loop(vrf_proofs):
    """``_vrf_blob`` as a loop over ``encode_bytes``, before runs of
    digest-wide parts were packed."""
    parts = [encode_int(len(vrf_proofs))]
    for pk, out in vrf_proofs:
        parts += [encode_bytes(pk), encode_bytes(out.value), encode_bytes(out.proof)]
    return b"".join(parts)


def _certificate_blob_loop(certificate):
    """``_certificate_blob`` as a loop over ``encode_bytes``, like
    ``_vrf_blob_loop``."""
    parts = [encode_int(len(certificate))]
    for ss in sorted(certificate, key=lambda s: s.label):
        parts += [encode_str(ss.label), encode_int(ss.view_height), encode_int(len(ss.member_sigs.pks))]
        for pk, value in sorted(zip(*ss.member_sigs), key=lambda entry: entry[0]):
            parts += [encode_bytes(pk), encode_bytes(value), encode_bytes(pk)]
    return b"".join(parts)


def _pair_certificate_blob(certificate):
    """The certificate framing of endorsements kept as (pk, Signature)
    pairs, one per signer: each pair framed as pk, value and signer pk."""
    parts = [encode_int(len(certificate))]
    for label, view_height, pairs in sorted(certificate, key=lambda s: s[0]):
        parts += [encode_str(label), encode_int(view_height), encode_int(len(pairs))]
        for pk, sig in sorted(pairs, key=lambda ps: ps[0]):
            parts += [encode_bytes(pk), encode_bytes(sig.value), encode_bytes(sig.signer_pk)]
    return b"".join(parts)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(labels, heights, st.lists(st.sampled_from(KEYS), max_size=8)),
        max_size=3,
    ),
    st.integers(0, 8),
)
def test_a_signed_certificate_frames_as_its_signature_pairs(endorsements, quorum):
    # Every signed quorum frames to the bytes its (pk, Signature) pairs
    # framed to, so every header digest stays what it was.
    certificate, pairs = [], []
    for label, view_height, signers in endorsements:
        msg = shard_signature_digest(label, b"core")
        sigs = sign_until_quorum([kp.pk for kp in signers], KEY_OF, msg, quorum)
        certificate.append(ShardSignature(label, view_height, sigs))
        pairs.append((label, view_height, [(pk, sign(KEY_OF[pk], msg)) for pk in sigs.pks]))
    assert _certificate_blob(certificate) == _pair_certificate_blob(pairs)


# Digest-wide parts are packed; parts of every other width keep the framing
# of ``encode_bytes``, alone or next to packed ones.
framed_parts = st.sampled_from([0, 31, 32, 32, 33, 64]).flatmap(
    lambda width: st.binary(min_size=width, max_size=width)
)
framed_proofs = st.lists(
    st.tuples(framed_parts, st.builds(VrfOutput, value=framed_parts, proof=framed_parts)),
    max_size=5,
)
framed_certificates = st.lists(
    st.builds(
        ShardSignature,
        label=labels,
        view_height=heights,
        member_sigs=st.lists(st.tuples(framed_parts, framed_parts), max_size=4).map(_as_quorum),
    ),
    max_size=3,
)


@settings(deadline=None)
@given(framed_proofs, framed_certificates, st.lists(framed_parts, min_size=1, max_size=5))
def test_header_runs_frame_as_the_encode_bytes_loops(vrf_proofs, certificate, values):
    assert _vrf_blob(vrf_proofs) == _vrf_blob_loop(vrf_proofs)
    assert _certificate_blob(certificate) == _certificate_blob_loop(certificate)
    assert block_seed(values) == tagged_hash(b"seed", *values)


def _encode_io_loop(inputs, outputs):
    """A transaction's inputs and outputs framed part by part."""
    parts = [encode_int(len(inputs))]
    parts.extend(encode_bytes(pk) for pk in inputs)
    parts.append(encode_int(len(outputs)))
    for out in outputs:
        parts.append(encode_bytes(out.pk))
        parts.append(encode_int(out.stake))
    return b"".join(parts)


@settings(deadline=None)
@given(
    st.lists(framed_parts, max_size=4),
    st.lists(st.builds(TxOutput, pk=framed_parts, stake=heights), max_size=5),
)
def test_transaction_io_frames_as_the_encode_bytes_loop(inputs, outputs):
    assert _encode_io(inputs, outputs) == _encode_io_loop(inputs, outputs)
    tx = Transaction(tuple(inputs), tuple(outputs), ())
    assert tx.tx_id == tagged_hash(b"tx", _encode_io_loop(inputs, outputs), b"")


def test_genesis_frames_and_applies_as_the_public_constructors():
    pks = [keygen(b"genesis-%d" % i).pk for i in range(5)]
    genesis = make_genesis([(pk, 1 + i % 3) for i, pk in enumerate(pks)], b"s" * 32, 3)
    (tx,) = genesis.body
    outputs = tuple(TxOutput(pk, 1 + i % 3) for i, pk in enumerate(pks))
    # Named tuples equal plain tuples, so the record types are checked too.
    assert tx.outputs == outputs and {type(o) for o in tx.outputs} == {TxOutput}
    assert tx.tx_id == Transaction((), outputs, ()).tx_id
    applied = apply_transaction({}, tx, -3)
    assert applied == {o.pk: Utxo(o.pk, o.stake, -3) for o in outputs}
    assert {type(u) for u in applied.values()} == {Utxo}

"""Hash primitives, deterministic keys, and the Prg/sampler pair."""

import itertools
import math
from collections import namedtuple
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import crypto
from shardsim.credentials import Credential, derive_credential, derive_credentials
from shardsim.crypto import (
    DIGEST_LEN,
    KeyPair,
    Prg,
    Signature,
    VrfOutput,
    encode_bytes,
    encode_int,
    encode_str,
    hash_digest,
    keygen,
    keygen_batch,
    new_records,
    sign,
    sign_batch,
    tagged_hash,
    tagged_hash_batch,
    tagged_hash_framed,
    tagged_hash_indexed,
    verify_sig,
    verify_sig_batch,
    vrf_eval,
    vrf_eval_batch,
    vrf_verify,
    vrf_verify_batch,
)
from shardsim.ledger import Transaction, TxOutput, Utxo, count_signers, make_genesis, spend
from shardsim.sampling import sample_without_replacement


def test_encode_bytes_length_prefix():
    assert encode_bytes(b"") == b"\x00\x00\x00\x00"
    assert encode_bytes(b"ab") == b"\x00\x00\x00\x02ab"


def test_encode_int_width_and_sign():
    assert encode_int(0) == b"\x00" * 8
    assert encode_int(1) == b"\x00" * 7 + b"\x01"
    assert encode_int(-1) == b"\xff" * 8
    assert len(encode_int(2**40)) == 8


def test_encode_str_matches_bytes_encoding():
    assert encode_str("hi") == encode_bytes(b"hi")


def test_hash_digest_is_sha256():
    import hashlib

    assert hash_digest(b"x") == hashlib.sha256(b"x").digest()
    assert len(hash_digest(b"")) == DIGEST_LEN


def test_tagged_hash_domain_separation():
    # Same payload under different tags must diverge, and the framing must
    # keep ("ab","c") distinct from ("a","bc").
    assert tagged_hash(b"a", b"x") != tagged_hash(b"b", b"x")
    assert tagged_hash(b"t", b"ab", b"c") != tagged_hash(b"t", b"a", b"bc")
    assert tagged_hash(b"t", b"ab", b"c") != tagged_hash(b"t", b"abc")
    assert tagged_hash(b"t") != tagged_hash(b"t", b"")


@given(st.binary(min_size=1, max_size=8), st.lists(st.binary(max_size=100), max_size=6))
def test_tagged_hash_framed_is_tagged_hash_of_the_parts(tag, parts):
    # A tag first seen here is primed here, for either function.
    framed = b"".join(map(encode_bytes, parts))
    assert tagged_hash_framed(tag, framed) == tagged_hash(tag, *parts)


def test_tagged_hash_deterministic():
    assert tagged_hash(b"t", b"p") == tagged_hash(b"t", b"p")


def test_keygen_deterministic_and_pk_derived():
    kp = keygen(b"seed-material")
    again = keygen(b"seed-material")
    other = keygen(b"other")
    assert kp == again
    assert kp.pk == tagged_hash(b"pk", kp.sk)
    assert kp.pk != other.pk


def test_sign_verify_roundtrip():
    kp = keygen(b"signer")
    sig = sign(kp, b"msg")
    assert sig.signer_pk == kp.pk
    assert verify_sig(kp.pk, b"msg", sig)
    assert not verify_sig(kp.pk, b"other", sig)
    assert not verify_sig(keygen(b"x").pk, b"msg", sig)


class EqualToAll:
    def __eq__(self, other):
        return True


def test_verify_sig_rejects_malformed_input():
    kp = keygen(b"signer")
    assert not verify_sig(kp.pk, b"msg", None)
    assert not verify_sig(kp.pk, b"msg", b"raw-bytes")
    assert not verify_sig(kp.pk, b"msg", Signature(value="not-bytes", signer_pk=kp.pk))
    # A value that claims equality with anything is still not bytes.
    assert not verify_sig(kp.pk, b"msg", Signature(value=EqualToAll(), signer_pk=kp.pk))
    forged = Signature(value=tagged_hash(b"sig", kp.pk, b"msg"), signer_pk=b"wrong")
    assert not verify_sig(kp.pk, b"msg", forged)


def test_vrf_roundtrip_and_rejection():
    kp = keygen(b"vrf")
    out = vrf_eval(kp, b"input")
    assert vrf_verify(kp.pk, b"input", out)
    assert not vrf_verify(kp.pk, b"other", out)
    assert not vrf_verify(keygen(b"z").pk, b"input", out)
    assert not vrf_verify(kp.pk, b"input", None)
    assert not vrf_verify(kp.pk, b"input", VrfOutput(value=out.value, proof=b"bad"))
    assert not vrf_verify(kp.pk, b"input", VrfOutput(value=b"bad", proof=out.proof))
    assert not vrf_verify(kp.pk, b"input", VrfOutput(value=EqualToAll(), proof=out.proof))


def test_vrf_value_differs_per_key_and_input():
    a = vrf_eval(keygen(b"a"), b"in")
    b = vrf_eval(keygen(b"b"), b"in")
    c = vrf_eval(keygen(b"a"), b"in2")
    assert len({a.value, b.value, c.value}) == 3


def test_prg_rejects_bad_seed():
    with pytest.raises(ValueError):
        Prg(b"")
    with pytest.raises(ValueError):
        Prg("string")  # type: ignore[arg-type]


def test_prg_seed_normalization():
    # Short seeds are hashed to digest length; a digest-length seed is used as is.
    short = Prg(b"s")
    assert short.state == hash_digest(b"s")
    exact = Prg(b"\x01" * DIGEST_LEN)
    assert exact.state == b"\x01" * DIGEST_LEN


def test_prg_deterministic_stream():
    a = Prg(b"stream")
    b = Prg(b"stream")
    assert [a.draw(1000) for _ in range(64)] == [b.draw(1000) for _ in range(64)]


def test_prg_draw_bounds():
    prg = Prg(b"bounds")
    with pytest.raises(ValueError):
        prg.draw(0)
    assert prg.draw(1) == 1
    for n in (2, 3, 7, 1000):
        for _ in range(200):
            v = prg.draw(n)
            assert 1 <= v <= n


class _ShortStream(Prg):
    """A Prg that fails rather than hash past its eighth block, so a draw
    that rejects every word fails instead of looping forever."""

    def _block(self, i):
        assert i < 8, "every word of 8 blocks was rejected"
        return super()._block(i)


@pytest.mark.parametrize("n", [2**64 + 1, 2**65])
def test_prg_draw_rejects_ranges_past_the_word_space(n):
    # The rejection bound of such a range is 0, so it would reject every word.
    with pytest.raises(ValueError):
        _ShortStream(b"x").draw(n)
    with pytest.raises(ValueError):
        _ShortStream(b"x").draws(n, 1)


@pytest.mark.parametrize("n, count", [(0, 0), (-1, 0), (5, -1), (5, 6), (1, 2)])
def test_prg_draws_rejects_bad_ranges_and_counts(n, count):
    prg = Prg(b"x")
    with pytest.raises(ValueError):
        prg.draws(n, count)
    assert (prg.counter, prg._words) == (0, [])


def test_prg_draw_one_consumes_nothing():
    a = Prg(b"lazy")
    a.draw(1)
    b = Prg(b"lazy")
    assert a.draw(10**6) == b.draw(10**6)


def test_prg_uniformity_chi_square():
    # 1e5 draws over [1, 8]; chi-square with 7 dof should not reject at 0.001.
    from scipy.stats import chi2

    prg = Prg(b"uniformity-check")
    n, cells = 100_000, 8
    counts = [0] * cells
    for _ in range(n):
        counts[prg.draw(cells) - 1] += 1
    expected = n / cells
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, cells - 1), counts


def test_sampler_is_a_permutation_when_exhaustive():
    prg = Prg(b"perm")
    items = list(range(20))
    picked = sample_without_replacement(prg, items, 20)
    assert sorted(picked) == items
    assert picked != items  # astronomically unlikely to come out sorted


def test_sampler_deterministic_and_prefix_consistent():
    # Drawing k items is the prefix of drawing k+1 with the same seed.
    first = sample_without_replacement(Prg(b"prefix"), list(range(50)), 5)
    longer = sample_without_replacement(Prg(b"prefix"), list(range(50)), 6)
    assert longer[:5] == first


def test_sampler_overdraw_raises():
    with pytest.raises(ValueError):
        sample_without_replacement(Prg(b"x"), [1, 2, 3], 4)


def test_sampler_matches_pop_rule():
    # Independent replay of the documented rule: draw j in [1, remaining],
    # remove the j-th remaining element.
    seed = b"replay"
    items = ["a", "b", "c", "d", "e", "f", "g"]
    expected_prg = Prg(seed)
    pool = list(items)
    expected = []
    for _ in range(4):
        j = expected_prg.draw(len(pool))
        expected.append(pool.pop(j - 1))
    assert sample_without_replacement(Prg(seed), items, 4) == expected


def _state(prg):
    return prg.counter, list(prg._words)


def _sequential(prg, n, count):
    return [prg.draw(n - i) for i in range(count)]


SEEDS = st.binary(min_size=1, max_size=40)
# Small ranges, ranges that end in draw(1), and the rejection-heavy and
# full-word ranges at the top of the word space.
RANGES = st.one_of(
    st.integers(1, 300),
    st.sampled_from([2**63 + 1, 2**63 + 7, 2**64 - 1, 2**64]),
    st.integers(1, 2**64),
)


@st.composite
def batches(draw):
    n = draw(RANGES)
    return n, draw(st.integers(0, min(n, 40)))


@settings(deadline=None)
@given(SEEDS, st.lists(st.tuples(st.booleans(), batches()), min_size=1, max_size=8))
def test_prg_draws_equal_sequential_draws(seed, ops):
    # Any interleaving of draw and draws leaves the stream where the
    # single draws alone leave it, value for value and word for word.
    batched, single = Prg(seed), Prg(seed)
    for as_single_draw, (n, count) in ops:
        if as_single_draw:
            assert batched.draw(n) == single.draw(n)
        else:
            assert batched.draws(n, count) == _sequential(single, n, count)
        assert _state(batched) == _state(single)


@settings(deadline=None)
@given(SEEDS, st.integers(0, 7), st.integers(1, 60))
def test_prg_draws_whole_and_empty_batches(seed, skip, n):
    # count = n ends in draw(1), which consumes no word; count = 0 draws
    # nothing.  skip words first so the batch starts mid-block.
    batched, single = Prg(seed), Prg(seed)
    for prg in (batched, single):
        for _ in range(skip):
            prg.draw(2**64)
    assert batched.draws(n, 0) == []
    assert _state(batched) == _state(single)
    whole = batched.draws(n, n)
    assert whole == _sequential(single, n, n)
    assert whole[-1] == 1
    assert _state(batched) == _state(single)
    assert batched.draw(2**64) == single.draw(2**64)


@settings(deadline=None)
@given(SEEDS, st.sampled_from([2**63 + 1, 2**64]), st.integers(1, 24))
def test_prg_draws_at_the_top_of_the_word_space(seed, n, count):
    # 2**63 + 1 rejects about half the words, and 2**64 takes the raw word
    # at its first draw: both go through the single-draw replay.
    batched, single = Prg(seed), Prg(seed)
    assert batched.draws(n, count) == _sequential(single, n, count)
    assert _state(batched) == _state(single)


@settings(deadline=None)
@given(SEEDS, st.integers(0, 5), st.data())
def test_sampler_matches_pop_rule_replay(seed, skip, data):
    # Independent replay of the documented rule with single draws: draw j
    # in [1, remaining], remove the j-th remaining element.
    size = data.draw(st.integers(0, 80))
    count = data.draw(st.integers(0, size))
    sampled, replayed = Prg(seed), Prg(seed)
    for prg in (sampled, replayed):
        for _ in range(skip):
            prg.draw(2**64)
    pool = list(range(size))
    expected = [pool.pop(replayed.draw(len(pool)) - 1) for _ in range(count)]
    assert sample_without_replacement(sampled, range(size), count) == expected
    assert _state(sampled) == _state(replayed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sampler_unbiased_first_pick(k):
    # Every ordered k-draw from a pool of 5 should be equally likely:
    # chi-square over the 5, 20 or 60 outcomes, on fixed seeds.
    from scipy.stats import chi2

    outcomes = list(itertools.permutations(range(5), k))
    trials = max(20_000, 1_000 * len(outcomes))
    counts = dict.fromkeys(outcomes, 0)
    for i in range(trials):
        prg = Prg(b"first-pick-%d" % i)
        counts[tuple(sample_without_replacement(prg, range(5), k))] += 1
    expected = trials / len(outcomes)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, len(outcomes) - 1), counts


def test_word_stream_rejection_keeps_uniformity_near_boundary():
    # n just below a power of two exercises the rejection path; mean of
    # many draws should sit near (n+1)/2 within a loose CLT band.
    prg = Prg(b"rejection")
    n = (1 << 63) - 25
    draws = [prg.draw(n) for _ in range(2000)]
    mean = sum(draws) / len(draws)
    center = (n + 1) / 2
    band = 4 * n / math.sqrt(12 * len(draws))
    assert abs(mean - center) < band


# Frozen stream.  Every value below was taken from the hash-counter
# definition of the stream (block i = tagged_hash(b"prg", state,
# encode_int(i)), four big-endian 64-bit words per block, drawn in order)
# before the primed-prefix implementation replaced it.  A change to any of
# them changes every election, every digest and every Monte Carlo estimate.

FROZEN_SEED32 = bytes(range(32))
FROZEN_SHORT_SEED = b"frozen-stream"

# One 32-byte block per line: the four raw words, draw(2**64) - 1, in order.
FROZEN_BLOCKS = {
    FROZEN_SEED32: (
        "b7e6fae76e1f8fe254c1300d9fb239139ccbdec5763b17eed814365a826017ab",
        "7d7c94af03c870f740dde32311b4e5428134ed37b19240f83430550903f80bac",
        "1ed35b411b2b154ee3346b7c501e70f143a07071f6670d2045b35e8c1185b6a8",
        "92e4cfc4d8f750deae789fae6ac817c746249ec26242d8d150078ddad6d99469",
        "3d75dbdfc31802a51375b17a9606a48bb7232e9991578b4b87b304d2a38a1bce",
        "21375ec0f95e107c0e43c131216ebe0990979be11b69039e3974ca8debda7f8f",
        "9bfad47d3c51c364e066ea211812f2f939a5a453c795275c216a3a7f79af8f40",
        "63335caeeb78feaf80b7fe217fe32bc4842ad30a86573eb5595e2deb207f8a8a",
        "0ca6514ad2481ab24512de79ea80947ab11675cd4e03a44cc25298636ac8c514",
        "564a7d7c83e78df4ecbc91ca6541e5ea0ac366e2d18dd6c46363cc2f20495cfb",
        "d2799625c4b9f4c488583dcb001fc607e6d500ded0aecf7dc8525639b0101af2",
        "70a448dab9dd85664d2ffc1c2d47b7a17e121fa7bb77cda3a1c558d59c2cb64b",
    ),
    FROZEN_SHORT_SEED: (
        "71552c67fe9bb61ccc66da92ce19f8813f64220b4b8bf3286cb52de1084f0a8c",
        "997dcd5e3f33241caba5803cbad960e275373a9985feab941551e492b0ad5558",
        "e56edd3ad3a52f307f6670e36a1e27a6bbc858ef31d7eb1a43fdf1a4f4073089",
        "940281681df6098b6a192eb605a2aa3cfbc8a0e9465a14211e232804bcafdee8",
        "47b2bb0c279aa1a9f5413a8ff733c37be5b8052ce98ae04897cfa089dacaae34",
        "a3d814ede0e8e9bdf1feed264ca612b16a47aca88310e7668cc21ff6b5046774",
        "6ab41327d225922e82b05df91e24f5a02232213e9e40ceddcf0d191743a01aaa",
        "6c04fe1ee34f52c3542c1ad8231588b2d63893deebaddb352c1eefbbd1467a41",
        "f0b40f1205ea21a12c449b8747f9f5fe7ac62c3cd74d8922d934f47b4dce06de",
        "dcaa6d999058425793f9ba4239e6239d2ad71f0a3225943ca2e6a33594f79061",
        "fbb883aa5e24a1a2ea1937183e37a9a17984f78a80b4ca7251ad2736ddd2e04f",
        "5cdb4856b33d79ce5c4d2795fb345a7b51b154e237ee5ed3d1e1db8971b58ab3",
    ),
}

FROZEN_LONG_PART = bytes(range(256)) * 300  # needs three bytes of length prefix

FROZEN_TAGGED = (
    ((b"prg",), "750dd41ea9dbaa12c14ed743a20607283b7c8ecd0734c7927790c8088d5a21f3"),
    ((b"cred", b""), "a531f80499d8567aba6d55e972243d55dfe459652f96063af89d2d0be5afb41d"),
    ((b"view", b"a", b"bc"), "6bd543ba369fcde558b9f970dae1c5cad6c82aac1b41b8e09aca033d04619310"),
    ((b"sig", FROZEN_LONG_PART), "ec41c62c416bd618c032708c5946b1acc1124494051a424b3d02d817820e8987"),
    ((b"", b"x"), "2474db85d6031d26cb9a5e99fe5b33320c184bbbda1c1f7e30f9d8d929d23414"),
    ((b"vrf-proof", b"k", b"", b"v"), "3889a62e776ef3aec313537578e0bb808f507ec8abe5937ab444de6e62dad2e8"),
)


def _raw_word(prg):
    return prg.draw(2**64) - 1  # n = 2**64 rejects nothing: the word itself


def _block_hex(prg):
    return "".join(f"{_raw_word(prg):016x}" for _ in range(4))


@pytest.mark.parametrize("seed", [FROZEN_SEED32, FROZEN_SHORT_SEED], ids=["32-byte", "short"])
def test_prg_raw_words_are_frozen(seed):
    prg = Prg(seed)
    assert [_block_hex(prg) for _ in range(12)] == list(FROZEN_BLOCKS[seed])
    assert prg.counter == 12


FROZEN_REJECTIONS = [
    7941037187888499752, 1314184918258023147, 8670118317200653415,
    7482466225348390732, 4169529337789787684, 4301594123999649097,
    6235968660900811583, 7825336965563449823, 4095238952875600759,
    4127336412770920001, 3471536396562946991, 8360443531228833405,
    8666552507147261389, 1601588329143952246, 6384172086410894462,
    3446866585744620125,
]


def test_prg_rejection_sequence_is_frozen():
    # n = 2**63 + 1 rejects every word at or above 2**63 + 1: about half.
    prg = Prg(b"rejection-frozen")
    assert [prg.draw(2**63 + 1) for _ in range(16)] == FROZEN_REJECTIONS
    assert prg.counter == 8  # 32 words for 16 draws


def test_prg_draws_rejection_sequence_is_frozen():
    # The batch form falls back to single draws whenever a word may be
    # rejected, so it must land on the same frozen values and state.
    prg = Prg(b"rejection-frozen")
    assert [prg.draws(2**63 + 1, 1)[0] for _ in range(16)] == FROZEN_REJECTIONS
    assert prg.counter == 8


@pytest.mark.parametrize(
    "counter, block",
    [
        # Past 2**32: a 4-byte counter would wrap here.
        (2**32 + 7, "4ace800b8c0b0be1d76ee6dccd878ff8f2f5c86d63455b3be13d79e5943636d8"),
        # Unreachable by drawing, but pins the counter as a signed encode_int.
        (-3, "05444062936df67b98e37a69122080b9309c6b0eb2f574f9dd9b63e6628d464a"),
    ],
    ids=["past-2**32", "negative"],
)
def test_prg_block_at_counter_is_frozen(counter, block):
    prg = Prg(FROZEN_SEED32)
    prg.counter = counter
    assert _block_hex(prg) == block
    assert prg.counter == counter + 1


def test_sampler_output_is_frozen():
    assert sample_without_replacement(Prg(b"sample-frozen"), range(100), 12) == [
        49, 17, 75, 61, 89, 23, 65, 20, 21, 96, 59, 92,
    ]


@pytest.mark.parametrize(
    "args, digest",
    FROZEN_TAGGED,
    ids=["zero-parts", "empty-part", "two-parts", "long-part", "empty-tag", "three-parts"],
)
def test_tagged_hash_digests_are_frozen(args, digest):
    assert tagged_hash(*args).hex() == digest


def test_interleaved_streams_and_tags_share_no_state():
    # Two tags and two generators in lockstep: every call must give the
    # value it gives alone, so no primed hash state is ever updated in place.
    cred_args, cred_digest = FROZEN_TAGGED[1]
    sig_args, sig_digest = FROZEN_TAGGED[3]
    a, b = Prg(FROZEN_SEED32), Prg(FROZEN_SHORT_SEED)
    blocks_a, blocks_b = [], []
    for _ in range(12):
        assert tagged_hash(*cred_args).hex() == cred_digest
        blocks_a.append(_block_hex(a))
        assert tagged_hash(*sig_args).hex() == sig_digest
        blocks_b.append(_block_hex(b))
    assert blocks_a == list(FROZEN_BLOCKS[FROZEN_SEED32])
    assert blocks_b == list(FROZEN_BLOCKS[FROZEN_SHORT_SEED])
    # A second generator on the same seed starts from the top of the stream.
    assert _block_hex(Prg(FROZEN_SEED32)) == FROZEN_BLOCKS[FROZEN_SEED32][0]


# (seed material, message): pk, signature, VRF value, VRF proof.
FROZEN_SIGNING = (
    (
        (b"frozen-signer", b"msg"),
        (
            "58627188c855c90e1dbf65b297001383df378f630adcbf8e69b7c85241e9ccd3",
            "a08ac52221a50588ad9f1f6b56196ed683da357e9012ee525382b4242497a0ff",
            "ba0c2daf0fac0675179258f79fe69b3a83b75bf4d0867cba2ab582fdcc96d251",
            "58298730e2ed713d299b4195b3f9c82ff4d457298f15cc6b4c3584a21867398a",
        ),
    ),
    (
        (b"frozen-signer", b""),
        (
            "58627188c855c90e1dbf65b297001383df378f630adcbf8e69b7c85241e9ccd3",
            "e5e893cc0a493c02b918880959a7791aa0f0f3b3c683634fbfa69672adff48ca",
            "f71ee88ab3445dfd6822ac885508bb25818129f3eefd72f88151dd5d7a5c4141",
            "fae44855dde18c911f8e15c35d2529673432e877916d75b38ebe19dfcd40e688",
        ),
    ),
    (
        (b"frozen-other", bytes(range(256)) * 3),
        (
            "f44d205e2ec74752930dacc9a6ad14224f41629791aca7eee04dda559b757f88",
            "23440f0a3acaf940b716d3a95c1188f284977db0b10d9a7295e1f5c668740f3a",
            "ab28ad431f8e7c5c72a7634f10cb01cdf5e7107873fab67ce128243201108856",
            "ca2e633f4901c78ca59dd8edc254f2d4c5dd92a0344e15219ebcce0d535adc8e",
        ),
    ),
)


@pytest.mark.parametrize("args, frozen", FROZEN_SIGNING, ids=["short", "empty", "long"])
def test_sign_and_vrf_outputs_are_frozen(args, frozen):
    seed, msg = args
    pk, sig_value, vrf_value, vrf_proof = frozen
    kp = keygen(seed)
    assert kp.pk.hex() == pk
    sig = sign(kp, msg)
    assert (sig.value.hex(), sig.signer_pk.hex()) == (sig_value, pk)
    assert verify_sig(kp.pk, msg, sig)
    out = vrf_eval(kp, msg)
    assert (out.value.hex(), out.proof.hex()) == (vrf_value, vrf_proof)
    assert vrf_verify(kp.pk, msg, out)


# Digest-wide parts take the packed path; every other width, the framing of
# ``tagged_hash``.
packed_parts = st.binary(min_size=DIGEST_LEN, max_size=DIGEST_LEN) | st.sampled_from(
    [0, 31, 33, 64]
).flatmap(lambda width: st.binary(min_size=width, max_size=width))


@settings(deadline=None)
@given(st.binary(min_size=1, max_size=8), packed_parts, packed_parts, packed_parts)
def test_packed_primitives_equal_their_tagged_hash_form(tag, a, b, c):
    assert tagged_hash_batch(tag, (a,), b)[0] == tagged_hash(tag, a, b)
    assert tagged_hash_batch(tag, (a,), b, (c,))[0] == tagged_hash(tag, a, b, c)

    kp = KeyPair(pk=a, sk=b"unused")
    sig = sign(kp, b)
    assert sig == Signature(value=tagged_hash(b"sig", a, b), signer_pk=a)
    assert verify_sig(a, b, sig)
    assert verify_sig(a, b, Signature(c, a)) == (c == sig.value)

    value = tagged_hash(b"vrf", a, b)
    out = vrf_eval(kp, b)
    assert out == VrfOutput(value=value, proof=tagged_hash(b"vrf-proof", a, b, value))
    assert vrf_verify(a, b, out)
    assert vrf_verify(a, b, VrfOutput(value, c)) == (c == out.proof)
    assert vrf_verify(a, b, VrfOutput(c, out.proof)) == (c == value)

    chain = [SimpleNamespace(seed=b)] * 2
    assert derive_credential(a, 0, 1, chain, 1).value == tagged_hash(b"cred", a, b)


def _flip(data: bytes) -> bytes:
    """``data`` with its first bit flipped; empty data gets one byte."""
    return bytes([data[0] ^ 1]) + data[1:] if data else b"\x01"


@settings(deadline=None)
@given(
    st.binary(min_size=1, max_size=8),
    st.lists(st.tuples(packed_parts, packed_parts), max_size=6),
    packed_parts,
)
def test_batch_forms_equal_their_one_at_a_time_forms(tag, members, shared):
    # Batches mix digest-wide parts with parts of 0, 31, 33 and 64 bytes,
    # so both framings run, alone and side by side.
    firsts = [a for a, _ in members]
    lasts = [c for _, c in members]
    assert tagged_hash_batch(tag, firsts, shared) == [
        tagged_hash(tag, a, shared) for a in firsts
    ]
    assert tagged_hash_batch(tag, firsts, shared, lasts) == [
        tagged_hash(tag, a, shared, c) for a, c in members
    ]

    kps = [KeyPair(pk=a, sk=b"unused") for a in firsts]
    sigs = sign_batch(kps, shared)
    assert sigs == [sign(kp, shared) for kp in kps]
    entries = list(zip(firsts, sigs))
    for (a, c), sig in zip(members, sigs):
        entries += [
            (a, Signature(c, a)),
            (a, Signature(_flip(sig.value), a)),
            (a, Signature(sig.value, _flip(a))),
            (a, Signature("not-bytes", a)),
            (a, sig.value),
            (a, None),
        ]
    verdicts = verify_sig_batch(entries, shared)
    assert verdicts == [verify_sig(pk, shared, sig) for pk, sig in entries]
    assert verdicts[: len(sigs)] == [True] * len(sigs)

    outs = vrf_eval_batch(kps, shared)
    assert outs == [vrf_eval(kp, shared) for kp in kps]
    vrf_entries = list(zip(firsts, outs))
    for (a, c), out in zip(members, outs):
        vrf_entries += [
            (a, VrfOutput(out.value, c)),
            (a, VrfOutput(c, out.proof)),
            (a, VrfOutput(_flip(out.value), out.proof)),
            (a, VrfOutput(out.value, _flip(out.proof))),
            (_flip(a), out),
            (a, (out.value, out.proof)),
        ]
    verdicts = vrf_verify_batch(vrf_entries, shared)
    assert verdicts == [vrf_verify(pk, shared, out) for pk, out in vrf_entries]
    assert verdicts[: len(outs)] == [True] * len(outs)

    chain = [SimpleNamespace(seed=shared)] * 2
    assert derive_credentials(firsts, 1, shared, 1) == [
        derive_credential(a, 0, 1, chain, 1) for a in firsts
    ]


@settings(deadline=None)
@given(st.lists(packed_parts, max_size=6), st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6))
def test_keygen_batch_equals_one_key_at_a_time(seeds, indices):
    # Seeds of 0, 31, 32, 33 and 64 bytes, alone and mixed; the empty
    # batch too.  Each key pair is the one the two tagged hashes give.
    kps = keygen_batch(seeds)
    assert kps == [keygen(s) for s in seeds]
    for seed, kp in zip(seeds, kps):
        sk = tagged_hash(b"sk", seed)
        assert kp == KeyPair(pk=tagged_hash(b"pk", sk), sk=sk)
    assert keygen_batch([]) == []
    assert tagged_hash_batch(b"sk", seeds) == [tagged_hash(b"sk", s) for s in seeds]
    assert tagged_hash_batch(b"t", seeds, None, seeds[::-1]) == [
        tagged_hash(b"t", a, c) for a, c in zip(seeds, seeds[::-1])
    ]
    for lead in ((), seeds[:1], seeds[:2]):
        assert tagged_hash_indexed(b"user", indices, *lead) == [
            tagged_hash(b"user", *lead, encode_int(i)) for i in indices
        ]


RECORD_KEYS = [keygen(b"record-%d" % i) for i in range(5)]
RECORD_MSGS = [b"m0", b"m1", tagged_hash(b"test", b"m2")]


def _recomputed_sig_verdict(pk, msg, sig):
    """``verify_sig`` with the expected value hashed afresh."""
    (value,) = tagged_hash_batch(b"sig", [pk], msg)
    return (
        isinstance(sig, Signature)
        and isinstance(sig.value, bytes)
        and sig.signer_pk == pk
        and sig.value == value
    )


def _recomputed_vrf_verdict(pk, vrf_input, out):
    """``vrf_verify`` with the expected value and proof hashed afresh."""
    (value,) = tagged_hash_batch(b"vrf", [pk], vrf_input)
    (proof,) = tagged_hash_batch(b"vrf-proof", [pk], vrf_input, [value])
    return (
        isinstance(out, VrfOutput)
        and isinstance(out.value, bytes)
        and out.value == value
        and out.proof == proof
    )


def _variants(data, entries, msg, tamper, outsiders=()):
    """Entry lists and messages around an issued batch: as issued, one entry
    tampered, on another message, reordered, a subset, a reordered superset
    with valid ``outsiders`` entries, with a repeated pk."""
    yield entries, msg
    yield entries, data.draw(st.sampled_from(RECORD_MSGS))
    yield data.draw(st.permutations(entries)), msg
    keep = data.draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
    subset = [entry for entry, kept in zip(entries, keep) if kept]
    yield subset, msg
    yield data.draw(st.permutations(subset + list(outsiders))), msg
    if entries:
        i = data.draw(st.integers(0, len(entries) - 1))
        for changed in tamper(*entries[i]):
            yield entries[:i] + [changed] + entries[i + 1 :], msg
            yield entries + [changed], msg
        yield entries + [entries[i]], msg


batches = st.tuples(
    st.sampled_from(["sig", "vrf"]),
    st.lists(st.integers(0, len(RECORD_KEYS) - 1), max_size=5),
    st.integers(0, len(RECORD_MSGS) - 1),
)


@settings(deadline=None)
@given(st.lists(batches, min_size=1, max_size=4), st.data())
def test_the_issued_record_never_changes_a_verdict(issued, data):
    # Any run of issued batches, then entries around the last one of each
    # rule: every verdict is the one a fresh hash gives.
    last = {}
    for rule, picks, m in issued:
        kps = [RECORD_KEYS[i] for i in picks]
        msg = RECORD_MSGS[m]
        made = sign_batch(kps, msg) if rule == "sig" else vrf_eval_batch(kps, msg)
        last[rule] = ([kp.pk for kp in kps], made, msg)
    other = keygen(b"record-outsider").pk

    def outside(pks):
        """Keys of ``RECORD_KEYS`` the batch did not issue for, and the
        outsider."""
        return [kp.pk for kp in RECORD_KEYS if kp.pk not in pks] + [other]

    if "sig" in last:
        pks, sigs, msg = last["sig"]
        # Valid signatures the batch did not issue, hashed without touching
        # the record.
        valid = [(pk, Signature(tagged_hash(b"sig", pk, msg), pk)) for pk in outside(pks)]

        def tamper_sig(pk, sig):
            return [
                (pk, Signature(_flip(sig.value), pk)),
                (pk, Signature(sig.value, other)),
                (other, sig),
                (other, Signature(sig.value, other)),
            ]

        for entries, on in _variants(data, list(zip(pks, sigs)), msg, tamper_sig, valid):
            assert verify_sig_batch(entries, on) == [
                _recomputed_sig_verdict(pk, on, sig) for pk, sig in entries
            ]
    if "vrf" in last:
        pks, outs, vrf_input = last["vrf"]
        valid = []
        for pk in outside(pks):
            value = tagged_hash(b"vrf", pk, vrf_input)
            valid.append((pk, VrfOutput(value, tagged_hash(b"vrf-proof", pk, vrf_input, value))))

        def tamper_vrf(pk, out):
            return [
                (pk, VrfOutput(_flip(out.value), out.proof)),
                (pk, VrfOutput(out.value, _flip(out.proof))),
                (other, out),
            ]

        for entries, on in _variants(data, list(zip(pks, outs)), vrf_input, tamper_vrf, valid):
            assert vrf_verify_batch(entries, on) == [
                _recomputed_vrf_verdict(pk, on, out) for pk, out in entries
            ]


def test_a_new_batch_replaces_the_record(monkeypatch):
    tags, hashed = [], []
    kernel = crypto.tagged_hash_batch

    def counted(tag, firsts, *args):
        tags.append(tag)
        hashed.append(list(firsts))
        return kernel(tag, firsts, *args)

    monkeypatch.setattr(crypto, "tagged_hash_batch", counted)
    kps = RECORD_KEYS[:3]
    pks = [kp.pk for kp in kps]

    old = list(zip(pks, sign_batch(kps, b"old")))
    new = list(zip(pks, sign_batch(kps, b"new")))
    tags.clear()
    # The last batch is read from the record: no hash, and a flipped entry
    # still fails.
    forged = new[:1] + [(pks[1], Signature(_flip(new[1][1].value), pks[1]))] + new[2:]
    assert verify_sig_batch(new, b"new") == [True] * 3
    assert verify_sig_batch(forged, b"new") == [True, False, True]
    assert tags == []
    # The replaced batch recomputes, once per call.
    assert verify_sig_batch(old, b"old") == [True] * 3
    assert tags == [b"sig"]
    # The last batch's message over a subset of its pks, in another order,
    # reads every pk from the record; a superset hashes only the pks the
    # batch did not issue for.
    tags.clear()
    hashed.clear()
    assert verify_sig_batch(new[:0:-1], b"new") == [True] * 2
    assert tags == []
    outsider = RECORD_KEYS[3]
    extra = (outsider.pk, Signature(tagged_hash(b"sig", outsider.pk, b"new"), outsider.pk))
    forged = (outsider.pk, Signature(_flip(extra[1].value), outsider.pk))
    assert verify_sig_batch([new[1], extra, new[0]], b"new") == [True] * 3
    assert verify_sig_batch([forged, new[2]], b"new") == [False, True]
    assert tags == [b"sig", b"sig"] and hashed == [[outsider.pk], [outsider.pk]]

    old = list(zip(pks, vrf_eval_batch(kps, b"old")))
    new = list(zip(pks, vrf_eval_batch(kps, b"new")))
    tags.clear()
    assert vrf_verify_batch(new, b"new") == [True] * 3
    assert vrf_verify_batch(new[1:], b"new") == [True] * 2
    assert tags == []
    assert vrf_verify_batch(old, b"old") == [True] * 3
    assert tags == [b"vrf", b"vrf-proof"]
    # A signature batch leaves the VRF record alone.
    sign_batch(kps, b"new")
    tags.clear()
    assert vrf_verify_batch(new, b"new") == [True] * 3
    assert tags == []


@settings(deadline=None)
@given(packed_parts, st.integers(1, 2**63 - 1), st.integers(-(2**63), 2**63 - 1))
def test_private_constructors_build_what_init_builds(a, stake, height):
    # ``spend`` and ``make_genesis`` build their records without calling
    # the class; each record must be the one the class builds.
    running = {}
    spend(running, Transaction(inputs=(), outputs=(TxOutput(a, stake),), signatures=()), height)
    (output,) = make_genesis([(a, stake)], b"seed", stake).body[0].outputs
    for built, public in ((running[a], Utxo(a, stake, height)), (output, TxOutput(a, stake))):
        assert type(built) is type(public)
        assert built == public and hash(built) == hash(public)
        assert repr(built) == repr(public)
        assert not hasattr(built, "__dict__")
        for name in public._fields:
            assert getattr(built, name) is getattr(public, name)
            with pytest.raises(AttributeError):
                setattr(built, name, b"")


@settings(deadline=None)
@given(packed_parts, packed_parts, st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1))
def test_new_records_build_what_the_class_builds(a, b, anchor, expiry):
    for cls, row in (
        (Signature, (a, b)),
        (VrfOutput, (a, b)),
        (Credential, (a, b, anchor, expiry)),
        (KeyPair, (a, b)),
        (Utxo, (a, anchor, expiry)),
        (TxOutput, (a, anchor)),
    ):
        public = cls(*row)
        (built,) = new_records(cls, *[[field] for field in row])
        assert type(built) is cls
        assert built == public and hash(built) == hash(public)
        assert repr(built) == repr(public)
        assert not hasattr(built, "__dict__")
        for name, field in zip(cls._fields, row):
            assert getattr(built, name) is getattr(public, name) is field
            with pytest.raises(AttributeError):
                setattr(built, name, b"")
    assert new_records(Signature, [a, b], [b]) == [Signature(a, b)]




def test_only_the_issued_record_type_verifies():
    # A record type compares equal to any tuple of the same fields; each
    # check must refuse a plain tuple or another record type equal to a
    # valid output, field for field.
    kp, msg = keygen(b"look-alike"), b"payload"
    sig, out = sign(kp, msg), vrf_eval(kp, msg)
    assert verify_sig_batch([(kp.pk, sig)], msg) == [True]
    assert vrf_verify_batch([(kp.pk, out)], msg) == [True]
    assert count_signers([(kp.pk, sig)], {kp.pk}, msg) == 1
    for cls, good in ((Signature, sig), (VrfOutput, out)):
        Other = namedtuple("Other", cls._fields)
        Subclass = type("Subclass", (cls,), {"__slots__": ()})
        # The same two fields under the other record type of the pair.
        swapped = (VrfOutput if cls is Signature else Signature)(*good)
        for look_alike in (tuple(good), Other(*good), Subclass(*good), swapped):
            assert look_alike == good
            entries = [(kp.pk, good), (kp.pk, look_alike)]
            if cls is Signature:
                assert verify_sig_batch(entries, msg) == [True, False]
                assert not verify_sig(kp.pk, msg, look_alike)
                assert count_signers(entries[1:], {kp.pk}, msg) == 0
            else:
                assert vrf_verify_batch(entries, msg) == [True, False]
                assert not vrf_verify(kp.pk, msg, look_alike)

"""Hash primitives, deterministic keys, and the Prg/sampler pair."""

import math

import pytest

from shardsim.crypto import (
    DIGEST_LEN,
    Prg,
    Signature,
    VrfOutput,
    encode_bytes,
    encode_int,
    encode_str,
    hash_digest,
    keygen,
    pk_from_sk,
    sign,
    tagged_hash,
    verify_sig,
    vrf_eval,
    vrf_verify,
)
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


def test_tagged_hash_deterministic():
    assert tagged_hash(b"t", b"p") == tagged_hash(b"t", b"p")


def test_keygen_deterministic_and_pk_derived():
    kp = keygen(b"seed-material")
    again = keygen(b"seed-material")
    other = keygen(b"other")
    assert kp == again
    assert kp.pk == pk_from_sk(kp.sk)
    assert kp.pk != other.pk


def test_sign_verify_roundtrip():
    kp = keygen(b"signer")
    sig = sign(kp.sk, b"msg")
    assert sig.signer_pk == kp.pk
    assert verify_sig(kp.pk, b"msg", sig)
    assert not verify_sig(kp.pk, b"other", sig)
    assert not verify_sig(keygen(b"x").pk, b"msg", sig)


def test_verify_sig_rejects_malformed_input():
    kp = keygen(b"signer")
    assert not verify_sig(kp.pk, b"msg", None)
    assert not verify_sig(kp.pk, b"msg", b"raw-bytes")
    assert not verify_sig(kp.pk, b"msg", Signature(value="not-bytes", signer_pk=kp.pk))
    forged = Signature(value=tagged_hash(b"sig", kp.pk, b"msg"), signer_pk=b"wrong")
    assert not verify_sig(kp.pk, b"msg", forged)


def test_vrf_roundtrip_and_rejection():
    kp = keygen(b"vrf")
    out = vrf_eval(kp.sk, b"input")
    assert vrf_verify(kp.pk, b"input", out)
    assert not vrf_verify(kp.pk, b"other", out)
    assert not vrf_verify(keygen(b"z").pk, b"input", out)
    assert not vrf_verify(kp.pk, b"input", None)
    assert not vrf_verify(kp.pk, b"input", VrfOutput(value=out.value, proof=b"bad"))
    assert not vrf_verify(kp.pk, b"input", VrfOutput(value=b"bad", proof=out.proof))


def test_vrf_value_differs_per_key_and_input():
    a = vrf_eval(keygen(b"a").sk, b"in")
    b = vrf_eval(keygen(b"b").sk, b"in")
    c = vrf_eval(keygen(b"a").sk, b"in2")
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


def test_sampler_unbiased_first_pick():
    # The first pick should be uniform over the pool: chi-square over 5 slots.
    from scipy.stats import chi2

    counts = [0] * 5
    for i in range(20_000):
        prg = Prg(b"first-pick-%d" % i)
        counts[sample_without_replacement(prg, range(5), 1)[0]] += 1
    expected = 20_000 / 5
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, 4), counts


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

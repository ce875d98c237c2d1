"""View construction, join intake, expiry handling and core elections."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.credentials import Credential, credential_blob
from shardsim.crypto import Prg, encode_int, encode_str, keygen, sign, tagged_hash
from shardsim.ledger import shard_quorum
from shardsim.membership import (
    ShardView,
    fill_core,
    form_view,
    install_and_diffuse,
    order_spare,
    update_view,
    view_digest,
)
from shardsim.sampling import sample_without_replacement


def cred(tag, anchor=0, expiry=100):
    kp = keygen(b"member-%s" % tag)
    value = tagged_hash(b"cred", kp.pk, b"seed-%s" % tag)
    return Credential(value=value, pk=kp.pk, anchor_height=anchor, expiry_height=expiry)


def make_view(label="", height=1, core_n=3, spare_n=2, expiry=100):
    core = tuple(cred(b"c%d" % i, expiry=expiry) for i in range(core_n))
    spare = order_spare(cred(b"s%d" % i, expiry=expiry) for i in range(spare_n))
    return ShardView(label=label, height=height, core=core, spare=spare)


def test_members_concatenates_core_then_spare():
    view = make_view()
    assert view.members() == view.core + view.spare


def test_view_digest_sensitivity():
    view = make_view()
    digests = {view_digest(view)}
    digests.add(view_digest(ShardView("1", view.height, view.core, view.spare)))
    digests.add(view_digest(ShardView(view.label, 2, view.core, view.spare)))
    digests.add(view_digest(ShardView(view.label, view.height, view.core[:2], view.spare)))
    # Moving a member between core and spare must change the digest even
    # though the member multiset is unchanged.
    shuffled = ShardView(
        view.label, view.height, view.core[:2], (view.core[2],) + view.spare
    )
    digests.add(view_digest(shuffled))
    assert len(digests) == 5


def canonical_digest(view):
    """The view encoding, written out independently of ``view_digest``."""
    return tagged_hash(
        b"view",
        encode_str(view.label),
        encode_int(view.height),
        encode_int(len(view.core)),
        *(credential_blob(c) for c in view.core),
        encode_int(len(view.spare)),
        *(credential_blob(c) for c in view.spare),
    )


def test_view_digest_is_the_canonical_encoding():
    view = make_view()
    assert view_digest(view) == canonical_digest(view)
    # Asking again returns the cached value, unchanged.
    assert view_digest(view) == canonical_digest(view)


def test_view_digest_keeps_the_generic_encoding_for_other_widths():
    # A 20-byte value and a 40-byte pk: a 32-byte struct field would pad
    # the one and truncate the other.
    odd = Credential(value=b"v" * 20, pk=b"p" * 40, anchor_height=1, expiry_height=6)
    view = make_view(core_n=2, spare_n=2)
    mixed = replace(view, core=view.core + (odd,))
    assert view_digest(mixed) == canonical_digest(mixed)
    padded = odd._replace(value=odd.value + b"\x00" * 12, pk=odd.pk[:32])
    assert view_digest(mixed) != view_digest(replace(view, core=view.core + (padded,)))


def credentials_of_any_width():
    digest = st.binary(min_size=32, max_size=32)
    width = st.one_of(digest, digest, st.binary(max_size=40))
    height = st.integers(-(2**63), 2**63 - 1)
    return st.builds(Credential, value=width, pk=width, anchor_height=height, expiry_height=height)


@settings(deadline=None)
@given(
    st.text(alphabet="01", max_size=20),
    st.integers(-(2**63), 2**63 - 1),
    st.lists(credentials_of_any_width(), max_size=6),
    st.lists(credentials_of_any_width(), max_size=6),
)
def test_view_digest_equals_the_canonical_encoding(label, height, core, spare):
    view = ShardView(label=label, height=height, core=tuple(core), spare=tuple(spare))
    assert view_digest(view) == canonical_digest(view)


def test_derived_views_get_fresh_digests():
    view = make_view()
    first = view_digest(view)
    bumped = replace(view, height=view.height + 1)
    assert view_digest(bumped) == canonical_digest(bumped) != first
    relabeled = replace(view, label="1")
    assert view_digest(relabeled) == canonical_digest(relabeled) != first
    trimmed = replace(view, core=view.core[:2])
    assert view_digest(trimmed) == canonical_digest(trimmed) != first
    assert view_digest(view) == first


def test_view_equality_ignores_cached_digest():
    hashed, fresh = make_view(), make_view()
    view_digest(hashed)
    assert hashed == fresh and fresh == hashed
    assert hash(hashed) == hash(fresh)
    assert len({hashed, fresh}) == 1
    assert repr(hashed) == repr(fresh)
    assert hashed != replace(fresh, height=fresh.height + 1)


def test_install_threshold_exact_fraction_arithmetic():
    # 1/3 of 9 is exactly 3, so the strict majority-of-byzantine bound is 4.
    # Binary-float arithmetic would land on 3 and admit an all-byzantine
    # signer set; exact rationals are load-bearing here.
    assert shard_quorum(Fraction(1, 3), 9, 9) == 4
    assert shard_quorum(Fraction(1, 3), 3, 3) == 2
    assert shard_quorum(Fraction(1, 3), 4, 4) == 2
    assert shard_quorum(Fraction(1, 2), 4, 4) == 3
    assert shard_quorum(Fraction(0), 5, 5) == 1


@pytest.mark.parametrize("mu", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)])
def test_install_threshold_is_the_fraction_floor_plus_one(mu):
    for n in range(301):
        assert shard_quorum(mu, n, n) == int(mu * n) + 1


def test_order_spare_is_value_sorted():
    creds = [cred(b"o%d" % i) for i in range(6)]
    ordered = order_spare(creds)
    assert list(ordered) == sorted(creds, key=lambda c: c.value)
    assert order_spare(reversed(ordered)) == ordered


class TestUpdateView:
    """``update_view`` carries members over; ``fill_core`` then elects the
    core's vacancies."""

    def setup_method(self):
        self.core = tuple(cred(b"uc%d" % i) for i in range(3))
        self.spare = order_spare(cred(b"us%d" % i) for i in range(4))
        self.prev = ShardView(label="", height=3, core=self.core, spare=self.spare)
        self.beacon = tagged_hash(b"test-beacon", b"u")

    @staticmethod
    def expire(view, *members):
        """``view`` with ``members`` replaced by copies whose credentials
        perish with the block at the view's own height."""
        dying = {c: c._replace(expiry_height=view.height) for c in members}
        return replace(
            view,
            core=tuple(dying.get(c, c) for c in view.core),
            spare=tuple(dying.get(c, c) for c in view.spare),
        )

    def test_no_churn(self):
        view, newcomers = update_view(self.prev, [frozenset()] * 3)
        assert view.height == 4
        assert view.core == self.core
        assert view.spare == self.spare
        assert newcomers == ()
        # A full core elects nothing.
        assert fill_core(view, self.beacon, s_min=3) == (view, ())
        # A credential that perishes with the next block still serves at it.
        last = replace(self.prev, core=tuple(c._replace(expiry_height=4) for c in self.core))
        assert update_view(last, [])[0].core == last.core

    def test_newcomers_join_spare_sorted(self):
        joiner = cred(b"uj")
        view, newcomers = update_view(self.prev, [frozenset({joiner}), frozenset(), None])
        assert newcomers == (joiner,)
        assert joiner in view.spare
        assert view.spare == order_spare(self.spare + (joiner,))
        assert view.core == self.core

    def test_duplicate_slots_and_known_members_ignored(self):
        joiner = cred(b"uj")
        slots = [frozenset({joiner, self.core[0]}), frozenset({joiner, self.core[0]})]
        _, newcomers = update_view(self.prev, slots)
        assert newcomers == (joiner,)

    def test_newcomer_filters(self):
        dead = cred(b"udead", expiry=3)  # expires before height 4
        vetoed = cred(b"uveto")
        fine = cred(b"ufine")
        _, newcomers = update_view(
            self.prev,
            [frozenset({dead, vetoed, fine})],
            newcomer_valid=lambda c: c != vetoed,
        )
        assert newcomers == (fine,)

    def test_refill_draws_match_sampler(self):
        prev = self.expire(self.prev, self.core[0], self.core[1])
        carried = update_view(prev, [])[0]
        assert carried.core == (self.core[2],) and carried.spare == self.spare
        view, promoted = fill_core(carried, self.beacon, s_min=3)
        # Independent replay: same PRG, same ordered pool, same draw count.
        expected = sample_without_replacement(Prg(self.beacon), list(self.spare), 2)
        assert list(promoted) == expected
        assert view.core == (self.core[2],) + tuple(expected)
        assert set(view.spare) == set(self.spare) - set(expected)
        assert view.spare == order_spare(view.spare)
        assert (view.label, view.height) == (carried.label, carried.height)

    def test_expiring_spare_not_promotable(self):
        prev = self.expire(self.prev, self.core[0], self.spare[0])
        view, promoted = fill_core(update_view(prev, [])[0], self.beacon, s_min=3)
        assert prev.spare[0] not in view.members()
        assert self.spare[0].value not in {c.value for c in view.members()}
        pool = [c for c in self.spare if c != self.spare[0]]
        expected = sample_without_replacement(Prg(self.beacon), pool, 1)
        assert list(promoted) == expected

    def test_degraded_when_spare_exhausted(self):
        thin = ShardView(label="", height=3, core=self.core, spare=())
        carried = update_view(self.expire(thin, self.core[0], self.core[1]), [])[0]
        assert fill_core(carried, self.beacon, s_min=3) == (carried, ())
        assert carried.core == (self.core[2],)

    def test_newcomer_can_be_promoted_same_height(self):
        thin = ShardView(label="", height=3, core=self.core, spare=())
        joiner = cred(b"uj")
        carried, _ = update_view(self.expire(thin, self.core[0]), [frozenset({joiner})])
        view, promoted = fill_core(carried, self.beacon, s_min=3)
        assert promoted == (joiner,)
        assert len(view.core) == 3 and view.spare == ()


def reference_update_view(prev_view, decided_joins, newcomer_valid=lambda c: True):
    """``update_view`` as it was before member tuples were carried over:
    every call re-derives the known values, walks every slot and re-sorts
    the spare set."""
    height = prev_view.height + 1
    members = prev_view.members()
    known_values = {c.value for c in members}
    newcomers = []
    seen = set()
    distinct_slots = []
    slot_keys = set()
    for slot in decided_joins:
        if slot is None:
            continue
        key = slot if isinstance(slot, frozenset) else frozenset(slot)
        if key in slot_keys:
            continue
        slot_keys.add(key)
        distinct_slots.append(key)
    for slot in distinct_slots:
        for c in slot:
            if (c.value in known_values and c in members) or c in seen:
                continue
            if c.expiry_height < height:
                continue
            if not newcomer_valid(c):
                continue
            seen.add(c)
            newcomers.append(c)

    spare_pool = [c for c in prev_view.spare if c.expiry_height >= height]
    view = ShardView(
        label=prev_view.label,
        height=height,
        core=tuple(c for c in prev_view.core if c.expiry_height >= height),
        spare=order_spare(spare_pool + newcomers),
    )
    return view, tuple(sorted(seen, key=lambda c: c.value))


POOL = [cred(b"pool%d" % i) for i in range(16)]


@st.composite
def view_updates(draw):
    """A registered view at some height whose members expire at it or
    later, and a decided join vector: ``None`` slots, repeated slots,
    joins that are members or equal copies of them, newcomers that expire
    before the next height or share a member's value, and a veto.  A slot
    comes as a frozenset, a set or a list, and a repeat may be an equal
    but distinct object."""
    height = draw(st.integers(1, 5))
    expiry = st.integers(height, height + 2)
    picked = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=10, unique=True))
    members = [c._replace(expiry_height=draw(expiry)) for c in picked]
    split = draw(st.integers(0, len(members)))
    prev = ShardView("", height, tuple(members[:split]), order_spare(members[split:]))

    outsiders = [c for c in POOL if c not in picked]
    candidates = (
        members
        + [c._replace() for c in members]
        + [c._replace(anchor_height=1) for c in members]
        + [c._replace(expiry_height=height + draw(st.integers(-1, 2))) for c in outsiders]
    )
    slot = st.one_of(
        st.none(), st.frozensets(st.sampled_from(candidates), max_size=4)
    )
    distinct = draw(st.lists(slot, min_size=1, max_size=3))

    def shaped(slot):
        return draw(st.sampled_from([slot, frozenset(list(slot)), set(slot), list(slot)]))

    chosen = draw(st.lists(st.sampled_from(distinct), max_size=6))
    joins = [None if slot is None else shaped(slot) for slot in chosen]
    vetoed = draw(st.frozensets(st.sampled_from(candidates), max_size=3))
    return prev, joins, (lambda c: c not in vetoed)


@settings(deadline=None, max_examples=300)
@given(view_updates())
def test_update_view_equals_the_reference(case):
    prev, joins, valid = case
    view, newcomers = update_view(prev, joins, valid)
    assert (view, newcomers) == reference_update_view(prev, joins, valid)
    # Whatever framing was handed over, the digest is the one a fresh copy
    # of the view computes from scratch.
    assert view.digest == ShardView.digest.func(replace(view))
    assert view.core_pks == tuple(c.pk for c in view.core)


class TestCarriedTuples:
    """A member tuple that loses and gains nobody is the previous view's
    own tuple, and carries its framing (and, for the core, its pks)
    along."""

    def setup_method(self):
        self.prev = make_view(height=3, core_n=3, spare_n=3, expiry=5)
        view_digest(self.prev)

    def test_quiet_height_keeps_both_tuples_and_their_framing(self):
        view = update_view(self.prev, [None, frozenset()])[0]
        assert view.core is self.prev.core and view.spare is self.prev.spare
        assert vars(view)["core_framing"] is self.prev.core_framing
        assert vars(view)["core_pks"] is self.prev.core_pks
        assert vars(view)["spare_framing"] is self.prev.spare_framing
        assert view.digest == ShardView.digest.func(replace(view)) != self.prev.digest

    def test_a_newcomer_keeps_only_the_core(self):
        joiner = cred(b"carried-joiner")
        view = update_view(self.prev, [frozenset({joiner})])[0]
        assert view.core is self.prev.core and view.spare is not self.prev.spare
        assert "spare_framing" not in vars(view)
        assert view.digest == ShardView.digest.func(replace(view))

    def test_an_expiry_replaces_only_its_own_tuple(self):
        dying = self.prev.spare[1]._replace(expiry_height=3)
        prev = replace(self.prev, spare=order_spare(self.prev.spare[:1] + (dying,)))
        view = update_view(prev, [])[0]
        assert view.core is prev.core and view.spare == prev.spare[:1]
        assert "spare_framing" not in vars(view)
        assert view.digest == ShardView.digest.func(replace(view))

        dying = self.prev.core[0]._replace(expiry_height=3)
        prev = replace(self.prev, core=(dying,) + self.prev.core[1:])
        view = update_view(prev, [])[0]
        assert view.core == prev.core[1:] and view.spare is prev.spare
        assert "core_framing" not in vars(view) and "core_pks" not in vars(view)
        assert view.core_pks == tuple(c.pk for c in view.core)
        assert view.digest == ShardView.digest.func(replace(view))


def test_form_view_elects_core_from_everyone():
    members = [cred(b"f%d" % i) for i in range(7)]
    beacon = tagged_hash(b"test-beacon", b"f")
    view = form_view("10", members, height=5, beacon_seed=beacon, s_min=3)
    assert view.label == "10" and view.height == 5
    assert len(view.core) == 3
    pool = list(order_spare(members))
    expected = sample_without_replacement(Prg(beacon), pool, 3)
    assert list(view.core) == expected
    assert set(view.spare) == set(members) - set(expected)
    assert view.spare == order_spare(view.spare)

    tiny = form_view("10", members[:2], height=5, beacon_seed=beacon, s_min=3)
    assert len(tiny.core) == 2 and tiny.spare == ()


class TestInstallAndDiffuse:
    mu_core = Fraction(1, 3)

    def setup_method(self):
        self.keys = [keygen(b"install-%d" % i) for i in range(4)]
        creds = tuple(
            Credential(value=kp.pk, pk=kp.pk, anchor_height=0, expiry_height=9)
            for kp in self.keys[:3]
        )
        self.old_core_pks = {kp.pk for kp in self.keys[:3]}
        self.view = ShardView(label="", height=2, core=creds, spare=())

    def _sigs(self, signers, view=None):
        view = view or self.view
        return [(kp.pk, sign(kp, view_digest(view))) for kp in signers]

    def test_installs_at_threshold(self):
        ok = install_and_diffuse(
            self.view, self._sigs(self.keys[:2]), self.old_core_pks, self.mu_core, s_min=3
        )
        assert ok

    def test_below_threshold_keeps_old_entry(self):
        ok = install_and_diffuse(
            self.view, self._sigs(self.keys[:1]), self.old_core_pks, self.mu_core, s_min=3
        )
        assert not ok

    def test_duplicate_and_foreign_signers_do_not_count(self):
        doubled = self._sigs([self.keys[0], self.keys[0], self.keys[3]])
        ok = install_and_diffuse(
            self.view, doubled, self.old_core_pks, self.mu_core, 3
        )
        assert not ok

    def test_wrong_view_signature_rejected(self):
        other = ShardView(label="", height=3, core=self.view.core, spare=())
        sigs = self._sigs(self.keys[:2], view=other)
        ok = install_and_diffuse(
            self.view, sigs, self.old_core_pks, self.mu_core, 3
        )
        assert not ok

    def test_degraded_core_uses_proportional_threshold(self):
        # Old core of two: threshold int(2/3)+1 = 1 signature.
        small_core = {self.keys[0].pk, self.keys[1].pk}
        ok = install_and_diffuse(
            self.view, self._sigs(self.keys[:1]), small_core, self.mu_core, s_min=3
        )
        assert ok


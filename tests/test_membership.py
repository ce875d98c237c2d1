"""View construction, join intake, expiry handling and core elections."""

from dataclasses import replace
from fractions import Fraction

import pytest

from shardsim.credentials import Credential, credential_blob
from shardsim.crypto import Prg, encode_int, encode_str, keygen, sign, tagged_hash
from shardsim.ledger import install_threshold
from shardsim.membership import (
    ShardRuntime,
    ShardView,
    form_view,
    install_and_diffuse,
    order_spare,
    refill_needed,
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
    assert install_threshold(Fraction(1, 3), 9) == 4
    assert install_threshold(Fraction(1, 3), 3) == 2
    assert install_threshold(Fraction(1, 3), 4) == 2
    assert install_threshold(Fraction(1, 2), 4) == 3
    assert install_threshold(Fraction(0), 5) == 1


def test_order_spare_is_value_sorted():
    creds = [cred(b"o%d" % i) for i in range(6)]
    ordered = order_spare(creds)
    assert list(ordered) == sorted(creds, key=lambda c: c.value)
    assert order_spare(reversed(ordered)) == ordered


def test_expiring_and_refill_predicates():
    soon = cred(b"soon", expiry=5)
    later = cred(b"later", expiry=9)
    view = ShardView(label="", height=4, core=(soon, later), spare=())
    assert refill_needed(view, 5, s_min=2)
    assert not refill_needed(view, 4, s_min=2)


class TestUpdateView:
    def setup_method(self):
        self.core = tuple(cred(b"uc%d" % i) for i in range(3))
        self.spare = order_spare(cred(b"us%d" % i) for i in range(4))
        self.prev = ShardView(label="", height=3, core=self.core, spare=self.spare)
        self.beacon = tagged_hash(b"test-beacon", b"u")

    @staticmethod
    def expire(view, *members):
        """``view`` with ``members`` replaced by copies whose credentials
        perish with the block at the view's own height."""
        dying = {c: replace(c, expiry_height=view.height) for c in members}
        return replace(
            view,
            core=tuple(dying.get(c, c) for c in view.core),
            spare=tuple(dying.get(c, c) for c in view.spare),
        )

    def test_no_churn(self):
        upd = update_view(self.prev, [frozenset()] * 3, None, s_min=3)
        assert upd.view.height == 4
        assert upd.view.core == self.core
        assert upd.view.spare == self.spare
        assert upd.promoted == () and upd.newcomers == ()
        assert not upd.needs_refill and not upd.degraded
        # A credential that perishes with the next block still serves at it.
        last = replace(self.prev, core=tuple(replace(c, expiry_height=4) for c in self.core))
        assert update_view(last, [], None, s_min=3).view.core == last.core

    def test_newcomers_join_spare_sorted(self):
        joiner = cred(b"uj")
        upd = update_view(
            self.prev, [frozenset({joiner}), frozenset(), None], None, s_min=3
        )
        assert upd.newcomers == (joiner,)
        assert joiner in upd.view.spare
        assert upd.view.spare == order_spare(self.spare + (joiner,))
        assert upd.view.core == self.core

    def test_duplicate_slots_and_known_members_ignored(self):
        joiner = cred(b"uj")
        slots = [frozenset({joiner, self.core[0]}), frozenset({joiner, self.core[0]})]
        upd = update_view(self.prev, slots, None, s_min=3)
        assert upd.newcomers == (joiner,)

    def test_newcomer_filters(self):
        dead = cred(b"udead", expiry=3)  # expires before height 4
        vetoed = cred(b"uveto")
        fine = cred(b"ufine")
        upd = update_view(
            self.prev,
            [frozenset({dead, vetoed, fine})],
            None,
            s_min=3,
            newcomer_valid=lambda c: c != vetoed,
        )
        assert upd.newcomers == (fine,)

    def test_refill_draws_match_sampler(self):
        prev = self.expire(self.prev, self.core[0], self.core[1])
        upd = update_view(prev, [], self.beacon, s_min=3)
        assert upd.needs_refill and not upd.degraded
        assert len(upd.view.core) == 3
        # Independent replay: same PRG, same ordered pool, same draw count.
        expected = sample_without_replacement(Prg(self.beacon), list(self.spare), 2)
        assert list(upd.promoted) == expected
        assert upd.view.core == (self.core[2],) + tuple(expected)
        assert set(upd.view.spare) == set(self.spare) - set(expected)

    def test_expiring_spare_not_promotable(self):
        prev = self.expire(self.prev, self.core[0], self.spare[0])
        upd = update_view(prev, [], self.beacon, s_min=3)
        assert prev.spare[0] not in upd.view.members()
        assert self.spare[0].value not in {c.value for c in upd.view.members()}
        pool = [c for c in self.spare if c != self.spare[0]]
        expected = sample_without_replacement(Prg(self.beacon), pool, 1)
        assert list(upd.promoted) == expected

    def test_refill_without_beacon_raises(self):
        with pytest.raises(ValueError):
            update_view(self.expire(self.prev, self.core[0]), [], None, s_min=3)

    def test_degraded_when_spare_exhausted(self):
        thin = ShardView(label="", height=3, core=self.core, spare=())
        upd = update_view(self.expire(thin, self.core[0], self.core[1]), [], None, s_min=3)
        assert upd.degraded and upd.needs_refill
        assert upd.view.core == (self.core[2],)

    def test_newcomer_can_be_promoted_same_height(self):
        thin = ShardView(label="", height=3, core=self.core, spare=())
        joiner = cred(b"uj")
        upd = update_view(
            self.expire(thin, self.core[0]), [frozenset({joiner})], self.beacon, s_min=3
        )
        assert upd.promoted == (joiner,)
        assert not upd.degraded


def test_reset_buffers_shares_one_set_among_honest_members():
    view = make_view(core_n=4)
    rt = ShardRuntime(label="", view=view)
    corrupted = {view.core[1].pk, view.core[3].pk}
    rt.reset_buffers(corrupted)
    assert set(rt.buffers) == {c.pk for c in view.core}
    honest = rt.buffers[view.core[0].pk]
    assert honest == set() and rt.buffers[view.core[2].pk] is honest
    # Each corrupted member buffers on its own.
    first, second = (rt.buffers[pk] for pk in sorted(corrupted))
    assert first == second == set()
    assert first is not second and honest is not first and honest is not second


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
        self.directory = {"": "previous-entry"}

    def _sigs(self, signers, view=None):
        view = view or self.view
        return [(kp.pk, sign(kp, view_digest(view))) for kp in signers]

    def test_installs_at_threshold(self):
        ok = install_and_diffuse(
            self.view, self._sigs(self.keys[:2]), self.old_core_pks,
            self.directory, self.mu_core, s_min=3,
        )
        assert ok and self.directory[""] is self.view

    def test_below_threshold_keeps_old_entry(self):
        ok = install_and_diffuse(
            self.view, self._sigs(self.keys[:1]), self.old_core_pks,
            self.directory, self.mu_core, s_min=3,
        )
        assert not ok and self.directory[""] == "previous-entry"

    def test_duplicate_and_foreign_signers_do_not_count(self):
        doubled = self._sigs([self.keys[0], self.keys[0], self.keys[3]])
        ok = install_and_diffuse(
            self.view, doubled, self.old_core_pks, self.directory, self.mu_core, 3
        )
        assert not ok

    def test_wrong_view_signature_rejected(self):
        other = ShardView(label="", height=3, core=self.view.core, spare=())
        sigs = self._sigs(self.keys[:2], view=other)
        ok = install_and_diffuse(
            self.view, sigs, self.old_core_pks, self.directory, self.mu_core, 3
        )
        assert not ok

    def test_degraded_core_uses_proportional_threshold(self):
        # Old core of two: threshold int(2/3)+1 = 1 signature.
        small_core = {self.keys[0].pk, self.keys[1].pk}
        ok = install_and_diffuse(
            self.view, self._sigs(self.keys[:1]), small_core,
            self.directory, self.mu_core, s_min=3,
        )
        assert ok


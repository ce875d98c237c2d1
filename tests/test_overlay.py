"""Prefix cover, routing, split/merge plans and view-transition checks."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.credentials import Credential
from shardsim.crypto import keygen
from shardsim.ledger import VALID, Validity
from shardsim.membership import ShardView, order_spare
from shardsim.overlay import (
    ROOT_LABEL,
    _newcomers_fit,
    check_prefix_free_cover,
    label_matches,
    maybe_merge,
    maybe_split,
    route,
    route_all,
    split_tree,
    verify_view_transition,
)


def test_label_matches():
    assert label_matches(ROOT_LABEL, b"\xff")
    assert label_matches("1", b"\x80")
    assert label_matches("10", b"\x80")
    assert not label_matches("11", b"\x80")
    assert label_matches("00000001", b"\x01")


def test_prefix_free_cover_accepts_valid_sets():
    assert check_prefix_free_cover([ROOT_LABEL])
    assert check_prefix_free_cover(["0", "1"])
    assert check_prefix_free_cover(["0", "10", "110", "111"])


def test_prefix_free_cover_reason_codes():
    assert check_prefix_free_cover([]).reason == "empty"
    assert check_prefix_free_cover(["0", "0", "1"]).reason == "duplicate"
    assert check_prefix_free_cover(["0", "01"]).reason == "prefix-collision"
    # "0" and "011" sort apart, with extensions of "0" between them.
    assert check_prefix_free_cover(["1", "011", "00", "010", "0"]).reason == "prefix-collision"
    assert check_prefix_free_cover(["0", "10"]).reason == "coverage-gap"
    assert check_prefix_free_cover(["1" * 257]).reason == "depth"
    # Each covers the binary labels' whole space, with an extra label.
    assert check_prefix_free_cover(["0", "1", "a"]).reason == "non-binary"
    assert check_prefix_free_cover(["0", "1", "2x"]).reason == "non-binary"


def test_route_follows_prefixes():
    directory = {"0": None, "10": None, "11": None}
    assert route(directory, b"\x00" * 32) == "0"
    assert route(directory, b"\x80" + b"\x00" * 31) == "10"
    assert route(directory, b"\xc0" + b"\x00" * 31) == "11"
    with pytest.raises(LookupError):
        route({"0": None}, b"\x80")


def _cred(first_byte, tag, anchor=0, expiry=10):
    kp = keygen(b"overlay-%d-%d" % (first_byte, tag))
    value = bytes([first_byte]) + kp.pk[1:]
    return Credential(value=value, pk=kp.pk, anchor_height=anchor, expiry_height=expiry)


def test_maybe_split_partitions_on_next_bit():
    zeros = [_cred(0x00, i) for i in range(3)]
    ones = [_cred(0x80, i) for i in range(3)]
    view = ShardView(
        label=ROOT_LABEL, height=1, core=tuple(zeros[:2] + ones[:2]), spare=(zeros[2], ones[2])
    )
    (label0, left), (label1, right) = maybe_split(ROOT_LABEL, view, 2, 4)
    assert (label0, label1) == ("0", "1")
    # Replay the rule directly: membership decided by the bit after the prefix.
    assert all(value_bits(c.value)[0] == "0" for c in left)
    assert all(value_bits(c.value)[0] == "1" for c in right)
    assert sorted(c.value for c in left + right) == sorted(
        c.value for c in view.members()
    )


def test_maybe_split_partitions_on_the_msb_first_bit_after_the_label():
    """Bit i is MSB-first: bit 0 is 0x80 of byte 0, bit 7 is 0x01 of byte 0,
    bit 8 is 0x80 of byte 1.  Under a label of length i, a member whose
    value has only bit i set goes to the ``1`` child; one with bit i clear
    and every later bit set goes to the ``0`` child.  Each child keeps the
    member order."""
    for index in (0, 1, 7, 8, 15, 255):
        label = "0" * index
        bit = 1 << (255 - index)
        ones = [Credential(bit.to_bytes(32, "big"), bytes([i]) * 32, 0, 10) for i in range(3)]
        zeros = [
            Credential((bit - 1).to_bytes(32, "big"), bytes([i]) * 32, 0, 10)
            for i in range(3, 6)
        ]
        members = [zeros[0], ones[0], ones[1], zeros[1], ones[2], zeros[2]]
        view = ShardView(label, 1, tuple(members[:2]), tuple(members[2:]))
        children = maybe_split(label, view, 2, 4)
        assert children == ((label + "0", tuple(zeros)), (label + "1", tuple(ones)))
        assert all(label_matches(label + "1", c.value) for c in ones)
        assert all(label_matches(label + "0", c.value) for c in zeros)
    # Past the last bit of the value there is no bit to split on.
    with pytest.raises(IndexError):
        maybe_split("0" * 256, view, 2, 4)


def test_maybe_split_deferrals():
    small = ShardView(
        label=ROOT_LABEL, height=1, core=(_cred(0, 0), _cred(0x80, 0)), spare=()
    )
    assert maybe_split(ROOT_LABEL, small, 2, 4) is None

    # Oversized but lopsided: one child would fall under s_min.
    lopsided = ShardView(
        label=ROOT_LABEL,
        height=1,
        core=tuple(_cred(0x00, i) for i in range(4)),
        spare=(_cred(0x80, 0),),
    )
    assert maybe_split(ROOT_LABEL, lopsided, 2, 4) is None


def test_maybe_split_uses_bit_after_label():
    # All members share prefix "1"; they separate on the second bit.
    upper = [_cred(0xC0, i) for i in range(3)]  # 11...
    lower = [_cred(0x80, i) for i in range(3)]  # 10...
    view = ShardView(label="1", height=1, core=tuple(upper + lower[:2]), spare=(lower[2],))
    (l0, zeros), (l1, ones) = maybe_split("1", view, 2, 4)
    assert (l0, l1) == ("10", "11")
    assert {c.value for c in zeros} == {c.value for c in lower}
    assert {c.value for c in ones} == {c.value for c in upper}


def _split_one_by_one(members, s_min, s_max):
    """``maybe_split`` applied from the root down, each child an all-spare
    view of its members in value order, until no shard splits."""
    directory = {ROOT_LABEL: members}
    pending = [ROOT_LABEL]
    while pending:
        label = pending.pop()
        children = maybe_split(label, ShardView(label, 0, (), directory[label]), s_min, s_max)
        if children is None:
            continue
        del directory[label]
        for child, child_members in children:
            directory[child] = order_spare(child_members)
            pending.append(child)
    return directory


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(0, 2**256 - 1), st.integers(0, 60)),
        max_size=120,
        unique_by=lambda drawn: drawn[0] >> drawn[1],
    ),
    st.integers(1, 10),
    st.integers(0, 3),
)
def test_split_tree_equals_maybe_split_from_the_root(drawn, s_min, slack):
    # Values shifted right by up to 60 bits share long runs of leading
    # zeros, so the tree goes deep down one side and lopsided children
    # defer splits there.
    s_max = 2 * s_min + slack
    creds = [
        Credential((v >> shift).to_bytes(32, "big"), bytes([i % 256]) * 32, 0, 10)
        for i, (v, shift) in enumerate(drawn)
    ]
    members = order_spare(creds)
    leaves = split_tree(members, s_min, s_max)
    assert leaves == _split_one_by_one(members, s_min, s_max)
    assert list(leaves) == sorted(leaves)
    assert check_prefix_free_cover(leaves)
    assert [c for run in leaves.values() for c in run] == list(members)


def test_maybe_merge_folds_sibling_subtree():
    v10 = ShardView(label="10", height=4, core=(_cred(0x80, 0), _cred(0x80, 1)), spare=())
    v11 = ShardView(
        label="11", height=4, core=(_cred(0xC0, 0), _cred(0xC0, 1), _cred(0xC0, 2)), spare=()
    )
    v0 = ShardView(label="0", height=4, core=tuple(_cred(0x00, i) for i in range(3)), spare=())
    directory = {"10": v10, "11": v11, "0": v0}
    new_label, absorbed, members = maybe_merge("10", v10, directory, 3)
    assert new_label == "1"
    assert absorbed == ("10", "11")
    assert {c.value for c in members} == {c.value for c in v10.members() + v11.members()}
    assert list(members) == sorted(members, key=lambda c: c.value)


def test_maybe_merge_skips_root_and_healthy_shards():
    healthy = ShardView(
        label="10", height=4, core=tuple(_cred(0x80, i) for i in range(3)), spare=()
    )
    assert maybe_merge("10", healthy, {"10": healthy}, 3) is None
    tiny_root = ShardView(label=ROOT_LABEL, height=4, core=(_cred(0, 0),), spare=())
    assert maybe_merge(ROOT_LABEL, tiny_root, {ROOT_LABEL: tiny_root}, 3) is None


class TestViewTransition:
    s_min = 3

    def setup_method(self):
        self.keys = [keygen(b"transition-%d" % i) for i in range(6)]
        self.creds = [
            Credential(value=kp.pk, pk=kp.pk, anchor_height=0, expiry_height=10)
            for kp in self.keys
        ]
        self.old = ShardView(
            label=ROOT_LABEL, height=1, core=tuple(self.creds[:3]), spare=(self.creds[3],)
        )
        self.new = ShardView(
            label=ROOT_LABEL, height=2, core=tuple(self.creds[:3]), spare=(self.creds[3],)
        )

    def _check(self, new_view):
        return verify_view_transition(self.old, new_view, 2, self.s_min)

    def test_valid_transition(self):
        verdict = self._check(self.new)
        assert verdict, verdict.reason

    def test_label_and_height(self):
        relabeled = ShardView("0", 2, self.new.core, self.new.spare)
        assert self._check(relabeled).reason == "label"
        stale = ShardView(ROOT_LABEL, 1, self.new.core, self.new.spare)
        assert self._check(stale).reason == "height"

    def test_core_size(self):
        # Enough members for a full core, but only two promoted.
        thin = ShardView(ROOT_LABEL, 2, tuple(self.creds[:2]), (self.creds[3],))
        assert self._check(thin).reason == "core-size"
        # A genuinely degraded shard with a full promotion is acceptable.
        degraded = ShardView(ROOT_LABEL, 2, tuple(self.creds[:2]), ())
        verdict = self._check(degraded)
        assert verdict, verdict.reason

    def test_expired_member(self):
        # A core member whose credential expired with block 1 cannot be
        # carried into the view for height 2.
        dying = self.creds[1]._replace(expiry_height=1)
        self.old = replace(self.old, core=(self.creds[0], dying, self.creds[2]))
        carried = replace(self.new, core=self.old.core)
        assert self._check(carried).reason == "expired-member"
        # The old view's own tuples are still checked for expiry, whether
        # the expired member sits in the core or in the spare set.
        assert self._check(replace(self.old, height=2)).reason == "expired-member"
        self.old = replace(self.new, height=1, spare=(self.creds[3]._replace(expiry_height=1),))
        assert self._check(replace(self.old, height=2)).reason == "expired-member"
        dead = Credential(value=self.keys[4].pk, pk=self.keys[4].pk,
                          anchor_height=0, expiry_height=1)
        stale = ShardView(ROOT_LABEL, 2, tuple(self.creds[:3]), (dead,))
        assert self._check(stale).reason == "expired-member"

    def test_window(self):
        future = Credential(value=self.keys[4].pk, pk=self.keys[4].pk,
                            anchor_height=5, expiry_height=15)
        view = ShardView(ROOT_LABEL, 2, tuple(self.creds[:3]), (future,))
        assert self._check(view).reason == "window"
        inverted = Credential(value=self.keys[4].pk, pk=self.keys[4].pk,
                              anchor_height=2, expiry_height=2)
        view = ShardView(ROOT_LABEL, 2, tuple(self.creds[:3]), (inverted,))
        assert self._check(view).reason == "window"

    def test_routing(self):
        old = ShardView("1", 1, tuple(self.creds[:3]), ())
        stray_val = b"\x00" + self.keys[4].pk[1:]
        stray = Credential(value=stray_val, pk=self.keys[4].pk,
                           anchor_height=0, expiry_height=10)
        new = ShardView("1", 2, tuple(self.creds[:2]) + (stray,), ())
        verdict = verify_view_transition(old, new, 2, self.s_min)
        assert verdict.reason == "routing"

    def test_newcomers_are_checked_but_carried_members_expire(self):
        # A valid registered view under label "1": every member routes there.
        routed = [
            Credential(value=b"\x80" + kp.pk[1:], pk=kp.pk, anchor_height=0, expiry_height=10)
            for kp in self.keys[:3]
        ]
        old = ShardView("1", 1, tuple(routed), ())

        def verdict(newcomer):
            new = ShardView("1", 2, tuple(routed), (newcomer,))
            return verify_view_transition(old, new, 2, self.s_min)

        pk = self.keys[4].pk
        fine = Credential(value=b"\xff" + pk[1:], pk=pk, anchor_height=2, expiry_height=9)
        assert verdict(fine), verdict(fine).reason
        assert verdict(fine._replace(value=b"\x7f" + pk[1:])).reason == "routing"
        assert verdict(fine._replace(anchor_height=3)).reason == "window"
        assert verdict(fine._replace(expiry_height=2)).reason == "window"
        # An equal copy of a carried member is checked as a newcomer, and
        # passes as the member does.
        assert verdict(routed[0]._replace())
        # Carried members are still checked for expiry.
        dying = routed[2]._replace(expiry_height=1)
        old = ShardView("1", 1, tuple(routed[:2]) + (dying,), ())
        new = ShardView("1", 2, old.core, (fine,))
        assert verify_view_transition(old, new, 2, self.s_min).reason == "expired-member"


# -- properties --------------------------------------------------------------


def reference_matches(label, value):
    """Bit-string reference for ``label_matches``."""
    bits = value_bits(value)
    if len(label) > len(bits):
        raise IndexError("bit index outside digest")
    return bits.startswith(label)


def value_bits(value):
    """The value's bits, MSB-first, byte by byte."""
    return "".join(format(byte, "08b") for byte in value)


def with_prefix(bits, value):
    """The value with its leading bits replaced by ``bits``."""
    rest = value_bits(value)[len(bits):]
    return int(bits + rest, 2).to_bytes(len(value), "big")


def apply_ops(ops):
    """Directories after each step of a split/merge sequence.

    A split replaces a label by its two children; a merge folds every
    label under a non-root label's parent into the parent, as
    ``maybe_merge`` plans it.
    """
    labels = {ROOT_LABEL}
    history = [set(labels)]
    for is_split, pick in ops:
        ordered = sorted(labels)
        label = ordered[pick % len(ordered)]
        if is_split:
            labels.discard(label)
            labels.update((label + "0", label + "1"))
        elif label != ROOT_LABEL:
            parent = label[:-1]
            labels = {l for l in labels if not l.startswith(parent)} | {parent}
        history.append(set(labels))
    return history


ops_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=10**6)), max_size=60
)
values = st.binary(min_size=32, max_size=32)


@settings(deadline=None)
@given(ops_strategy)
def test_split_merge_sequences_keep_prefix_free_cover(ops):
    for labels in apply_ops(ops):
        verdict = check_prefix_free_cover(labels)
        assert verdict, (verdict.reason, sorted(labels))


@settings(deadline=None)
@given(ops_strategy, st.lists(st.tuples(values, st.integers(0, 10**6)), max_size=8))
def test_route_returns_the_one_matching_label(ops, probes):
    directory = {label: None for label in apply_ops(ops)[-1]}
    ordered = sorted(directory)
    for value, pick in probes:
        # Half the probes are steered under a chosen label so deep labels
        # get routed to, not only the shallow ones random values hit.
        for probe in (value, with_prefix(ordered[pick % len(ordered)], value)):
            matching = [l for l in directory if reference_matches(l, probe)]
            assert len(matching) == 1
            assert route(directory, probe) == matching[0]


def reference_route(directory, value):
    """``route`` probing the value's whole bit string from depth 0."""
    bits = bin(int.from_bytes(b"\x01" + value, "big"))[3:]
    for depth in range(len(bits) + 1):
        prefix = bits[:depth]
        if prefix in directory:
            return prefix
    raise LookupError("no shard label matches the value: broken cover")


def path_cover(path):
    """The leaf ``path`` and the sibling of every node on the way to it."""
    return {path} | {path[:i] + "10"[int(path[i])] for i in range(len(path))}


@st.composite
def deep_directories(draw):
    """The cover of one root-to-leaf path: the leaf, and the sibling of every
    node on the way.  Paths run up to 200 bits deep, often from a run of
    zeros, and some covers lose labels, so that no label matches a value."""
    zeros = draw(st.integers(0, 120))
    path = "0" * zeros + "".join(draw(st.lists(st.sampled_from("01"), max_size=80)))
    cover = path_cover(path)
    dropped = draw(st.sets(st.sampled_from(sorted(cover)), max_size=2))
    return path, {label: None for label in cover - dropped}


@settings(deadline=None)
@given(
    deep_directories(),
    st.lists(
        st.tuples(values, st.integers(0, 32), st.integers(0, 200), st.booleans()), max_size=8
    ),
)
def test_route_equals_the_whole_bit_string_probe(case, probes):
    path, directory = case
    for value, zero_bytes, depth, steer in probes:
        # Steered probes share the path's first bits, so they route deep;
        # the others start with ``zero_bytes`` zero bytes.
        if steer:
            probe = with_prefix(path[:depth], value)
        else:
            probe = bytes(zero_bytes) + value[zero_bytes:]
        try:
            expected = reference_route(directory, probe)
        except LookupError:
            with pytest.raises(LookupError):
                route(directory, probe)
        else:
            assert route(directory, probe) == expected


@st.composite
def route_all_covers(draw):
    """A root-only cover, the cover of an all-ones path, a deep cover (up to
    200 bits, some with labels dropped), or a split/merge cover."""
    kind = draw(st.sampled_from(["root", "all-ones", "deep", "split-merge"]))
    if kind == "root":
        return {ROOT_LABEL: None}
    if kind == "all-ones":
        return dict.fromkeys(path_cover("1" * draw(st.integers(1, 256))))
    if kind == "deep":
        return draw(deep_directories())[1]
    return dict.fromkeys(apply_ops(draw(ops_strategy))[-1])


def interval_edges(label):
    """32-byte values at the start and the end of the label's interval, and
    just inside and outside them, where they exist."""
    start = int("0" + label, 2) << (256 - len(label))
    end = (int("0" + label, 2) + 1) << (256 - len(label))
    return [x.to_bytes(32, "big") for x in (start - 1, start, end - 1, end) if 0 <= x < 1 << 256]


@settings(deadline=None)
@given(
    route_all_covers(),
    st.lists(st.integers(0, 10**6), max_size=6),
    st.lists(values, max_size=8),
    st.lists(st.binary(max_size=40).filter(lambda v: len(v) != 32), max_size=3),
    st.randoms(use_true_random=False),
)
def test_route_all_equals_route_per_value(directory, picks, random_values, other_widths, rnd):
    ordered = sorted(directory)
    probes = list(random_values)
    # A deep cover that lost its one label is empty.
    for label in [ordered[pick % len(ordered)] for pick in picks] if ordered else []:
        probes += interval_edges(label) + [with_prefix(label, v) for v in random_values[:1]]
    # Duplicates, and widths ``route_all`` hands to ``route``.
    probes += probes[: len(probes) // 2] + other_widths
    rnd.shuffle(probes)
    try:
        expected = [route(directory, v) for v in probes]
    except LookupError:
        with pytest.raises(LookupError):
            route_all(directory, probes)
    else:
        assert route_all(directory, probes) == expected
    assert route_all(directory, []) == []


@settings(deadline=None)
@given(values, st.integers(0, 256), st.integers(0, 255), st.booleans())
def test_label_matches_agrees_with_reference(value, length, flip_at, flip):
    label = value_bits(value)[:length]
    if flip and length:
        i = flip_at % length
        label = label[:i] + ("1" if label[i] == "0" else "0") + label[i + 1 :]
    assert label_matches(label, value) == reference_matches(label, value)
    assert label_matches(label, value) == (not flip or not length)


@settings(deadline=None)
@given(values, st.binary(min_size=1, max_size=4))
def test_label_matches_random_labels(value, raw):
    for length in range(0, 8 * len(raw) + 1):
        label = value_bits(raw)[:length]
        assert label_matches(label, value) == reference_matches(label, value)


@given(values, st.sampled_from("01"))
def test_label_longer_than_digest_raises(value, extra):
    label = value_bits(value) + extra
    with pytest.raises(IndexError):
        reference_matches(label, value)
    with pytest.raises(IndexError):
        label_matches(label, value)


def reference_cover(labels):
    """``check_prefix_free_cover`` with every pair of labels compared and
    coverage decided by a walk of the binary trie."""
    labels = sorted(labels)
    if not labels:
        return Validity(False, "empty")
    if len(set(labels)) != len(labels):
        return Validity(False, "duplicate")
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if b.startswith(a) or a.startswith(b):
                return Validity(False, "prefix-collision")
    depth = max(len(l) for l in labels)
    if depth > 256:
        return Validity(False, "depth")
    if any(set(l) - {"0", "1"} for l in labels):
        return Validity(False, "non-binary")
    label_set = set(labels)
    frontier = [ROOT_LABEL]
    while frontier:
        node = frontier.pop()
        if node in label_set:
            continue
        if len(node) >= depth:
            return Validity(False, "coverage-gap")
        frontier += [node + "0", node + "1"]
    return VALID


@st.composite
def label_sets(draw):
    """Directories from split/merge sequences, then disturbed: labels added
    (duplicates, extensions of a label that sort far from it, deep or
    non-binary labels) and removed (coverage gaps)."""
    labels = sorted(draw(st.sampled_from(apply_ops(draw(ops_strategy)))))
    binary = st.text(alphabet="01", max_size=12)
    for _ in range(draw(st.integers(0, 3))):
        base = labels[draw(st.integers(0, len(labels) - 1))] if labels else ""
        labels.append(
            draw(
                st.one_of(
                    st.just(base),  # duplicate
                    binary.map(lambda tail, base=base: base + "0" + tail),  # extension
                    # An extension that sorts after every other one of ``base``.
                    binary.map(lambda tail, base=base: base + "1" * 20 + tail),
                    st.just(base + "0" * 257),  # over-deep
                    st.text(alphabet="01a/", max_size=4).map(lambda t, base=base: base + t),
                    binary,  # anywhere
                )
            )
        )
    for _ in range(draw(st.integers(0, 2))):
        if labels:
            del labels[draw(st.integers(0, len(labels) - 1))]
    return draw(st.permutations(labels))


@settings(deadline=None)
@given(label_sets())
def test_prefix_free_cover_equals_the_all_pairs_reference(labels):
    assert check_prefix_free_cover(labels) == reference_cover(labels)


def reference_transition(old_view, new_view, height, s_min):
    """``verify_view_transition`` with routing and window checked for every
    member, carried over or not."""
    if new_view.label != old_view.label:
        return Validity(False, "label")
    if new_view.height != height:
        return Validity(False, "height")
    if len(new_view.core) != min(s_min, len(new_view.members())):
        return Validity(False, "core-size")
    for cred in new_view.members():
        if cred.expiry_height < height:
            return Validity(False, "expired-member")
        if cred.anchor_height > height or cred.anchor_height >= cred.expiry_height:
            return Validity(False, "window")
        if not label_matches(new_view.label, cred.value):
            return Validity(False, "routing")
    return VALID


# (anchor, window length): a few windows are empty or inverted.
windows = st.tuples(st.integers(0, 10), st.integers(-1, 12))


@st.composite
def transitions(draw):
    """A valid registered view, and a next view mixing carried members,
    equal copies of them and arbitrary newcomers."""
    label = draw(st.text("01", max_size=3))
    old_height = draw(st.integers(1, 8))
    old_members = []
    for value in draw(st.lists(values, min_size=1, max_size=8)):
        anchor = draw(st.integers(0, old_height))
        expiry = draw(st.integers(max(anchor + 1, old_height), anchor + 12))
        old_members.append(Credential(with_prefix(label, value), value, anchor, expiry))
    s_min = draw(st.integers(1, 4))
    core = min(s_min, len(old_members))
    old = ShardView(label, old_height, tuple(old_members[:core]), tuple(old_members[core:]))

    members = []
    for c in old_members:
        kind = draw(st.sampled_from(["carry", "copy", "drop"]))
        if kind != "drop":
            members.append(c if kind == "carry" else c._replace())
    for value, routed, (anchor, length) in draw(
        st.lists(st.tuples(values, st.booleans(), windows), max_size=3)
    ):
        value = with_prefix(label, value) if routed else value
        members.append(Credential(value, value, anchor, anchor + length))
    members = draw(st.permutations(members))
    full = min(s_min, len(members))
    core = draw(st.sampled_from([full, full, full, max(0, full - 1)]))
    height = old_height + 1
    new = ShardView(
        label,
        draw(st.sampled_from([height] * 5 + [old_height])),
        tuple(members[:core]),
        tuple(members[core:]),
    )
    if draw(st.integers(0, 3)) == 0:
        # Every member carried over, as the old view's own tuples.
        new = replace(old, height=new.height)
    return old, new, height, s_min


@settings(deadline=None, max_examples=300)
@given(transitions())
def test_transition_verdict_equals_the_full_per_member_check(case):
    old, new, height, s_min = case
    assert reference_transition(old, new, height, s_min) == (
        verify_view_transition(old, new, height, s_min)
    )


@settings(deadline=None, max_examples=300)
@given(
    st.text("01", max_size=20),
    st.lists(st.tuples(st.binary(max_size=40), st.booleans(), windows), max_size=4),
    st.integers(0, 12),
)
def test_newcomers_fit_accepts_only_what_the_per_member_check_accepts(label, drawn, height):
    # Values of every width, most of them under the label when wide enough
    # to hold it: the min/max passes may refuse a fit batch, never pass an
    # unfit one.
    newcomers = []
    for value, routed, (anchor, length) in drawn:
        if routed and value and 8 * len(value) >= len(label):
            value = with_prefix(label, value)
        newcomers.append(Credential(value, value, anchor, anchor + length))
    if _newcomers_fit(newcomers, label, height):
        for cred in newcomers:
            assert cred.anchor_height <= height and cred.anchor_height < cred.expiry_height
            assert label_matches(label, cred.value)

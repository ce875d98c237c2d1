"""Prefix-routed shard overlay: labels, routing, splits and merges.

Shard labels are binary prefixes; together they must stay prefix-free and
cover the whole credential space, so every credential routes to exactly one
shard.  Routing relies on that cover invariant: it is a prefix lookup that
walks the value's bits and stops at the first prefix registered in the
directory, so it costs the depth of the label trie, not the shard count.
Size bounds drive topology: a shard splits on the next bit of its label when
it outgrows s_max and merges into its sibling prefix when it falls under
s_min.  The bootstrap directory is the whole split tree's leaves, which
``split_tree`` cuts from the value-sorted members with the same bit rule
and the same deferral as ``maybe_split``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from operator import attrgetter, not_
from typing import Iterable, Mapping, Sequence

from .credentials import Credential
from .crypto import DIGEST_LEN
from .ledger import Validity, VALID
from .membership import ShardView, perished_before

ROOT_LABEL = ""

_value, _anchor, _expiry = (
    attrgetter(name) for name in ("value", "anchor_height", "expiry_height")
)


def label_matches(label: str, value: bytes) -> bool:
    """True iff the label is a prefix of the value's MSB-first bit string."""
    n = len(label)
    if n == 0:
        return True
    if n > 8 * len(value):
        raise IndexError("bit index outside digest")
    nbytes = (n + 7) // 8
    prefix = int.from_bytes(value[:nbytes], "big") >> (8 * nbytes - n)
    return prefix == int(label, 2)


def check_prefix_free_cover(labels: Iterable[str]) -> Validity:
    """A label set is a valid overlay iff it is prefix-free and covers the
    whole bit space (every infinite bit string has exactly one prefix).

    Labels are strings over ``0`` and ``1`` only.  A prefix-free binary set
    covers the space iff its Kraft sum, the total of ``2 ** -len(label)``,
    is exactly 1 (Kraft-McMillan); it is taken in units of ``2 ** -depth``.
    """
    labels = sorted(labels)
    if not labels:
        return Validity(False, "empty")
    if len(set(labels)) != len(labels):
        return Validity(False, "duplicate")
    # Sorted, every label that extends ``a`` directly follows it: whatever
    # sorts between ``a`` and an extension of ``a`` also extends ``a``.
    # So adjacent pairs are the only ones to check.
    for a, b in zip(labels, labels[1:]):
        if b.startswith(a):
            return Validity(False, "prefix-collision")
    depth = max(len(l) for l in labels)
    if depth > 8 * DIGEST_LEN:
        return Validity(False, "depth")
    if any(l.strip("01") for l in labels):
        return Validity(False, "non-binary")
    if sum(1 << (depth - len(l)) for l in labels) != 1 << depth:
        return Validity(False, "coverage-gap")
    return VALID


def route(directory: Mapping[str, ShardView], value: bytes) -> str:
    """Label of the unique shard whose prefix matches the credential value.

    Under a prefix-free cover exactly one prefix of the value is a label,
    so the shortest registered prefix is the answer.
    """
    # A leading 0x01 sentinel keeps the value's leading zero bits.
    bits = bin(int.from_bytes(b"\x01" + value, "big"))[3:]
    for depth in range(len(bits) + 1):
        prefix = bits[:depth]
        if prefix in directory:
            return prefix
    raise LookupError("no shard label matches the value: broken cover")


def route_all(directory: Mapping[str, ShardView], values: Sequence[bytes]) -> list[str]:
    """``[route(directory, v) for v in values]``, calling ``route`` once per
    label interval the values fall in.

    The values are walked in sorted order.  The label ``route`` gives a
    ``DIGEST_LEN``-wide value is a prefix of every value up to the end of
    its interval, ``(int(label, 2) + 1) << (256 - len(label))``, and no
    shorter label is a prefix of those values either, so ``route`` would
    give each the same label.  A root or all-ones label ends at ``2 **
    256``, past every value; a value of another width goes to ``route``.
    """
    labels: list[str] = [ROOT_LABEL] * len(values)
    end = 0
    for i in sorted(range(len(values)), key=values.__getitem__):
        value = values[i]
        if len(value) != DIGEST_LEN:
            labels[i] = route(directory, value)
            continue
        if int.from_bytes(value, "big") >= end:
            label = route(directory, value)
            end = (int("0" + label, 2) + 1) << (8 * DIGEST_LEN - len(label))
        labels[i] = label
    return labels


def _split_bit(label: str) -> tuple[int, int]:
    """The byte index and mask of the bit a split of ``label`` partitions
    on: the value's MSB-first bit right after the label."""
    byte, shift = divmod(len(label), 8)
    return byte, 0x80 >> shift


def _children(label: str, zeros: Sequence[Credential], ones: Sequence[Credential], s_min: int):
    """The two children of ``label`` as ``(label, members)`` pairs, or None:
    a split that would leave either child under s_min is deferred (the
    shard simply stays oversized until churn rebalances it)."""
    if len(zeros) < s_min or len(ones) < s_min:
        return None
    return ((label + "0", tuple(zeros)), (label + "1", tuple(ones)))


def maybe_split(label: str, view: ShardView, s_min: int, s_max: int) -> tuple | None:
    """Split decision for an oversized shard: the two children as
    ``(label, members)`` pairs, or None.

    Members are partitioned by the credential bit right after the current
    prefix, each child keeping the member order; ``_children`` defers a
    lopsided split.
    """
    if len(view.core) + len(view.spare) <= s_max:
        return None
    byte, mask = _split_bit(label)
    zeros, ones = [], []
    for c in view.members():
        (ones if c.value[byte] & mask else zeros).append(c)
    return _children(label, zeros, ones, s_min)


def split_tree(members: tuple[Credential, ...], s_min: int, s_max: int) -> dict[str, tuple]:
    """The shards left when ``maybe_split`` is applied from the root down
    until no shard splits, as label -> members in label order; ``members``
    must be in value order.

    Each label's members are one contiguous run of ``members``: in value
    order under a common prefix, the bit a split reads is 0 up to some
    member and 1 from it on, so a run is cut where that bit turns to 1,
    found by bisection, and each child run stays in value order.  A
    child's members do not depend on the order its ancestors split in.
    """
    leaves = {}
    pending = [(ROOT_LABEL, members)]
    while pending:
        label, run = pending.pop()
        children = None
        if len(run) > s_max:
            byte, mask = _split_bit(label)
            cut = bisect_left(run, mask, key=lambda c: c.value[byte] & mask)
            children = _children(label, run[:cut], run[cut:], s_min)
        if children is None:
            leaves[label] = run
        else:
            pending.extend(children)
    return dict(sorted(leaves.items()))


def maybe_merge(
    label: str, view: ShardView, directory: Mapping[str, ShardView], s_min: int
) -> tuple | None:
    """Merge decision for an undersized shard: ``(new_label, absorbed,
    members)``, or None.

    The shard folds into its sibling subtree: every shard sharing the
    parent prefix is absorbed into one shard under that prefix.  The root
    shard has no sibling and cannot merge; its core stays below s_min,
    which keeps it out of block production.
    """
    if len(view.core) + len(view.spare) >= s_min:
        return None
    if label == ROOT_LABEL:
        return None
    parent = label[:-1]
    absorbed = tuple(sorted(l for l in directory if l.startswith(parent)))
    members: list[Credential] = []
    for l in absorbed:
        members.extend(directory[l].members())
    members.sort(key=_value)
    return parent, absorbed, tuple(members)


def _newcomers_fit(newcomers: list[Credential], label: str, height: int) -> bool:
    """Whether every newcomer is anchored by ``height``, before its expiry,
    and routes to ``label``, judged in ``min``/``max`` passes: the latest
    anchor against ``height`` and the earliest expiry, and the values
    against the label's interval of ``DIGEST_LEN``-wide values.  A byte
    string between those bounds has the label as its prefix whatever its
    width, so a True verdict is the per-member one; a False one may not
    be."""
    if not newcomers:
        return True
    latest = max(map(_anchor, newcomers))
    pad = 8 * DIGEST_LEN - len(label)
    if latest > height or latest >= min(map(_expiry, newcomers)) or pad < 0:
        return False
    values = list(map(_value, newcomers))
    low = int("0" + label, 2) << pad
    return (
        low.to_bytes(DIGEST_LEN, "big") <= min(values)
        and max(values) <= (low | ((1 << pad) - 1)).to_bytes(DIGEST_LEN, "big")
    )


def verify_view_transition(
    old_view: ShardView,
    new_view: ShardView,
    height: int,
    s_min: int,
) -> Validity:
    """Structural check of a diffused view against the registered one.

    A lying shard can misreport its core or omit newcomers, but it cannot
    relabel itself, skip a height, shrink or grow the core, keep expired
    members, carry credentials outside their window, or claim members
    routed elsewhere.  Signatures are not looked at here: the previous
    core's quorum is counted once, by ``install_and_diffuse``.

    ``old_view`` is registered, so ``form_view`` built it or this check
    passed it: its members already route to the label and anchor in their
    window.  Only the members not carried over from it are checked for
    routing and window; every member is checked for expiry.
    """
    if new_view.label != old_view.label:
        return Validity(False, "label")
    if new_view.height != height:
        return Validity(False, "height")
    # Core is full-size whenever the shard has enough members; an honest
    # degraded shard promotes everyone it has.
    if len(new_view.core) != min(s_min, len(new_view.core) + len(new_view.spare)):
        return Validity(False, "core-size")
    # Expiry is judged against the last accepted block (height - 1): a
    # credential expiring exactly now still produces this height's block
    # and hands over afterwards.
    if new_view.core is old_view.core and new_view.spare is old_view.spare:
        # The old view's own tuples: every member was carried over.
        if perished_before(new_view.core, height) or perished_before(new_view.spare, height):
            return Validity(False, "expired-member")
        return VALID
    # Carried-over members are the old view's own objects.  Both views are
    # alive for the whole call, so an id names one credential, and an id
    # test is far cheaper than hashing a credential.
    carried = set(map(id, old_view.members()))
    members = new_view.members()
    if not perished_before(members, height) and _newcomers_fit(
        list(compress(members, map(not_, map(carried.__contains__, map(id, members))))),
        new_view.label,
        height,
    ):
        return VALID
    # Some member fails: find the first, for its reason.
    for cred in members:
        if cred.expiry_height < height:
            return Validity(False, "expired-member")
        if id(cred) in carried:
            continue
        if cred.anchor_height > height or cred.anchor_height >= cred.expiry_height:
            return Validity(False, "window")
        if not label_matches(new_view.label, cred.value):
            return Validity(False, "routing")
    return VALID

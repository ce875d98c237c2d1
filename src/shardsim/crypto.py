"""Hash-based stand-ins for the cryptographic primitives the simulator relies on.

Everything here is deterministic: digests come from SHA-256, key pairs are
derived from seed material, and signatures / VRF outputs are recomputable
from public data.  Unforgeability is therefore a structural property of the
simulation, not of the math: adversary strategy code only ever receives the
key pairs of corrupted users and never fabricates digests for keys it does
not hold.

The contract:

- Every hash use site hashes under its own context tag, and
  :func:`tagged_hash` length-prefixes the tag and every part, so distinct
  argument lists never share a preimage.  The other hashing forms give the
  digests :func:`tagged_hash` gives the same parts.
- :func:`tagged_hash_batch` is the one kernel of the per-member digests
  (keys, signatures, VRF values and proofs, credential values).  Each batch
  form (:func:`keygen_batch`, :func:`sign_batch`, :func:`verify_sig_batch`,
  :func:`vrf_eval_batch`, :func:`vrf_verify_batch`) equals its
  one-at-a-time form, which is a batch of one.
- :class:`KeyPair`, :class:`Signature` and :class:`VrfOutput` are named
  tuples; a batch builds them with :func:`new_records`.  A named tuple
  equals any tuple with the same fields, so a check accepts only its own
  record type.  A key pair from :func:`keygen_batch` holds the ``pk`` its
  ``sk`` derives, and signing and evaluation use that ``pk``.
- Verification compares every entry with its expected digest.  Each of
  ``sign_batch`` and ``vrf_eval_batch`` keeps a record of the last batch it
  issued; a verifying batch over the same message or input reads the
  expected digests of the pks that record holds from it, as an ideal
  signature functionality answers from its list of issued signatures
  (Canetti's F_SIG, CSFW 2004), and hashes the others.
- :class:`Prg` gives one fixed stream per seed, with unbiased draws.

``tests/test_crypto.py`` freezes the PRG stream and a set of tagged
digests, and checks the batch forms against :func:`tagged_hash` and the
one-at-a-time forms.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import repeat
from operator import add, itemgetter
from typing import Iterable, NamedTuple, Sequence

DIGEST_LEN = 32
ZERO_DIGEST = b"\x00" * DIGEST_LEN

_WORD_BYTES = 8
_WORD_SPACE = 2 ** (8 * _WORD_BYTES)


def encode_bytes(data: bytes) -> bytes:
    """Length-prefixed byte string (4-byte big-endian prefix)."""
    return len(data).to_bytes(4, "big") + data


def encode_int(value: int) -> bytes:
    """8-byte big-endian signed integer."""
    return value.to_bytes(8, "big", signed=True)


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode("utf-8"))


def hash_digest(data: bytes) -> bytes:
    """Plain 32-byte digest of ``data``."""
    return hashlib.sha256(data).digest()


def hash_digest_chunks(chunks: Iterable[bytes]) -> bytes:
    """``hash_digest(b"".join(chunks))``, fed one chunk at a time."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


# Tag -> SHA-256 state fed ``len(tag) || tag``.  Every caller passes a byte
# literal, so this holds one entry per tag in the source.  The states are
# only ever copied, never updated.
_TAG_STATES: dict[bytes, "hashlib._Hash"] = {}


def _prime(tag: bytes) -> "hashlib._Hash":
    primed = _TAG_STATES[tag] = hashlib.sha256(len(tag).to_bytes(1, "big") + tag)
    return primed


def tagged_hash(tag: bytes, *parts: bytes) -> bytes:
    """Digest of ``parts`` under a domain-separation ``tag``.

    The tag and every part are length-prefixed, so distinct argument lists
    can never produce the same preimage.
    """
    h = (_TAG_STATES.get(tag) or _prime(tag)).copy()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


# The length prefix of a ``DIGEST_LEN``-wide part.
_WIDE_PREFIX = DIGEST_LEN.to_bytes(4, "big")


def _all_wide(parts: Sequence[bytes]) -> bool:
    return set(map(len, parts)) <= {DIGEST_LEN}


def _digests(state: "hashlib._Hash", preimages: Iterable[bytes]) -> list[bytes]:
    """The digest of each preimage fed to its own copy of ``state``: the
    one per-member hashing loop."""
    copy = state.copy
    digests = []
    for preimage in preimages:
        h = copy()
        h.update(preimage)
        digests.append(h.digest())
    return digests


def tagged_hash_batch(
    tag: bytes,
    firsts: Sequence[bytes],
    shared: bytes | None = None,
    lasts: Sequence[bytes] | None = None,
) -> list[bytes]:
    """``[tagged_hash(tag, a, shared) for a in firsts]``, or with ``lasts``
    ``[tagged_hash(tag, a, shared, c) for a, c in zip(firsts, lasts)]``;
    a ``shared`` of None is left out, so ``tagged_hash_batch(tag, firsts)``
    is ``[tagged_hash(tag, a) for a in firsts]``.  The one kernel of every
    per-member digest.

    Each preimage past the primed tag state is framed in one expression and
    hashed in one update.  When every first and last part is ``DIGEST_LEN``
    bytes wide, their length prefixes are constants: the first one is fed
    once to a copy of the tag state and the last one rides on the shared
    part's framing.  Any other width frames each part on its own."""
    state = _TAG_STATES.get(tag) or _prime(tag)
    mid = b"" if shared is None else encode_bytes(shared)
    if _all_wide(firsts) and (lasts is None or _all_wide(lasts)):
        state = state.copy()
        state.update(_WIDE_PREFIX)
        if lasts is not None:
            mid += _WIDE_PREFIX
    else:
        firsts = map(encode_bytes, firsts)
        if lasts is not None:
            lasts = map(encode_bytes, lasts)
    if lasts is not None:
        preimages = map(b"".join, zip(firsts, repeat(mid), lasts))
    elif mid:
        preimages = map(add, firsts, repeat(mid))
    else:
        preimages = firsts
    return _digests(state, preimages)


def encode_parts(parts: Sequence[bytes]) -> bytes:
    """``b"".join(map(encode_bytes, parts))``, the framing ``tagged_hash``
    gives ``parts``, for ``tagged_hash_framed``.  A run of ``DIGEST_LEN``-wide
    parts is joined on their one length prefix."""
    if _all_wide(parts):
        return _WIDE_PREFIX + _WIDE_PREFIX.join(parts) if parts else b""
    return b"".join(map(encode_bytes, parts))


def tagged_hash_framed(tag: bytes, framed: bytes) -> bytes:
    """``tagged_hash(tag, *parts)`` for a caller that already framed its
    parts: ``framed`` is the concatenation of ``encode_bytes(part)`` over
    them, hashed in one update."""
    h = (_TAG_STATES.get(tag) or _prime(tag)).copy()
    h.update(framed)
    return h.digest()


# The length prefix of an ``encode_int`` part.
_INT_PREFIX = len(encode_int(0)).to_bytes(4, "big")


def tagged_hash_indexed(tag: bytes, indices: Iterable[int], *lead: bytes) -> list[bytes]:
    """``[tagged_hash(tag, *lead, encode_int(i)) for i in indices]``, the
    seed material of a run of numbered keys.  The framed ``lead`` and the
    index's length prefix are fed once to a copy of the tag state, and
    each index is hashed in one update by the kernel's loop."""
    state = (_TAG_STATES.get(tag) or _prime(tag)).copy()
    state.update(encode_parts(lead) + _INT_PREFIX)
    return _digests(state, [i.to_bytes(8, "big", signed=True) for i in indices])


class KeyPair(NamedTuple):
    pk: bytes
    sk: bytes


class Signature(NamedTuple):
    value: bytes
    signer_pk: bytes


class VrfOutput(NamedTuple):
    value: bytes
    proof: bytes


_first, _second = itemgetter(0), itemgetter(1)


def new_records(cls, *columns) -> list:
    """``[cls(*fields) for fields in zip(*columns)]``, each record built by
    ``tuple.__new__`` without a Python-level call."""
    return list(map(tuple.__new__, repeat(cls), zip(*columns)))


def keygen_batch(seeds: Sequence[bytes]) -> list[KeyPair]:
    """A key pair per seed material, each secret key and public key hashed
    in one kernel pass.

    The public key is itself a digest of the secret key, so signature and
    VRF checks reduce to pure recomputation.
    """
    sks = tagged_hash_batch(b"sk", seeds)
    return new_records(KeyPair, tagged_hash_batch(b"pk", sks), sks)


def keygen(seed_material: bytes) -> KeyPair:
    """Deterministic key pair from seed material: a batch of one."""
    return keygen_batch((seed_material,))[0]


# The last batch each digest rule issued, as (shared part, framed pks,
# digest columns): ``sign_batch`` keeps its message and (values,) under
# ``b"sig"``, ``vrf_eval_batch`` its input and (values, proofs) under
# ``b"vrf"``, each column a tuple in pk order.  Each batch replaces the
# rule's record, so it holds one batch per rule whatever the run.  The
# shared part is kept as ``bytes``, so a caller that reuses a mutable
# buffer cannot change what a record says was signed.  The pks are kept
# framed in one buffer (``encode_parts``, so two pk sequences match only if
# they are equal): a tuple would keep each pk, and the allocator arenas
# they are scattered over, alive after their run has ended.
_ISSUED: dict[bytes, tuple] = {}


def _issue(rule: bytes, shared: bytes, pks: Sequence[bytes], columns: tuple) -> None:
    _ISSUED[rule] = (bytes(shared), encode_parts(pks), tuple(map(tuple, columns)))


def _unframe(framed: bytes) -> list[bytes]:
    """The parts ``encode_parts`` framed into ``framed``, in order."""
    parts, at = [], 0
    while at < len(framed):
        end = at + 4 + int.from_bytes(framed[at : at + 4], "big")
        parts.append(framed[at + 4 : end])
        at = end
    return parts


def _expected(rule: bytes, pks: Sequence[bytes], shared: bytes, derive) -> tuple:
    """``derive(pks, shared)``, the digest columns of ``pks``.  When the
    rule's last batch was issued over this very ``shared`` part, each pk it
    holds reads its digests from the record, at once when the pks are the
    issued ones in order, and only the others are hashed."""
    issued = _ISSUED.get(rule)
    if issued is None or issued[0] != shared or not pks:
        return derive(pks, shared)
    _, framed, columns = issued
    if framed == encode_parts(pks):
        return columns
    where = {pk: i for i, pk in enumerate(_unframe(framed))}
    missing = [pk for pk in pks if pk not in where]
    if missing:
        # The hashed digests go after the issued ones.
        issued_count = len(columns[0])
        where.update({pk: issued_count + i for i, pk in enumerate(missing)})
        columns = [column + tuple(fresh) for column, fresh in zip(columns, derive(missing, shared))]
    at = [where[pk] for pk in pks]
    return tuple([column[i] for i in at] for column in columns)


def _distinct_pks(entries: Sequence[tuple[bytes, object]]) -> tuple[list[bytes], list[bytes]]:
    """The pk of each entry, and the distinct ones in first-seen order; a
    batch of one skips the dedupe dict."""
    pks = [pk for pk, _ in entries]
    return pks, list(dict.fromkeys(pks)) if len(pks) > 1 else pks


def _per_entry(pks: list[bytes], distinct: list[bytes], digests: Sequence[bytes]):
    """The digests of ``distinct``, one per entry of ``pks``: as they are
    when no pk repeats, else looked up by pk."""
    if len(distinct) == len(pks):
        return digests
    return map(dict(zip(distinct, digests)).__getitem__, pks)


def _sig_digests(pks: Sequence[bytes], msg: bytes) -> tuple[list[bytes]]:
    """The signature value of each pk over ``msg``, as one column: what
    signing makes and verification recomputes."""
    return (tagged_hash_batch(b"sig", pks, msg),)


def sign_batch(kps: Sequence[KeyPair], msg: bytes) -> list[Signature]:
    """``[sign(kp, msg) for kp in kps]``; the batch becomes the ``b"sig"``
    record."""
    pks = [kp.pk for kp in kps]
    columns = _sig_digests(pks, msg)
    _issue(b"sig", msg, pks, columns)
    return new_records(Signature, columns[0], pks)


def sign(kp: KeyPair, msg: bytes) -> Signature:
    return sign_batch((kp,), msg)[0]


def verify_sig_batch(
    signatures: Sequence[tuple[bytes, object]], msg: bytes
) -> list[bool]:
    """``[verify_sig(pk, msg, sig) for pk, sig in signatures]``.  The
    expected value of each distinct pk is read from the ``b"sig"`` record
    when it holds this message and that pk, and is otherwise hashed once;
    every entry is compared either way.  An all-valid batch of more than
    one entry is accepted by whole-column comparisons (record types, signer
    pks, value types, values); any other batch is judged entry by entry."""
    pks, distinct = _distinct_pks(signatures)
    (values,) = _expected(b"sig", distinct, msg, _sig_digests)
    expected = _per_entry(pks, distinct, values)
    if len(pks) > 1:
        expected = list(expected)
        sigs = list(map(_second, signatures))
        if set(map(type, sigs)) <= {Signature} and list(map(_second, sigs)) == pks:
            sig_values = list(map(_first, sigs))
            if set(map(type, sig_values)) <= {bytes} and sig_values == expected:
                return [True] * len(sigs)
    return [
        type(sig) is Signature
        and isinstance(sig.value, bytes)
        and sig.signer_pk == pk
        and sig.value == value
        for (pk, sig), value in zip(signatures, expected)
    ]


def verify_sig(pk: bytes, msg: bytes, sig: object) -> bool:
    """True iff ``sig`` was produced by the holder of ``pk`` over ``msg``.

    Malformed input of any shape yields False rather than an exception.
    """
    return verify_sig_batch(((pk, sig),), msg)[0]


def _vrf_digests(pks: Sequence[bytes], vrf_input: bytes) -> tuple[list[bytes], list[bytes]]:
    """The VRF value and proof of each pk on ``vrf_input``: what evaluation
    makes and verification recomputes.  The proof binds the value."""
    values = tagged_hash_batch(b"vrf", pks, vrf_input)
    return values, tagged_hash_batch(b"vrf-proof", pks, vrf_input, values)


def vrf_eval_batch(kps: Sequence[KeyPair], vrf_input: bytes) -> list[VrfOutput]:
    """``[vrf_eval(kp, vrf_input) for kp in kps]``; the batch becomes the
    ``b"vrf"`` record."""
    pks = [kp.pk for kp in kps]
    values, proofs = _vrf_digests(pks, vrf_input)
    _issue(b"vrf", vrf_input, pks, (values, proofs))
    return new_records(VrfOutput, values, proofs)


def vrf_eval(kp: KeyPair, vrf_input: bytes) -> VrfOutput:
    """Deterministic pseudorandom value plus a proof binding pk and input."""
    return vrf_eval_batch((kp,), vrf_input)[0]


def vrf_verify_batch(
    outputs: Sequence[tuple[bytes, object]], vrf_input: bytes
) -> list[bool]:
    """``[vrf_verify(pk, vrf_input, out) for pk, out in outputs]``: each
    value and proof is compared with the expected one, read from the
    ``b"vrf"`` record as ``verify_sig_batch`` reads the ``b"sig"`` one, or
    hashed once per distinct pk.  The proof is derived over the expected
    value, so a value that is not bytes fails first."""
    pks, distinct = _distinct_pks(outputs)
    values, proofs = _expected(b"vrf", distinct, vrf_input, _vrf_digests)
    return [
        type(out) is VrfOutput
        and isinstance(out.value, bytes)
        and out.value == value
        and out.proof == proof
        for (_, out), value, proof in zip(
            outputs, _per_entry(pks, distinct, values), _per_entry(pks, distinct, proofs)
        )
    ]


def vrf_verify(pk: bytes, vrf_input: bytes, output: object) -> bool:
    return vrf_verify_batch(((pk, output),), vrf_input)[0]


_WORDS_PER_BLOCK = DIGEST_LEN // _WORD_BYTES
_BLOCK_WORDS = struct.Struct(">%dQ" % _WORDS_PER_BLOCK)


class Prg:
    """Deterministic pseudorandom generator over a hash-counter stream.

    Block i of the stream is ``tagged_hash(b"prg", state, encode_int(i))``,
    read as four big-endian 64-bit words in order.  Each instance hashes the
    constant 44-byte prefix of that preimage once, at construction, and
    copies the primed SHA-256 state for every block; the stream is the
    unprimed one, frozen by ``tests/test_crypto.py``.

    Draws are unbiased: 64-bit words are rejection-sampled so that
    ``draw(n)`` is uniform over [1, n] for any n in [1, 2**64].  ``draw(1)``
    consumes no word.  ``draws(n, count)`` is the batch form of the
    shrinking ranges an ordered sample draws, ``draw(n)``, ``draw(n - 1)``
    and so on: it returns the same values and leaves the same state.
    Instances hold one hash state; parallel consumers must each own their own.
    """

    __slots__ = ("state", "counter", "_words", "_prefix")

    def __init__(self, seed: bytes):
        if not isinstance(seed, bytes) or len(seed) == 0:
            raise ValueError("Prg seed must be non-empty bytes")
        self.state = seed if len(seed) == DIGEST_LEN else hash_digest(seed)
        self.counter = 0
        # The current block's unread words, last word first.
        self._words: list[int] = []
        # tagged_hash(b"prg", state, encode_int(counter)) up to the counter.
        self._prefix = hashlib.sha256(
            b"\x03prg" + encode_bytes(self.state) + _INT_PREFIX
        )

    def _block(self, i: int) -> bytes:
        """Block ``i`` of the stream."""
        h = self._prefix.copy()
        h.update(i.to_bytes(8, "big", signed=True))  # encode_int(i)
        return h.digest()

    def draw(self, n: int) -> int:
        """Uniform draw from [1, n]."""
        if not 1 <= n <= _WORD_SPACE:
            raise ValueError("draw range must lie in [1, 2**64]")
        if n == 1:
            return 1
        # Rejection bound keeps the modulo unbiased.
        limit = _WORD_SPACE - (_WORD_SPACE % n)
        while True:
            if not self._words:
                self._words = list(_BLOCK_WORDS.unpack(self._block(self.counter)))
                self._words.reverse()
                self.counter += 1
            word = self._words.pop()
            if word < limit:
                return 1 + (word % n)

    def draws(self, n: int, count: int) -> list[int]:
        """``[self.draw(n - i) for i in range(count)]``, in one batch.

        The words the draws need are hashed in one loop and checked for
        rejection at once: every range m is at most n, so a word below
        ``2**64 - n`` lies below every bound ``2**64 - 2**64 % m``.  If a
        word could be rejected (about n in 2**64 words), the draws are
        replayed one by one.
        """
        if not 1 <= n <= _WORD_SPACE:
            raise ValueError("draw range must lie in [1, 2**64]")
        if not 0 <= count <= n:
            raise ValueError("draw count must lie in [0, n]")
        used = min(count, n - 1)  # a final draw(1) consumes no word
        words = self._words[::-1]
        counter = self.counter
        if used > len(words):
            blocks = -((len(words) - used) // _WORDS_PER_BLOCK)
            data = b"".join(map(self._block, range(counter, counter + blocks)))
            words += struct.unpack(">%dQ" % (_WORDS_PER_BLOCK * blocks), data)
            counter += blocks
        head = words[:used]
        if head and max(head) >= _WORD_SPACE - n:
            # The state is still untouched: replay the draws one by one.
            return [self.draw(n - i) for i in range(count)]
        self.counter = counter
        del words[:used]
        words.reverse()
        self._words = words
        picked = [1 + word % m for word, m in zip(head, range(n, 0, -1))]
        if count > used:
            picked.append(1)
        return picked

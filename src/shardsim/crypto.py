"""Hash-based stand-ins for the cryptographic primitives the simulator relies on.

Everything here is deterministic: digests come from SHA-256, key pairs are
derived from seed material, and signatures / VRF outputs are recomputable
from public data.  Unforgeability is therefore a structural property of the
simulation, not of the math: adversary strategy code only ever receives the
key pairs of corrupted users and never fabricates digests for keys it does
not hold.

:func:`keygen` is the only place that builds a :class:`KeyPair`, so a key
pair's ``pk`` is always the one its ``sk`` derives.  :func:`sign` and
:func:`vrf_eval` take the whole key pair and use that ``pk`` instead of
deriving it again on every call.

Every hash use site hashes under a distinct context tag, so independently
seeded streams (credentials, seeds, signatures, VRF, PRG words) can never
collide.  :func:`tagged_hash` keeps one SHA-256 state per tag, already fed
the tag's framing, and copies it per call; :func:`tagged_hash_framed`
copies the same state for a caller that frames its own parts in one
buffer.  :func:`tagged_hash_pair` and :func:`tagged_hash_triple` serve the
per-member digests (signatures, VRF values and proofs, credential values),
whose parts are two or three digests: when every part is ``DIGEST_LEN``
bytes wide, the framed parts are packed by one struct call and fed in one
update, and any other width takes :func:`tagged_hash`.  The SHA-256 call
costs about the same at these lengths, so what this saves is the per-part
updates and framing.  :class:`Prg` keeps one state already fed everything
of its block preimage but the counter.  Copying a state fed a constant
prefix is the precomputation RFC 2104 section 4 describes for HMAC keys:
the bytes hashed, and so every digest, are the ones the unprimed framing
gives.  ``tests/test_crypto.py`` freezes the PRG stream and a set of
tagged digests, and checks the packed helpers against :func:`tagged_hash`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable

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


# Two and three ``DIGEST_LEN``-wide parts, each after its 4-byte length:
# the framing ``tagged_hash`` gives them, packed in one call.
_TWO_DIGESTS = struct.Struct(f">I{DIGEST_LEN}sI{DIGEST_LEN}s")
_THREE_DIGESTS = struct.Struct(f">I{DIGEST_LEN}sI{DIGEST_LEN}sI{DIGEST_LEN}s")


def tagged_hash_pair(tag: bytes, a: bytes, b: bytes) -> bytes:
    """``tagged_hash(tag, a, b)``.  When both parts are ``DIGEST_LEN``
    bytes wide, the framed preimage is packed by one struct call and fed in
    one update; any other width takes ``tagged_hash``, since ``"32s"`` would
    pad or truncate it."""
    if len(a) != DIGEST_LEN or len(b) != DIGEST_LEN:
        return tagged_hash(tag, a, b)
    h = (_TAG_STATES.get(tag) or _prime(tag)).copy()
    h.update(_TWO_DIGESTS.pack(DIGEST_LEN, a, DIGEST_LEN, b))
    return h.digest()


def tagged_hash_triple(tag: bytes, a: bytes, b: bytes, c: bytes) -> bytes:
    """``tagged_hash(tag, a, b, c)``, packed like ``tagged_hash_pair``."""
    if len(a) != DIGEST_LEN or len(b) != DIGEST_LEN or len(c) != DIGEST_LEN:
        return tagged_hash(tag, a, b, c)
    h = (_TAG_STATES.get(tag) or _prime(tag)).copy()
    h.update(_THREE_DIGESTS.pack(DIGEST_LEN, a, DIGEST_LEN, b, DIGEST_LEN, c))
    return h.digest()


def tagged_hash_framed(tag: bytes, framed: bytes) -> bytes:
    """``tagged_hash(tag, *parts)`` for a caller that already framed its
    parts: ``framed`` is the concatenation of ``encode_bytes(part)`` over
    them, hashed in one update."""
    h = (_TAG_STATES.get(tag) or _prime(tag)).copy()
    h.update(framed)
    return h.digest()


@dataclass(frozen=True)
class KeyPair:
    pk: bytes
    sk: bytes


@dataclass(frozen=True)
class Signature:
    value: bytes
    signer_pk: bytes


@dataclass(frozen=True)
class VrfOutput:
    value: bytes
    proof: bytes


def keygen(seed_material: bytes) -> KeyPair:
    """Deterministic key pair from seed material.

    The public key is itself a digest of the secret key, so signature and
    VRF checks reduce to pure recomputation.
    """
    sk = tagged_hash(b"sk", seed_material)
    return KeyPair(pk=pk_from_sk(sk), sk=sk)


def pk_from_sk(sk: bytes) -> bytes:
    return tagged_hash(b"pk", sk)


def sign(kp: KeyPair, msg: bytes) -> Signature:
    return Signature(value=tagged_hash_pair(b"sig", kp.pk, msg), signer_pk=kp.pk)


def verify_sig(pk: bytes, msg: bytes, sig: object) -> bool:
    """True iff ``sig`` was produced by the holder of ``pk`` over ``msg``.

    Malformed input of any shape yields False rather than an exception.
    """
    if not isinstance(sig, Signature):
        return False
    if not isinstance(sig.value, bytes) or sig.signer_pk != pk:
        return False
    return sig.value == tagged_hash_pair(b"sig", pk, msg)


def vrf_eval(kp: KeyPair, vrf_input: bytes) -> VrfOutput:
    """Deterministic pseudorandom value plus a proof binding pk and input."""
    pk = kp.pk
    value = tagged_hash_pair(b"vrf", pk, vrf_input)
    proof = tagged_hash_triple(b"vrf-proof", pk, vrf_input, value)
    return VrfOutput(value=value, proof=proof)


def vrf_verify(pk: bytes, vrf_input: bytes, output: object) -> bool:
    if not isinstance(output, VrfOutput):
        return False
    if output.value != tagged_hash_pair(b"vrf", pk, vrf_input):
        return False
    return output.proof == tagged_hash_triple(b"vrf-proof", pk, vrf_input, output.value)


_COUNTER_LENGTH_PREFIX = len(encode_int(0)).to_bytes(4, "big")
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
            b"\x03prg" + encode_bytes(self.state) + _COUNTER_LENGTH_PREFIX
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

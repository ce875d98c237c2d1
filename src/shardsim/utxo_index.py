"""The simulation's UTXO state, kept once: the live set and one record per
spent UTXO.

A UTXO created by block ``c`` and spent by block ``s`` is in the set after
block ``a`` exactly when ``c <= a < s`` (genesis UTXOs are pre-aged, so
their ``created_height`` is negative).  No height's set is stored:
``utxo_at`` looks up the one UTXO a credential check needs, and the index
is a read-only mapping that builds an accepted height's set on demand.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from typing import Container, Iterable

from .crypto import Prg
from .ledger import Block, Utxo, spend


class UtxoIndex(Mapping):
    """The live set and the spent index, plus what the per-height loop
    walks: the renewal schedule (live pks by ``created_height %
    epoch_length``), the sorted live pks and the live pks outside the
    keyring.  ``apply`` alone writes them."""

    def __init__(self, live: dict[bytes, Utxo], epoch_length: int):
        self.live = live
        # pk -> [(utxo, spent_height)], one record per spent UTXO.
        self.spent: dict[bytes, list[tuple[Utxo, int]]] = {}
        self.tip = 0
        self.epoch_length = epoch_length
        self.renewals: list[set[bytes]] = [set() for _ in range(epoch_length)]
        for pk, utxo in live.items():
            self.renewals[utxo.created_height % epoch_length].add(pk)
        self.sorted_pks = sorted(live)
        # Genesis pays keyring keys only, so none is outside the keyring.
        self.outside_keyring: set[bytes] = set()

    def apply(self, block: Block, keyring: Container[bytes]):
        """Spend an accepted, validated block on the live set in place, one
        transaction at a time.  The keyring only grows, and a key joins it
        before its first output exists, so a UTXO outside the keyring stays
        outside for its life."""
        height = block.header.height
        live, pks, renewals, epoch = self.live, self.sorted_pks, self.renewals, self.epoch_length
        for tx in block.body:
            for pk in tx.inputs:
                utxo = live[pk]
                self.spent.setdefault(pk, []).append((utxo, height))
                renewals[utxo.created_height % epoch].discard(pk)
                del pks[bisect_left(pks, pk)]
                self.outside_keyring.discard(pk)
            spend(live, tx, height)
            for out in tx.outputs:
                renewals[height % epoch].add(out.pk)
                insort(pks, out.pk)
                if out.pk not in keyring:
                    self.outside_keyring.add(out.pk)
        self.tip = height

    def utxo_at(self, pk: bytes, height: int) -> Utxo | None:
        """The UTXO ``pk`` held in the set after block ``height``; None if it
        held none, or if ``height`` is not an accepted height."""
        if not 0 <= height <= self.tip:
            return None
        utxo = self.live.get(pk)
        if utxo is not None and utxo.created_height <= height:
            return utxo
        for utxo, spent_height in self.spent.get(pk, ()):
            if utxo.created_height <= height < spent_height:
                return utxo
        return None

    def __getitem__(self, height: int) -> dict[bytes, Utxo]:
        if not 0 <= height <= self.tip:
            raise KeyError(height)
        held = ((pk, self.utxo_at(pk, height)) for pk in self.live.keys() | self.spent.keys())
        return {pk: utxo for pk, utxo in held if utxo is not None}

    def __iter__(self):
        return iter(range(self.tip + 1))

    def __len__(self) -> int:
        return self.tip + 1

    def due_renewals(self, height: int, participation: Mapping[bytes, bool]) -> list[bytes]:
        """Participating pks whose credential renews at ``height``, sorted.

        A UTXO renews at every multiple of the epoch after its creation, so
        only the schedule entry of ``height``'s residue is walked; ``apply``
        keeps each entry equal to the live pks created under its residue.
        """
        epoch, live = self.epoch_length, self.live
        return [
            pk
            for pk in sorted(self.renewals[height % epoch])
            if participation.get(pk) and height >= live[pk].created_height + epoch
        ]

    def draw_senders(
        self, count: int, prg: Prg, excluded: Iterable[Iterable[bytes]]
    ) -> list[bytes]:
        """Up to ``count`` distinct pks drawn with ``prg`` from the sorted
        live pks outside the groups in ``excluded`` and inside the keyring,
        as if popped from that filtered list.  The excluded keys are few, so
        only their positions are looked up, and each draw is mapped to the
        position of the candidate it picks."""
        live, pks = self.live, self.sorted_pks
        groups = (*excluded, self.outside_keyring)
        taken = sorted({bisect_left(pks, pk) for group in groups for pk in group if pk in live})
        senders = []
        for _ in range(count):
            n_candidates = len(pks) - len(taken)
            if not n_candidates:
                break
            pick = prg.draw(n_candidates) - 1
            # The candidate at ``pick`` sits at the least position i with
            # pick + 1 candidates in pks[: i + 1].
            lo, hi = pick, pick + len(taken)
            while lo < hi:
                mid = (lo + hi) // 2
                if mid + 1 - bisect_right(taken, mid) > pick:
                    hi = mid
                else:
                    lo = mid + 1
            insort(taken, lo)
            senders.append(pks[lo])
        return senders

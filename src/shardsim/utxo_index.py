"""The simulation's UTXO state, kept once: the live set and one record per
spent UTXO.

A UTXO created by block ``c`` and spent by block ``s`` is in the set after
block ``a`` exactly when ``c <= a < s`` (genesis UTXOs are pre-aged, so
their ``created_height`` is negative).  No height's set is stored:
``utxo_at`` looks up the one UTXO a credential check needs, and the index
is a read-only mapping that builds an accepted height's set on demand.
The index knows no keys: whether the run holds a pk's key is read from
``Simulation.keyring`` where a key is needed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Mapping
from typing import Iterable

from .crypto import Prg
from .ledger import Block, Utxo, spend
from .sampling import sample_without_replacement


class UtxoIndex(Mapping):
    """The live set and the spent index, plus what the per-height loop
    walks: the renewal schedule (live pks by ``created_height %
    epoch_length``) and the sorted live pks.  ``apply`` alone writes
    them."""

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

    def apply(self, block: Block):
        """Spend an accepted, validated block on the live set in place, one
        transaction at a time."""
        height = block.header.height
        live, pks, renewals, epoch = self.live, self.sorted_pks, self.renewals, self.epoch_length
        for tx in block.body:
            for pk in tx.inputs:
                utxo = live[pk]
                self.spent.setdefault(pk, []).append((utxo, height))
                renewals[utxo.created_height % epoch].discard(pk)
                del pks[bisect_left(pks, pk)]
            spend(live, tx, height)
            for out in tx.outputs:
                renewals[height % epoch].add(out.pk)
                insort(pks, out.pk)
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

    def due_renewals(self, height: int) -> list[bytes]:
        """Live pks whose credential renews at ``height``, sorted.

        A UTXO renews at every multiple of the epoch after its creation, so
        only the schedule entry of ``height``'s residue is walked; ``apply``
        keeps each entry equal to the live pks created under its residue.
        ``views.deliver_joins`` keeps the pks whose key the run holds.
        """
        epoch, live = self.epoch_length, self.live
        return [
            pk
            for pk in sorted(self.renewals[height % epoch])
            if height >= live[pk].created_height + epoch
        ]

    def draw_senders(
        self, count: int, prg: Prg, excluded: Iterable[Iterable[bytes]]
    ) -> list[bytes]:
        """Up to ``count`` distinct pks drawn with ``prg`` from the sorted
        live pks outside the groups in ``excluded``, by the shared ordered
        sampler.  The excluded keys are few, so only their positions are
        looked up and cut out of the sorted pks."""
        live, pks = self.live, self.sorted_pks
        taken = sorted({bisect_left(pks, pk) for group in excluded for pk in group if pk in live})
        candidates = []
        start = 0
        for i in taken:
            candidates += pks[start:i]
            start = i + 1
        candidates += pks[start:]
        return sample_without_replacement(prg, candidates, min(count, len(candidates)))

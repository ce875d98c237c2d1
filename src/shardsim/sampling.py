"""Ordered without-replacement sampling driven by a Prg.

This is deliberately the single implementation used by the live
membership election (core refills, committee election), by the workload's
sender draw (``UtxoIndex.draw_senders``) and by the Monte Carlo estimators
that model those elections, so the statistics being measured are the
statistics of the deployed code path.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .crypto import Prg

T = TypeVar("T")


def sample_without_replacement(prg: Prg, items: Sequence[T], count: int) -> list[T]:
    """Draw ``count`` items from ``items`` without replacement.

    Each step draws an index j in [1, remaining] and removes the j-th
    element of the remaining ordered pool, matching the election rule.
    The indices come from one ``prg.draws(len(items), count)`` batch, which
    equals the step-by-step ``prg.draw(remaining)`` calls.
    """
    pool = list(items)
    if not 0 <= count <= len(pool):
        raise ValueError("sample count must lie in [0, len(items)]")
    if not count:
        return []
    return [pool.pop(j - 1) for j in prg.draws(len(pool), count)]

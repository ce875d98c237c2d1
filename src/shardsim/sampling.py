"""Ordered without-replacement sampling driven by a Prg.

This is deliberately the single implementation used both by the live
membership election (core refills, committee election) and by the Monte
Carlo estimators that model those elections, so the statistics being
measured are the statistics of the deployed code path.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .crypto import Prg

T = TypeVar("T")


def sample_without_replacement(prg: Prg, items: Sequence[T], count: int) -> list[T]:
    """Draw ``count`` items from ``items`` without replacement.

    Each step draws an index j in [1, remaining] and removes the j-th
    element of the remaining ordered pool, matching the election rule.
    """
    pool = list(items)
    if count > len(pool):
        raise ValueError("cannot sample more items than the pool holds")
    picked: list[T] = []
    for _ in range(count):
        j = prg.draw(len(pool))
        picked.append(pool.pop(j - 1))
    return picked

"""Run verdicts: safety over the observer chains and liveness over the
recorded transaction latencies; ``InvariantError`` is a fault in shardsim
instead, not a verdict."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ledger import Block, header_hash
from .records import Metrics


class InvariantError(RuntimeError):
    """An internal invariant of the simulation broke: a fault in shardsim,
    not a verdict on the scenario."""


@dataclass(frozen=True)
class LivenessReport:
    all_included: bool
    all_within_window: bool
    fraction_within_window: float
    pending: tuple[str, ...]


def check_safety(chains: Sequence[Sequence[Block]]) -> bool:
    """All pairs of honest chains agree at every common height; prefix
    differences (a node lagging behind) are fine."""
    hashes = [[header_hash(block.header) for block in chain] for chain in chains]
    for i, a in enumerate(hashes):
        for b in hashes[i + 1 :]:
            common = min(len(a), len(b))
            if a[:common] != b[:common]:
                return False
    return True


def check_liveness(metrics: Metrics, window: int = 2) -> LivenessReport:
    """Every honest tx delivered during the run must land in an accepted
    block; landing within ``window`` blocks is the efficiency sub-verdict."""
    ids = sorted(tx for tx, rec in metrics.latencies.items() if rec["honest"])
    pending = []
    within = 0
    for tx in ids:
        rec = metrics.latencies[tx]
        if rec["included"] is None:
            pending.append(tx)
            continue
        if rec["included"] - rec["delivered"] <= window:
            within += 1
    return LivenessReport(
        all_included=not pending,
        all_within_window=within == len(ids),
        fraction_within_window=within / len(ids) if ids else 1.0,
        pending=tuple(pending),
    )

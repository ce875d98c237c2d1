"""Primitive micro-benchmarks, run with tracing off.

Inputs come from the workloads: the bootstrap directory and views of the
``wide`` scenario, and the first transaction-carrying block of a short
``txheavy`` scenario together with the UTXO set it was applied to.
"""

from __future__ import annotations

import itertools
import statistics
import time

from . import workloads

REPEATS = 5
TARGET_S = 0.05  # per timed repeat


def ns_per_call(fn, warmup: int = 3) -> float:
    """Median over ``REPEATS`` timed loops of ``fn()``, in ns per call."""
    for _ in range(warmup):
        fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= TARGET_S / 4:
            break
        n *= 4
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e9 * statistics.median(samples)


def wide_inputs(seed: int):
    from shardsim.harness import ScenarioConfig, Simulation

    cfg = ScenarioConfig.from_mapping(workloads.wide_mappings(seed)[0])
    sim = Simulation(cfg)
    directory = dict(sim.directory)
    views = sorted(directory.values(), key=lambda v: (len(v.members()), v.label))
    values = [c.value for v in views for c in v.members()[:2]]
    return directory, views[len(views) // 2], values


def txheavy_inputs(seed: int):
    """Block 2 of a 3-height txheavy run carries the transactions issued
    at height 1; returns everything ``validate_block`` needs for it."""
    from shardsim.harness import ScenarioConfig, Simulation

    cfg = ScenarioConfig.from_mapping(workloads.txheavy_mappings(seed, heights=3)[0])
    sim = Simulation(cfg)
    sim.run()
    block = sim.chain[2]
    state = sim.utxo_history[1]
    prev = sim.chain[1].header
    committee = tuple(sorted(sim.directory))
    return state, dict(sim.directory), block, prev, sim.rules, committee


def run_all(seed: int) -> dict:
    from shardsim.crypto import Prg, tagged_hash
    from shardsim.ledger import apply_block, validate_block
    from shardsim.membership import view_digest
    from shardsim.overlay import route

    directory, view, values = wide_inputs(seed)
    state, tx_directory, block, prev, rules, committee = txheavy_inputs(seed)
    if not block.body:
        raise RuntimeError("txheavy micro-benchmark block carries no transactions")
    validity = validate_block(state, tx_directory, block, prev, rules, committee)
    if not validity:
        raise RuntimeError(f"txheavy micro-benchmark block invalid: {validity.reason}")

    digest = tagged_hash(b"bench", b"seed")
    counter = (7).to_bytes(8, "big")
    prg = Prg(digest)
    routed = itertools.cycle(values)

    return {
        "tagged_hash": ns_per_call(lambda: tagged_hash(b"bench", digest, counter)),
        "Prg.draw": ns_per_call(lambda: prg.draw(100)),
        "view_digest": ns_per_call(lambda: view_digest(view)),
        "route": ns_per_call(lambda: route(directory, next(routed))),
        "validate_block": ns_per_call(
            lambda: validate_block(state, tx_directory, block, prev, rules, committee)
        ),
        "apply_block": ns_per_call(lambda: apply_block(state, block)),
    }

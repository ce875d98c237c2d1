"""Workload inputs, generated from the workload seed.

Every builder here is a pure function of the seed and imports nothing from
``shardsim``: the program under test only ever sees the generated configs
and Monte Carlo parameters.  Seed ``DEFAULT_SEED`` reproduces the
acceptance corpus names and master seeds, and is the seed the pinned
outputs in ``golden.py`` belong to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

SCENARIO_WORKLOADS = ("corpus", "wide", "txheavy")
WORKLOADS = SCENARIO_WORKLOADS + ("montecarlo",)

# The acceptance corpus grid, in the order its builder walks it.
STRATEGIES = ("passive", "silent", "equivocate", "grind", "worst-case-seed")
EPOCH_LENGTHS = (3, 5, 10)
POPULATIONS = (256, 512, 1024, 2048)
ADVERSARY_STAKE = (Fraction(1, 100), Fraction(1, 20))

# Solver output for (stake fraction, population) at kappa=20, stake cap 1,
# core bound 1/2; the same frozen table the acceptance tests cross-check.
SOLVED_CORE_SIZE = {
    (Fraction(1, 100), 256): 169,
    (Fraction(1, 100), 512): 172,
    (Fraction(1, 100), 1024): 174,
    (Fraction(1, 100), 2048): 177,
    (Fraction(1, 20), 256): 199,
    (Fraction(1, 20), 512): 203,
    (Fraction(1, 20), 1024): 206,
    (Fraction(1, 20), 2048): 209,
}

CORPUS_STRIDE = 7

# Monte Carlo grids: (shard size, malicious in shard, committee size) for
# the core election, and (N, K, S, credential fraction, shard bound) for
# the uniform assignment.
MC_CORE_MU = Fraction(1, 3)
MC_CORE_GRID = (
    (60, 18, 30),
    (100, 25, 60),
    (100, 30, 90),
    (120, 24, 60),
    (200, 50, 120),
)
MC_CORE_TRIALS = 4_000
MC_ASSIGN_GRID = tuple(
    (1024, 16, 64, cred_frac, mu_shard)
    for cred_frac in (Fraction(1, 10), Fraction(1, 4))
    for mu_shard in (Fraction(2, 5), Fraction(1, 2))
)
MC_ASSIGN_TRIALS = 25_000
MC_GRIND = (8, 3)  # adversary keys, shard-label bits
MC_GRIND_EPOCHS = 2_000


def _suite_mapping(idx: int, mu: Fraction, n: int, epoch_length: int, strategy: str, seed: int) -> dict:
    s_min = SOLVED_CORE_SIZE[(mu, n)]
    master = f"suite-{idx:03d}" if seed == DEFAULT_SEED else f"suite-{idx:03d}-seed{seed}"
    return {
        "schema_version": 1,
        "name": f"suite-{idx:03d}-{strategy}-n{n}-t{epoch_length}",
        "master_seed": master,
        "epoch_length": epoch_length,
        "heights": 30,
        "s_min": s_min,
        "s_max": 2 * s_min,
        "mu_core": "1/2",
        "mu_corrupted": "1/2",
        "mu": str(mu),
        "stake_cap": 1,
        "kappa": 20.0,
        "f_shard": 0,
        "genesis": [{"count": n, "stake": 1}],
        "tx_rate": 2,
        "adversary": {"strategy": strategy},
    }


def corpus_index_grid():
    """(idx, mu, n, epoch_length, strategy) for all 120 corpus entries."""
    idx = 0
    for mu in ADVERSARY_STAKE:
        for n in POPULATIONS:
            for epoch_length in EPOCH_LENGTHS:
                for strategy in STRATEGIES:
                    yield idx, mu, n, epoch_length, strategy
                    idx += 1


def corpus_mappings(seed: int) -> list[dict]:
    """Every ``CORPUS_STRIDE``-th acceptance-corpus scenario: 18 of 120."""
    return [
        _suite_mapping(idx, mu, n, t, strategy, seed)
        for idx, mu, n, t, strategy in corpus_index_grid()
        if idx % CORPUS_STRIDE == 0
    ]


def wide_mappings(seed: int) -> list[dict]:
    """Many small shards: routing and per-key scans grow with N."""
    return [
        {
            "schema_version": 1,
            "name": "bench-wide-n16384",
            "master_seed": f"bench-wide-seed{seed}",
            "epoch_length": 5,
            "heights": 10,
            "s_min": 64,
            "s_max": 128,
            "mu_core": "1/3",
            "mu_corrupted": "1/3",
            "mu": "1/10",
            "stake_cap": 1,
            "kappa": 20.0,
            "f_shard": 0,
            "genesis": [{"count": 16384, "stake": 1}],
            "tx_rate": 2,
            "unsafe_params": True,
        }
    ]


def txheavy_mappings(seed: int, heights: int = 20) -> list[dict]:
    """Few large shards and 200 transactions per height."""
    return [
        {
            "schema_version": 1,
            "name": "bench-txheavy-n8192",
            "master_seed": f"bench-txheavy-seed{seed}",
            "epoch_length": 5,
            "heights": heights,
            "s_min": 256,
            "s_max": 512,
            "mu_core": "1/2",
            "mu_corrupted": "1/2",
            "mu": "1/100",
            "stake_cap": 1,
            "kappa": 20.0,
            "f_shard": 0,
            "genesis": [{"count": 8192, "stake": 1}],
            "tx_rate": 200,
        }
    ]


SCENARIO_BUILDERS = {
    "corpus": corpus_mappings,
    "wide": wide_mappings,
    "txheavy": txheavy_mappings,
}


@dataclass(frozen=True)
class McCase:
    """One Monte Carlo call: ``kind`` is core, assign or grind."""

    kind: str
    key: str
    args: tuple
    seed: str


def montecarlo_cases(seed: int) -> list[McCase]:
    cases = []
    for s, m, s_min in MC_CORE_GRID:
        cases.append(
            McCase(
                "core",
                f"core-{s}-{m}-{s_min}",
                (s, m, s_min, MC_CORE_MU, MC_CORE_TRIALS),
                f"bench-mc-seed{seed}-core-{s}-{m}-{s_min}",
            )
        )
    for n, k, size, cred_frac, mu_shard in MC_ASSIGN_GRID:
        key = f"assign-{cred_frac.numerator}_{cred_frac.denominator}-{mu_shard.numerator}_{mu_shard.denominator}"
        cases.append(
            McCase(
                "assign",
                key,
                (n, k, size, cred_frac, mu_shard, MC_ASSIGN_TRIALS),
                f"bench-mc-seed{seed}-{key}",
            )
        )
    n_adv, bits = MC_GRIND
    cases.append(
        McCase("grind", "grind", (n_adv, bits, MC_GRIND_EPOCHS), f"bench-mc-seed{seed}-grind")
    )
    return cases

"""End-to-end acceptance checks.

One test per acceptance criterion, in order; run with ``pytest -v`` to get
a single pass/fail line each.  The randomized-scenario corpus (criteria 1,
2, 7, 10) is built once per module and shared.  All tolerances and seeds
are pinned inline next to the assertion they guard.
"""

import math
import os
import time
from fractions import Fraction
from itertools import combinations

import pytest

from shardsim.analysis import (
    compare_grind_passive,
    core_corruption_bound,
    exact_any_shard_tail,
    exact_core_tail,
    exact_single_shard_tail_fraction,
    exceedance_threshold,
    hypergeom_pmf,
    monte_carlo_assignment,
    monte_carlo_core,
    mu_cred,
    shard_tail_bound,
    solve_params,
)
from shardsim.harness import ScenarioConfig, message_scaling_report, run_scenario
from shardsim.oracles import check_liveness

STRATEGIES = ("passive", "silent", "equivocate", "grind", "worst-case-seed")
EPOCH_LENGTHS = (3, 5, 10)
POPULATIONS = (256, 512, 1024, 2048)
ADVERSARY_STAKE = (Fraction(1, 100), Fraction(1, 20))

# Frozen solver outputs for (stake fraction, population) at kappa=20,
# stake cap 1, core bound 1/2; recomputed in the fixture and cross-checked
# so silent solver drift cannot quietly re-parameterize the suite.
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


def _suite_configs():
    configs = []
    idx = 0
    for mu in ADVERSARY_STAKE:
        for n in POPULATIONS:
            solved = solve_params(mu, 20.0, n, 1, Fraction(1, 2))
            assert solved.feasible
            assert solved.s_min == SOLVED_CORE_SIZE[(mu, n)]
            for epoch_length in EPOCH_LENGTHS:
                for strategy in STRATEGIES:
                    mapping = {
                        "schema_version": 1,
                        "name": f"suite-{idx:03d}-{strategy}-n{n}-t{epoch_length}",
                        "master_seed": f"suite-{idx:03d}",
                        "epoch_length": epoch_length,
                        "heights": 30,
                        "s_min": solved.s_min,
                        "s_max": 2 * solved.s_min,
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
                    configs.append(ScenarioConfig.from_mapping(mapping))
                    idx += 1
    return configs


@pytest.fixture(scope="module")
def suite():
    return [(cfg,) + run_scenario(cfg) for cfg in _suite_configs()]


def test_criterion_01_safety_suite(suite):
    assert len(suite) >= 100
    assert {cfg.adversary_strategy for cfg, _, _ in suite} == set(STRATEGIES)
    assert all(256 <= cfg.n_credentials <= 2048 for cfg, _, _ in suite)
    assert all(cfg.epoch_length in EPOCH_LENGTHS for cfg, _, _ in suite)
    assert all(cfg.kappa >= 20 and cfg.f_shard == 0 for cfg, _, _ in suite)

    unsafe = [cfg.name for cfg, metrics, _ in suite if not metrics.summary["safety_ok"]]
    assert unsafe == []


def test_criterion_02_liveness_and_efficiency(suite):
    total = within = 0
    for cfg, metrics, _events in suite:
        report = check_liveness(metrics)
        assert report.all_included, (cfg.name, report.pending)
        honest = [rec for rec in metrics.latencies.values() if rec["honest"]]
        total += len(honest)
        late = [
            rec for rec in honest if rec["included"] - rec["delivered"] > 2
        ]
        within += len(honest) - len(late)
        if late:
            kinds = {rec["kind"] for rec in metrics.incidents}
            assert "corrupted-shard" in kinds, cfg.name
    assert total > 0
    assert within / total >= 0.99, f"within-2-blocks fraction {within / total:.4f}"


def test_criterion_03_hypergeometric_pmf_enumeration():
    # Brute force: count committees directly, exact rational arithmetic.
    for s in range(1, 13):
        for m in range(0, s + 1):
            bad = set(range(m))
            for s_min in range(0, s + 1):
                counts = [0] * (s_min + 1)
                for committee in combinations(range(s), s_min):
                    counts[len(bad.intersection(committee))] += 1
                denom = math.comb(s, s_min)
                for k in range(0, s_min + 1):
                    want = Fraction(counts[k], denom)
                    got = hypergeom_pmf(s, m, s_min, k)
                    assert abs(got - float(want)) <= 1e-12, (s, m, s_min, k)


# (shard size, malicious in shard, committee size); all shard fractions < 1/3.
CORE_GRID = (
    (60, 18, 30),
    (100, 25, 60),
    (100, 30, 90),
    (120, 24, 60),
    (200, 50, 120),
)


def test_criterion_04_core_exceedance_bounds():
    mu_core = Fraction(1, 3)
    trials = 100_000
    for s, m, s_min in CORE_GRID:
        mu_shard = Fraction(m, s)
        bound = core_corruption_bound(mu_core, mu_shard, s_min)
        exact = exact_core_tail(s, m, s_min, mu_core)
        assert float(exact) <= bound, (s, m, s_min)

        # The fixed chunk layout gives the same estimate for any worker count.
        est = monte_carlo_core(
            s, m, s_min, mu_core, trials, f"acceptance-c4-{s}-{m}-{s_min}",
            workers=min(os.cpu_count() or 1, 8),
        )
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert est <= bound + 3 * sigma, (s, m, s_min, est, bound)


def test_criterion_05_assignment_exceedance_bounds():
    n, k, shard_size = 1024, 16, 64
    for cred_frac in (Fraction(1, 10), Fraction(1, 4)):
        for mu_shard in (Fraction(2, 5), Fraction(1, 2)):
            exact = exact_any_shard_tail(n, k, shard_size, cred_frac, mu_shard)
            union = shard_tail_bound(mu_shard, cred_frac, shard_size, k)
            assert exact <= union, (cred_frac, mu_shard, float(exact), union)

            # Compared as fractions: at 1/10, k * per_shard lies only a
            # relative 1.4e-13 and 5e-22 above the exact tail, and in the
            # second cell the two round to the same float.
            threshold = exceedance_threshold(mu_shard, shard_size)
            per_shard = exact_single_shard_tail_fraction(threshold, shard_size, n, cred_frac)
            assert per_shard <= exact <= k * per_shard, (cred_frac, mu_shard, float(exact))


def test_criterion_06_credential_fraction_and_solver():
    for mu in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
        assert mu_cred(mu, 1) == mu
    assert abs(float(mu_cred(Fraction(1, 4), 10)) - 10 / 13) <= 1e-12

    for kappa in (10.0, 20.0, 30.0):
        res = solve_params(Fraction(1, 10), kappa, 1024, 1, Fraction(1, 3))
        assert res.feasible, kappa
        target = math.exp(-kappa)
        cred_frac = float(mu_cred(Fraction(1, 10), 1))
        core = core_corruption_bound(Fraction(1, 3), res.mu_shard, res.s_min)
        union = shard_tail_bound(res.mu_shard, cred_frac, res.s_min, 1024 / res.s_min)
        assert core <= target, kappa
        assert union <= target, kappa


def test_criterion_07_view_agreement(suite):
    diverged = [
        cfg.name for cfg, metrics, _ in suite if metrics.summary["view_violations"]
    ]
    assert diverged == []


def _scaling_config(n: int) -> ScenarioConfig:
    return ScenarioConfig.from_mapping(
        {
            "schema_version": 1,
            "name": f"scale-{n}",
            "master_seed": f"acceptance-scale-{n}",
            "epoch_length": 5,
            "heights": 10,
            "s_min": 32,
            "s_max": 128,
            "mu_core": "1/3",
            "mu_corrupted": "1/3",
            "mu": "1/10",
            "stake_cap": 1,
            "kappa": 20.0,
            "f_shard": 0,
            "genesis": [{"count": n, "stake": 1}],
            "tx_rate": 2,
            "unsafe_params": True,
        }
    )


def test_criterion_08_message_scaling():
    t0 = time.monotonic()
    report = message_scaling_report([_scaling_config(n) for n in (256, 1024, 4096)])
    elapsed = time.monotonic() - t0

    per_user = {row["n_credentials"]: row["per_user_messages"] for row in report["rows"]}
    assert per_user[256] > 0
    growth = per_user[4096] / per_user[256]
    assert growth < 4.0, growth
    assert elapsed <= 600.0, elapsed


def test_criterion_09_grind_indistinguishable():
    res = compare_grind_passive(8, 3, 10_000, "mc-grind")
    assert res.epochs == 10_000
    assert res.p_value >= 0.001, (res.chi2, res.p_value)


def test_criterion_10_determinism(suite):
    picks = (suite[0], suite[len(suite) // 2], suite[-1])
    for cfg, metrics, events in picks:
        metrics2, events2 = run_scenario(cfg)
        assert events2.to_jsonl() == events.to_jsonl(), cfg.name
        assert events2.digest() == events.digest()
        assert metrics2.to_csv() == metrics.to_csv(), cfg.name
        assert metrics2.to_json() == metrics.to_json()
        assert metrics2.digest() == metrics.digest()

    core_args = (60, 18, 30, Fraction(1, 3), 20_000, "acceptance-det")
    assert monte_carlo_core(*core_args, workers=1) == monte_carlo_core(
        *core_args, workers=3
    )
    assign_args = (256, 4, 64, Fraction(1, 10), Fraction(2, 5), 20_000, "acceptance-det")
    assert monte_carlo_assignment(*assign_args, workers=1) == monte_carlo_assignment(
        *assign_args, workers=4
    )

"""Security math against brute-force enumeration oracles.

Every probability computed by the analysis module is cross-checked here
against direct enumeration over explicit sample spaces, never against the
module's own formulas.
"""

import itertools
import logging
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency, hypergeom

from shardsim import analysis
from shardsim.analysis import (
    _bit_strings,
    _seed_digest,
    compare_grind_passive,
    core_corruption_bound,
    exact_any_shard_tail,
    exact_core_tail,
    exact_single_shard_tail,
    exact_single_shard_tail_fraction,
    exceedance_threshold,
    hypergeom_pmf,
    monte_carlo_assignment,
    monte_carlo_core,
    mu_cred,
    shard_tail_bound,
    solve_params,
)
from shardsim.credentials import derive_credential
from shardsim.crypto import encode_int, keygen, tagged_hash
from shardsim.overlay import route


def pmf_by_enumeration(s, m, s_min, k):
    """P(exactly k malicious in the elected core) by enumerating every
    possible core of a shard whose first m members are malicious."""
    hits = 0
    total = 0
    for core in itertools.combinations(range(s), s_min):
        total += 1
        if sum(1 for i in core if i < m) == k:
            hits += 1
    return Fraction(hits, total)


def tail_by_enumeration(s, m, s_min, threshold):
    hits = 0
    total = 0
    for core in itertools.combinations(range(s), s_min):
        total += 1
        if sum(1 for i in core if i < m) >= threshold:
            hits += 1
    return Fraction(hits, total)


def test_pmf_matches_enumeration_exhaustively():
    # Small populations, every (m, s_min, k) cell; exact equality expected
    # because both sides are rational-valued.
    for s in range(1, 9):
        for m in range(s + 1):
            for s_min in range(1, s + 1):
                expected = {
                    k: pmf_by_enumeration(s, m, s_min, k) for k in range(s_min + 1)
                }
                for k in range(s_min + 1):
                    got = hypergeom_pmf(s, m, s_min, k)
                    assert abs(got - float(expected[k])) <= 1e-15, (s, m, s_min, k)


def test_pmf_sums_to_one():
    for s, m, s_min in ((10, 3, 4), (12, 12, 5), (9, 0, 9)):
        total = sum(hypergeom_pmf(s, m, s_min, k) for k in range(s_min + 1))
        assert abs(total - 1.0) < 1e-12


def test_pmf_domain():
    with pytest.raises(ValueError):
        hypergeom_pmf(5, 6, 3, 1)  # m > s
    with pytest.raises(ValueError):
        hypergeom_pmf(5, 3, 6, 1)  # s_min > s
    with pytest.raises(ValueError):
        hypergeom_pmf(5, -1, 3, 1)
    # Out of support is zero, not an error.
    assert hypergeom_pmf(5, 2, 3, 3) == 0.0
    assert hypergeom_pmf(5, 2, 3, -1) == 0.0
    assert hypergeom_pmf(5, 5, 3, 0) == 0.0


def test_exceedance_threshold_rounds_up():
    assert exceedance_threshold(Fraction(1, 3), 9) == 3
    assert exceedance_threshold(Fraction(1, 3), 10) == 4
    assert exceedance_threshold(Fraction(1, 2), 64) == 32
    assert exceedance_threshold(Fraction(2, 5), 64) == 26


def test_exact_core_tail_matches_enumeration():
    cases = [
        (10, 4, 5, Fraction(1, 3)),
        (12, 6, 4, Fraction(1, 2)),
        (8, 2, 6, Fraction(1, 4)),
        (9, 9, 3, Fraction(1, 3)),
        (9, 0, 3, Fraction(1, 3)),
    ]
    for s, m, s_min, mu in cases:
        threshold = exceedance_threshold(mu, s_min)
        assert exact_core_tail(s, m, s_min, mu) == tail_by_enumeration(
            s, m, s_min, threshold
        ), (s, m, s_min, mu)


def test_core_corruption_bound_value_and_domain():
    got = core_corruption_bound(Fraction(1, 3), Fraction(1, 5), 256)
    assert got == pytest.approx(0.00011141793776294947, rel=1e-12, abs=0)
    # Re-derive with plain float arithmetic.
    assert got == pytest.approx(math.exp(-2 * (1 / 3 - 1 / 5) ** 2 * 256), rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        core_corruption_bound(Fraction(1, 3), Fraction(1, 3), 100)
    with pytest.raises(ValueError):
        core_corruption_bound(Fraction(1, 5), Fraction(1, 3), 100)


def test_exact_core_tail_below_bound():
    # The concentration bound must dominate the exact tail everywhere the
    # shard's malicious fraction sits below the core bound.
    for s, s_min in ((300, 60), (500, 120)):
        for m in (s // 10, s // 5, s // 4):
            bound = core_corruption_bound(Fraction(1, 3), Fraction(m, s), s_min)
            assert float(exact_core_tail(s, m, s_min, Fraction(1, 3))) <= bound


def test_shard_tail_bound_value_and_domain():
    got = shard_tail_bound(Fraction(1, 5), Fraction(1, 10), 256, 16)
    assert got == pytest.approx(0.095616366320095, rel=1e-12)
    assert got == pytest.approx(16 * math.exp(-2 * (1 / 5 - 1 / 10) ** 2 * 256), rel=1e-12)
    with pytest.raises(ValueError):
        shard_tail_bound(Fraction(1, 10), Fraction(1, 10), 64, 4)


def single_tail_by_enumeration(m, S, N, total_malicious):
    """P(first S slots hold >= m malicious) by enumerating placements."""
    hits = 0
    total = 0
    for placement in itertools.combinations(range(N), total_malicious):
        total += 1
        if sum(1 for i in placement if i < S) >= m:
            hits += 1
    return Fraction(hits, total)


def test_exact_single_shard_tail_matches_enumeration():
    N, S = 8, 4
    for mu in (Fraction(1, 4), Fraction(1, 2)):
        total_malicious = int(mu * N)
        for m in range(0, S + 1):
            expected = single_tail_by_enumeration(m, S, N, total_malicious)
            assert exact_single_shard_tail_fraction(m, S, N, mu) == expected, (m, mu)
            assert exact_single_shard_tail(m, S, N, mu) == pytest.approx(
                float(expected), abs=1e-15
            )


def comb_sum(population, marked, draws, low, high):
    """P(low <= X <= high) for a hypergeometric X, one ``math.comb`` product
    per term."""
    hits = sum(
        math.comb(marked, k) * math.comb(population - marked, draws - k)
        for k in range(max(low, 0), min(high, draws) + 1)
    )
    return Fraction(hits, math.comb(population, draws))


# The Monte Carlo core grid of perfbench and acceptance criterion 4, the
# shards of ``test_exact_core_tail_below_bound``, a population of 6000, and
# small cells at the edges of the support.
CORE_GRID = [
    (60, 18, 30), (100, 25, 60), (100, 30, 90), (120, 24, 60), (200, 50, 120),
    (300, 30, 60), (500, 125, 120), (6000, 1200, 50), (12, 12, 5), (12, 0, 12),
    (7, 3, 7), (5, 5, 0),
]


@pytest.mark.parametrize("s,m,s_min", CORE_GRID)
def test_exact_core_tail_equals_the_direct_comb_sum(s, m, s_min):
    for mu in (Fraction(1, 3), Fraction(1, 2), Fraction(0), Fraction(1)):
        threshold = exceedance_threshold(mu, s_min)
        assert exact_core_tail(s, m, s_min, mu) == comb_sum(s, m, s_min, threshold, s_min)
    for k in range(-1, s_min + 2):
        assert hypergeom_pmf(s, m, s_min, k) == float(comb_sum(s, m, s_min, k, k))


# The perfbench assignment grid (N 1024, shards of 64, credential fractions
# 1/10 and 1/4, shard bounds 2/5 and 1/2), cells where the malicious total
# is below the threshold, above the shard size, or everything, and larger
# populations, one of them with a total that is not integral.
@pytest.mark.parametrize(
    "N,S,cred_frac",
    [(1024, 64, Fraction(1, 10)), (1024, 64, Fraction(1, 4)), (4096, 128, Fraction(1, 10)),
     (64, 16, Fraction(1, 10)), (64, 48, Fraction(3, 4)), (12, 12, Fraction(1)),
     (5001, 64, Fraction(1, 10)), (6000, 64, Fraction(1, 10)), (8192, 64, Fraction(1, 10))],
)
def test_exact_single_shard_tail_equals_the_direct_comb_sum(N, S, cred_frac):
    total_malicious = math.floor(cred_frac * N)
    for mu_shard in (Fraction(2, 5), Fraction(1, 2), Fraction(0), Fraction(1)):
        m = exceedance_threshold(mu_shard, S)
        # P(the shard's S slots hold >= m of the malicious credentials).
        expected = comb_sum(N, S, total_malicious, m, total_malicious)
        assert exact_single_shard_tail_fraction(m, S, N, cred_frac) == expected
        assert exact_single_shard_tail(m, S, N, cred_frac) == float(expected)


def test_exact_any_shard_tail_matches_enumeration():
    # Every placement of M malicious credentials into K consecutive shards
    # of S, for every factorisation N = K * S up to 12, every M and every
    # threshold t.
    for N in range(1, 13):
        for S in (S for S in range(1, N + 1) if N % S == 0):
            K = N // S
            for M in range(N + 1):
                fullest = [
                    max(Counter(i // S for i in placement).values(), default=0)
                    for placement in itertools.combinations(range(N), M)
                ]
                for t in range(S + 1):
                    expected = Fraction(sum(f >= t for f in fullest), len(fullest))
                    got = exact_any_shard_tail(N, K, S, Fraction(M, N), Fraction(t, S))
                    assert got == expected, (N, K, S, M, t)
    with pytest.raises(ValueError):
        exact_any_shard_tail(10, 3, 4, Fraction(1, 4), Fraction(1, 2))


# ``abs=0``: these probabilities lie far below pytest's default absolute
# tolerance of 1e-12.
@pytest.mark.parametrize("N", [10**6, 10**7])
def test_exact_single_shard_tail_agrees_with_scipy_at_large_n(N):
    S, m = 1024, 300
    got = exact_single_shard_tail(m, S, N, Fraction(1, 10))
    assert got == pytest.approx(hypergeom.sf(m - 1, N, N // 10, S), rel=1e-9, abs=0)
    assert hypergeom_pmf(N, N // 10, S, m) == pytest.approx(
        hypergeom.pmf(m, N, N // 10, S), rel=1e-9, abs=0
    )


def test_exact_core_tail_agrees_with_scipy():
    s, m, s_min = 20000, 5000, 4000
    threshold = exceedance_threshold(Fraction(1, 3), s_min)
    got = float(exact_core_tail(s, m, s_min, Fraction(1, 3)))
    assert got == pytest.approx(hypergeom.sf(threshold - 1, s, m, s_min), rel=1e-9, abs=0)
    assert hypergeom_pmf(s, m, s_min, 1000) == pytest.approx(
        hypergeom.pmf(1000, s, m, s_min), rel=1e-9, abs=0
    )


# A naive series, exp(-x/2) times its sum of powers of x/2, underflows to 0
# once x/2 passes about 745, which every quantile does from dof 4095 up.
@pytest.mark.parametrize("dof", [1, 2, 3, 4, 5, 6, 7, 8, 31, 255, 4095, 4096, 131071])
def test_chi2_tail_agrees_with_scipy(dof):
    rel = 1e-12 if dof <= 31 else 1e-9
    for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
        x = chi2.ppf(q, dof)
        assert analysis._chi2_sf(x, dof) == pytest.approx(chi2.sf(x, dof), rel=rel, abs=0)
    assert analysis._chi2_sf(0.0, dof) == 1.0


@pytest.mark.parametrize("n, floor", [(2, 0.317), (4, 0.034), (6, 0.0039), (8, 0.00047)])
def test_chi_square_floor_at_two_labels(n, floor):
    # Yates' correction keeps the separated 2x2 table's statistic at
    # 2 (n - 1)**2 / n, so small tables cannot reach a small p-value.
    got = analysis.chi_square_floor((n, 0), (0, n))
    assert got == pytest.approx(floor, rel=0.02)
    assert got == analysis.chi_square_floor((n - 1, 1), (1, n - 1))
    assert got == analysis._chi_square([(n, 0), (0, n)])[1]


def test_chi_square_floor_is_the_least_p_value_of_any_table():
    # Every table of two rows with n in each over k nonzero columns: none
    # goes below the floor, and one reaches it.
    for n in range(1, 6):
        for k in range(2, min(2 * n, 4) + 1):
            rows = [r for r in itertools.product(range(n + 1), repeat=k) if sum(r) == n]
            tables = [(a, b) for a in rows for b in rows if all(x + y for x, y in zip(a, b))]
            floors = {analysis.chi_square_floor(a, b) for a, b in tables}
            assert len(floors) == 1, (n, k)
            least = min(analysis._chi_square(list(zip(a, b)))[1] for a, b in tables)
            assert least == pytest.approx(floors.pop(), rel=1e-12), (n, k)


def test_exact_single_shard_tail_domain_and_rounding(caplog):
    with pytest.raises(ValueError):
        exact_single_shard_tail(5, 4, 8, Fraction(1, 2))  # m > S
    with pytest.raises(ValueError):
        exact_single_shard_tail(2, 9, 8, Fraction(1, 2))  # S > N
    with caplog.at_level(logging.INFO, logger="shardsim.analysis"):
        exact_single_shard_tail(2, 4, 8, Fraction(1, 3))  # 8/3 not integral
    assert any("not integral" in rec.message for rec in caplog.records)


def test_mu_cred_values():
    for mu in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
        assert mu_cred(mu, 1) == mu
    assert mu_cred(Fraction(1, 4), 10) == Fraction(10, 13)
    assert abs(float(mu_cred(0.25, 10)) - 10 / 13) < 1e-12
    # Larger caps only help the adversary.
    series = [mu_cred(Fraction(1, 4), M) for M in (1, 2, 5, 20)]
    assert series == sorted(series)
    with pytest.raises(ValueError):
        mu_cred(Fraction(0), 1)
    with pytest.raises(ValueError):
        mu_cred(Fraction(1), 1)
    with pytest.raises(ValueError):
        mu_cred(Fraction(1, 4), 0)


def test_mu_cred_worst_case_by_direct_count():
    # Adversary splits mu*total stake into 1-stake coins, honest users hold
    # M-stake coins: the credential fraction follows by counting coins.
    mu, M, total = Fraction(1, 4), 10, 400
    adv_coins = mu * total
    honest_coins = (total - mu * total) / M
    assert mu_cred(mu, M) == adv_coins / (adv_coins + honest_coins)


class TestSolveParams:
    def test_golden_case(self):
        res = solve_params(Fraction(1, 10), 20.0, 4096, 1, Fraction(1, 3))
        assert res.feasible
        assert res.s_min == 766
        assert res.mu_shard == pytest.approx(0.219013, abs=1e-4)

    def test_replay_through_bounds(self):
        for kappa in (10.0, 20.0, 30.0):
            res = solve_params(Fraction(1, 10), kappa, 1024, 1, Fraction(1, 3))
            assert res.feasible, kappa
            target = math.exp(-kappa)
            cred_frac = float(mu_cred(Fraction(1, 10), 1))
            core = core_corruption_bound(Fraction(1, 3), res.mu_shard, res.s_min)
            union = shard_tail_bound(
                res.mu_shard, cred_frac, res.s_min, 1024 / res.s_min
            )
            assert core <= target * (1 + 1e-9), kappa
            assert union <= target * (1 + 1e-9), kappa

    def test_minimality(self):
        # One step below the solved core size the feasibility window closes:
        # replay the window arithmetic directly.
        res = solve_params(Fraction(1, 10), 20.0, 1024, 1, Fraction(1, 3))
        s = res.s_min - 1
        cred_frac = float(mu_cred(Fraction(1, 10), 1))
        lower = cred_frac + math.sqrt((20.0 + math.log(max(1024 / s, 1.0))) / (2 * s))
        upper = 1 / 3 - math.sqrt(20.0 / (2 * s))
        assert lower > upper

    def test_infeasible_when_credential_fraction_dominates(self):
        res = solve_params(Fraction(1, 4), 20.0, 1024, 10, Fraction(1, 3))
        assert not res.feasible
        assert res.s_min is None and res.mu_shard is None
        assert "mu_cred" in res.report["reason"]

    def test_infeasible_within_cap(self):
        # At kappa 10**6 the core bound alone needs a core past the cap.
        res = solve_params(Fraction(1, 10), 1e6, 1024, 1, Fraction(1, 3))
        assert not res.feasible
        assert res.report["reason"] == f"no feasible core size up to {1 << 20}"

    def test_report_carries_residuals(self):
        res = solve_params(Fraction(1, 10), 20.0, 1024, 1, Fraction(1, 3))
        rep = res.report
        assert rep["core_residual"] <= rep["target"]
        assert rep["union_residual"] <= rep["target"]
        assert rep["window"][0] <= res.mu_shard <= rep["window"][1]
        # The published alternative's bound at the solved size, reported
        # for comparison: sqrt((kappa - ln(N / s)) / 2s) above mu_cred.
        printed = 0.1 + math.sqrt((20.0 - math.log(1024 / res.s_min)) / (2 * res.s_min))
        assert rep["printed_form_upper"] == pytest.approx(printed, rel=1e-12, abs=0)


class TestMonteCarloCore:
    def test_within_five_sigma_of_exact(self):
        s, m, s_min = 20, 8, 5
        trials = 20_000
        exact = float(exact_core_tail(s, m, s_min, Fraction(1, 3)))
        est = monte_carlo_core(s, m, s_min, Fraction(1, 3), trials, "mc-core-unit")
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est - exact) <= 5 * sigma, (est, exact)

    def test_deterministic_and_worker_independent(self):
        args = (20, 8, 5, Fraction(1, 3), 5_000, "mc-core-unit")
        a = monte_carlo_core(*args, workers=1)
        b = monte_carlo_core(*args, workers=1)
        c = monte_carlo_core(*args, workers=3)
        assert a == b == c
        assert monte_carlo_core(20, 8, 5, Fraction(1, 3), 5_000, "other") != a

    def test_trials_domain(self):
        with pytest.raises(ValueError):
            monte_carlo_core(10, 2, 3, Fraction(1, 3), 0, "x")

    def test_pool_asks_for_no_more_processes_than_chunks(self, monkeypatch):
        """Nor more than CPUs.  A fake context records the pool size and
        runs the chunks in this process, so no process is started, however
        many workers are asked for."""
        asked = []

        class InlinePool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, jobs):
                return [fn(*job) for job in jobs]

        inline = SimpleNamespace(Pool=InlinePool)
        monkeypatch.setattr(analysis, "get_context", lambda method: inline)
        args = (20, 8, 5, Fraction(1, 3))
        # 100 trials are one chunk, 5,000 are three.
        for trials, workers, cpus, processes in (
            (100, 64, 64, 1),
            (5_000, 64, 64, 3),
            (5_000, 2, 64, 2),
            (5_000, 100_000, 2, 2),
            (5_000, 100_000, None, 1),
        ):
            monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus)
            est = monte_carlo_core(*args, trials, "mc-core-unit", workers=workers)
            assert asked.pop() == processes
            assert est == monte_carlo_core(*args, trials, "mc-core-unit")

    # Exact estimates, frozen: a change to the PRG stream or to the
    # sampler's pop rule moves them.  The trial counts span several
    # 2048-trial chunks, and the cores several PRG blocks per trial.
    @pytest.mark.parametrize(
        "args, exceedances",
        [
            ((20, 8, 5, Fraction(1, 3), 5_000, "mc-core-pin"), 3463),
            ((64, 20, 31, Fraction(1, 3), 2_500, b"mc-core-pin-bytes"), 787),
            ((200, 70, 120, Fraction(1, 3), 300, "mc-core-pin"), 241),
        ],
        ids=["s20", "s64-bytes-seed", "s200"],
    )
    def test_estimates_are_frozen(self, args, exceedances):
        assert monte_carlo_core(*args) == exceedances / args[4]


def any_shard_tail_two_shards(N, S, total_malicious, threshold):
    """Exact P(either of two complementary shards reaches the threshold):
    with K=2 the second shard holds exactly the remaining malicious."""
    acc = Fraction(0)
    denom = math.comb(N, total_malicious)
    for c in range(0, min(S, total_malicious) + 1):
        if c >= threshold or (total_malicious - c) >= threshold:
            acc += Fraction(
                math.comb(S, c) * math.comb(N - S, total_malicious - c), denom
            )
    return acc


class TestMonteCarloAssignment:
    def test_matches_exact_two_shard_union(self):
        N, K, S = 8, 2, 4
        mu_c, mu_s = Fraction(1, 2), Fraction(3, 4)
        threshold = exceedance_threshold(mu_s, S)
        exact = float(any_shard_tail_two_shards(N, S, int(mu_c * N), threshold))
        trials = 50_000
        est = monte_carlo_assignment(N, K, S, mu_c, mu_s, trials, "mc-assign-unit")
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(est - exact) <= 5 * sigma, (est, exact)

    def test_deterministic_and_worker_independent(self):
        args = (16, 4, 4, Fraction(1, 4), Fraction(1, 2), 10_000, "mc-assign-unit")
        a = monte_carlo_assignment(*args, workers=1)
        b = monte_carlo_assignment(*args, workers=4)
        assert a == b

    def test_domain(self):
        with pytest.raises(ValueError):
            monte_carlo_assignment(10, 3, 4, Fraction(1, 4), Fraction(1, 2), 10, "x")
        with pytest.raises(ValueError):
            monte_carlo_assignment(16, 4, 4, Fraction(1, 4), Fraction(1, 2), 0, "x")


class TestGrindComparison:
    def test_shape_and_determinism(self):
        a = compare_grind_passive(20, 2, 50, "grind-unit")
        b = compare_grind_passive(20, 2, 50, "grind-unit")
        assert a == b
        assert set(a.shard_labels) == {"00", "01", "10", "11"}
        assert sum(a.grind_counts) == 20 * 50
        assert sum(a.passive_counts) == 20 * 50
        assert 0.0 <= a.p_value <= 1.0
        assert a.epochs == 50

    def test_more_labels_than_placements_is_refused(self):
        # 2**20 labels against two placements: refused before any label is
        # built.  More bits would only cost more if the check went missing.
        with pytest.raises(ValueError, match="placements"):
            compare_grind_passive(1, 20, 1, "grind-unit")

    def test_distinct_seeds_diverge(self):
        a = compare_grind_passive(20, 2, 50, "grind-unit")
        b = compare_grind_passive(20, 2, 50, "grind-unit-2")
        assert a.grind_counts != b.grind_counts

    @pytest.mark.parametrize("shard_bits", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", ["grind-ref", "grind-ref-2", 0])
    def test_equals_the_per_key_reference(self, shard_bits, seed):
        got = compare_grind_passive(6, shard_bits, 40, seed)
        want = reference_grind_passive(6, shard_bits, 40, seed)
        assert (got.shard_labels, got.grind_counts, got.passive_counts) == want[:3]
        # The chi-square is computed in a different order from scipy's.
        assert (got.chi2, got.p_value) == pytest.approx(want[3:], rel=1e-12, abs=0)


def reference_grind_passive(n_adversary, shard_bits, epochs, seed, epoch_length=5):
    """``compare_grind_passive`` one key at a time: each credential derived
    by ``derive_credential`` at the first renewal of a UTXO from height 0,
    on a chain padded up to its anchor, then routed by ``route``; scipy's
    ``chi2_contingency`` gives the statistic."""
    root = _seed_digest(seed)
    labels = ["".join(bits) for bits in _bit_strings(shard_bits)]
    directory = dict.fromkeys(labels)
    passive_keys = [
        keygen(tagged_hash(b"grind-passive", root, encode_int(i))) for i in range(n_adversary)
    ]
    grind = dict.fromkeys(labels, 0)
    passive = dict.fromkeys(labels, 0)
    for epoch in range(epochs):
        grind_keys = [
            keygen(tagged_hash(b"grind-respend", root, encode_int(epoch), encode_int(i)))
            for i in range(n_adversary)
        ]
        epoch_seed = tagged_hash(b"grind-epoch", root, encode_int(epoch))
        chain = [None] * epoch_length + [SimpleNamespace(seed=epoch_seed)]
        for keys, table in ((grind_keys, grind), (passive_keys, passive)):
            for kp in keys:
                cred = derive_credential(kp.pk, 0, epoch_length, chain, epoch_length)
                table[route(directory, cred.value)] += 1
    grind_counts = tuple(grind[l] for l in labels)
    passive_counts = tuple(passive[l] for l in labels)
    stat, p_value, _, _ = chi2_contingency(np.array([grind_counts, passive_counts]))
    return tuple(labels), grind_counts, passive_counts, float(stat), float(p_value)

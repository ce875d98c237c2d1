"""Security mathematics: exact election probabilities, the exact
any-shard assignment tail, concentration bounds, the worst-case credential
fraction, parameter solving, Monte Carlo validators, and the grind
comparison's chi-square test.

The core-election Monte Carlo deliberately runs through the same
without-replacement sampler the membership module uses for its elections,
so the measured frequencies are the frequencies of the deployed mechanism
and not of a lookalike model.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import get_context

from .crypto import Prg, encode_int, hash_digest, tagged_hash
from .sampling import sample_without_replacement

log = logging.getLogger(__name__)

_MC_CHUNK = 2048
# Largest core size ``solve_params`` searches.
_S_CAP = 1 << 20


def _hypergeom(population: int, marked: int, draws: int, low: int, high: int) -> Fraction:
    """Exact P(low <= X <= high), X the marked items among ``draws`` taken
    without replacement from ``population`` items of which ``marked`` are
    marked: one integer sum of C(marked, k) C(population - marked, draws - k)
    over one C(population, draws).  Each term is the one before times an
    exact integer ratio, so no term calls ``comb``."""
    unmarked = population - marked
    lo = max(low, 0, draws - unmarked)
    hi = min(high, marked, draws)
    if lo > hi:
        return Fraction(0)
    term = math.comb(marked, lo) * math.comb(unmarked, draws - lo)
    total = term
    for k in range(lo, hi):
        term = term * (marked - k) * (draws - k) // ((k + 1) * (unmarked - draws + k + 1))
        total += term
    return Fraction(total, math.comb(population, draws))


def _check_draw(s: int, m: int, s_min: int):
    if not (0 <= s_min <= s and 0 <= m <= s):
        raise ValueError("require 0 <= s_min <= s and 0 <= m <= s")


def hypergeom_pmf(s: int, m: int, s_min: int, k: int) -> float:
    """P(exactly k of the s_min sampled members are malicious) when m of
    the s shard members are malicious; sampling is without replacement."""
    _check_draw(s, m, s_min)
    return float(_hypergeom(s, m, s_min, k, k))


def exceedance_threshold(fraction: Fraction, sample_size: int) -> int:
    """Smallest integer count whose sampled fraction reaches ``fraction``.

    The rule for an exceedance in the analytic bounds and Monte Carlo
    estimates: a count of exactly ``fraction * sample_size`` counts, so the
    bounds over-approximate the run's ``ParticipantSet.within`` rule."""
    return math.ceil(Fraction(fraction) * sample_size)


def exact_core_tail(s: int, m: int, s_min: int, mu_core) -> Fraction:
    """Exact P(sampled malicious fraction >= mu_core)."""
    _check_draw(s, m, s_min)
    return _hypergeom(s, m, s_min, exceedance_threshold(Fraction(mu_core), s_min), s_min)


def core_corruption_bound(mu_core, mu_shard, s_min: int) -> float:
    """Concentration bound on electing a corrupted core from a shard whose
    malicious fraction is mu_shard: exp(-2 (mu_core - mu_shard)^2 s_min)."""
    if not mu_shard < mu_core:
        raise ValueError("bound vacuous unless mu_shard < mu_core")
    gap = float(mu_core) - float(mu_shard)
    return math.exp(-2.0 * gap * gap * s_min)


def shard_tail_bound(mu_shard, mu_cred, S: int, K) -> float:
    """Union bound on any shard exceeding a mu_shard malicious fraction
    when credentials are assigned uniformly: K exp(-2 (mu_shard-mu_cred)^2 S).

    For the worst case pass S = s_min and K = N / s_min (the maximal shard
    count the overlay admits)."""
    if not mu_cred < mu_shard:
        raise ValueError("bound vacuous unless mu_cred < mu_shard")
    gap = float(mu_shard) - float(mu_cred)
    return float(K) * math.exp(-2.0 * gap * gap * S)


def _malicious_total(N: int, mu_cred) -> int:
    exact = Fraction(mu_cred) * N
    if exact.denominator != 1:
        log.info("N*mu_cred = %s not integral; rounding down", float(exact))
    return math.floor(exact)


def exact_single_shard_tail_fraction(m: int, S: int, N: int, mu_cred) -> Fraction:
    """Exact P(one fixed shard of size S holds >= m malicious credentials)
    under uniform assignment of floor(N*mu_cred) malicious among N: the
    shard draws its S credentials from the N."""
    if not (0 <= m <= S <= N):
        raise ValueError("require 0 <= m <= S <= N")
    return _hypergeom(N, _malicious_total(N, mu_cred), S, m, S)


def exact_single_shard_tail(m: int, S: int, N: int, mu_cred) -> float:
    """``exact_single_shard_tail_fraction`` as the nearest float."""
    return float(exact_single_shard_tail_fraction(m, S, N, mu_cred))


def _truncated_product(a: list[int], b: list[int], degree: int) -> list[int]:
    """Coefficients of the polynomial product a * b up to x^degree."""
    out = [0] * max(min(len(a) + len(b) - 1, degree + 1), 0)
    for i, x in enumerate(a[: len(out)]):
        for j, y in enumerate(b[: len(out) - i]):
            out[i + j] += x * y
    return out


def exact_any_shard_tail(N: int, K: int, S: int, mu_cred, mu_shard) -> Fraction:
    """Exact P(any of K shards of size S holds >= mu_shard * S of the
    floor(N * mu_cred) malicious credentials) under uniform assignment.

    A placement of the M malicious credentials with every shard below the
    threshold t picks c < t slots in each shard, so such placements number
    [x^M] (sum_{c<t} C(S, c) x^c)^K; the power is taken by repeated
    squaring, truncated at degree M."""
    if N != K * S:
        raise ValueError("require N = K * S")
    M = _malicious_total(N, mu_cred)
    t = exceedance_threshold(Fraction(mu_shard), S)
    shard = [math.comb(S, c) for c in range(min(t, M + 1))]
    below = [1]
    while K:
        if K & 1:
            below = _truncated_product(below, shard, M)
        K >>= 1
        if K:
            shard = _truncated_product(shard, shard, M)
    safe = below[M] if M < len(below) else 0
    return 1 - Fraction(safe, math.comb(N, M))


def mu_cred(mu, M: int) -> Fraction:
    """Worst-case fraction of adversary credentials given stake fraction mu
    and per-UTXO cap M: the adversary splits into 1-stake UTXOs while
    honest users hold M-stake ones."""
    mu = Fraction(mu)
    if not 0 < mu < 1:
        raise ValueError("mu must lie strictly between 0 and 1")
    if M < 1:
        raise ValueError("stake cap must be at least 1")
    return 1 / (1 + Fraction(1, M) * (1 / mu - 1))


@dataclass(frozen=True)
class SolveResult:
    feasible: bool
    s_min: int | None
    mu_shard: float | None
    report: dict


def _shard_windows(mu_cred_val: float, mu_core_val: float, kappa: float, N: int, s: int):
    """Feasible mu_shard window at core size s: the union bound pushes it
    up from mu_cred, the core bound caps it below mu_core."""
    k_worst = max(N / s, 1.0)
    lower = mu_cred_val + math.sqrt((kappa + math.log(k_worst)) / (2.0 * s))
    upper = mu_core_val - math.sqrt(kappa / (2.0 * s))
    return lower, upper


def _printed_upper(mu_cred_val: float, kappa: float, N: int, s: int) -> float | None:
    inner = kappa - math.log(max(N / s, 1.0))
    if inner < 0:
        return None
    return mu_cred_val + math.sqrt(inner / (2.0 * s))


def solve_params(
    mu,
    kappa: float,
    N: int,
    M: int,
    mu_core,
) -> SolveResult:
    """Smallest core size up to ``_S_CAP`` (and a matching mu_shard)
    meeting the kappa target for both the core-corruption bound and the
    any-shard union bound.

    The report's ``printed_form_upper`` is the alternative published
    inequality's bound on mu_shard at the solved size, for comparison only:
    its direction is inconsistent with the bound derivation, so it never
    decides the size.
    """
    mu_cred_val = float(mu_cred(mu, M))
    mu_core_val = float(Fraction(mu_core))
    if mu_cred_val >= mu_core_val:
        return SolveResult(
            feasible=False,
            s_min=None,
            mu_shard=None,
            report={"reason": "mu_cred >= mu_core", "mu_cred": mu_cred_val},
        )

    def feasible(s: int) -> bool:
        lower, upper = _shard_windows(mu_cred_val, mu_core_val, kappa, N, s)
        return lower <= upper

    if not feasible(_S_CAP):
        return SolveResult(
            feasible=False,
            s_min=None,
            mu_shard=None,
            report={"reason": f"no feasible core size up to {_S_CAP}"},
        )
    lo, hi = 1, _S_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    s_min = lo

    lower, upper = _shard_windows(mu_cred_val, mu_core_val, kappa, N, s_min)
    mu_shard = (lower + upper) / 2.0

    core_residual = core_corruption_bound(mu_core_val, mu_shard, s_min)
    union_residual = shard_tail_bound(mu_shard, mu_cred_val, s_min, max(N / s_min, 1.0))
    target = math.exp(-kappa)
    report = {
        "mu_cred": mu_cred_val,
        "mu_core": mu_core_val,
        "kappa": kappa,
        "N": N,
        "target": target,
        "core_residual": core_residual,
        "union_residual": union_residual,
        "window": (lower, upper),
        "printed_form_upper": _printed_upper(mu_cred_val, kappa, N, s_min),
    }
    # Replay both inequalities; the search guarantees they hold.
    assert core_residual <= target * (1 + 1e-9)
    assert union_residual <= target * (1 + 1e-9)
    return SolveResult(feasible=True, s_min=s_min, mu_shard=mu_shard, report=report)


def _seed_digest(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed if len(seed) == 32 else hash_digest(seed)
    return hash_digest(str(seed).encode("utf-8"))


def _chunk_sizes(trials: int) -> list[int]:
    """Fixed chunk layout; identical regardless of worker count."""
    full, rest = divmod(trials, _MC_CHUNK)
    sizes = [_MC_CHUNK] * full
    if rest:
        sizes.append(rest)
    return sizes


def _monte_carlo(chunk, tag: bytes, params: tuple, trials: int, seed, workers: int) -> float:
    """Fraction of ``trials`` for which ``chunk(params, n_trials,
    chunk_seed)`` counts an exceedance.  The trials run in fixed chunks,
    each seeded from ``tag``, the root seed and its index, so the estimate
    does not depend on ``workers``; the pool holds at most one process per
    chunk and per CPU."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    root = _seed_digest(seed)
    jobs = [
        (params, n, tagged_hash(tag, root, encode_int(i)))
        for i, n in enumerate(_chunk_sizes(trials))
    ]
    if workers == 1:
        counts = [chunk(*job) for job in jobs]
    else:
        processes = min(workers, len(jobs), os.cpu_count() or 1)
        with get_context("fork").Pool(processes=processes) as pool:
            counts = pool.starmap(chunk, jobs)
    return sum(counts) / trials


def _core_chunk(params, n_trials: int, chunk_seed: bytes) -> int:
    s, m, s_min, threshold = params
    markers = [1] * m + [0] * (s - m)
    prg = Prg(chunk_seed)
    exceed = 0
    for _ in range(n_trials):
        picked = sample_without_replacement(prg, markers, s_min)
        if sum(picked) >= threshold:
            exceed += 1
    return exceed


def monte_carlo_core(
    s: int,
    m: int,
    s_min: int,
    mu_core,
    trials: int,
    seed,
    workers: int = 1,
) -> float:
    """Empirical frequency of electing a core at or above the mu_core
    malicious fraction, sampling s_min from a shard of s members (m of
    them malicious) with the production election sampler."""
    if not 0 <= m <= s:
        raise ValueError("malicious members must lie in [0, s]")
    if not 1 <= s_min <= s:
        raise ValueError("core size must lie in [1, s]")
    threshold = exceedance_threshold(Fraction(mu_core), s_min)
    return _monte_carlo(_core_chunk, b"mc-core", (s, m, s_min, threshold), trials, seed, workers)


def _assignment_chunk(params, n_trials: int, chunk_seed: bytes) -> int:
    import numpy as np

    N, K, S, total_malicious, threshold = params
    rng = np.random.default_rng(int.from_bytes(chunk_seed, "big"))
    remaining_total = np.full(n_trials, N, dtype=np.int64)
    remaining_bad = np.full(n_trials, total_malicious, dtype=np.int64)
    exceeded = np.zeros(n_trials, dtype=bool)
    for _ in range(K):
        ngood = remaining_bad
        nbad = remaining_total - remaining_bad
        counts = rng.hypergeometric(ngood, nbad, S)
        exceeded |= counts >= threshold
        remaining_bad = remaining_bad - counts
        remaining_total = remaining_total - S
    return int(exceeded.sum())


def monte_carlo_assignment(
    N: int,
    K: int,
    S: int,
    mu_cred_frac,
    mu_shard,
    trials: int,
    seed,
    workers: int = 1,
) -> float:
    """Empirical frequency that any of K shards of size S receives at
    least mu_shard*S of the floor(N*mu_cred) uniformly assigned malicious
    credentials."""
    if N != K * S:
        raise ValueError("require N = K * S")
    total_malicious = _malicious_total(N, mu_cred_frac)
    threshold = exceedance_threshold(Fraction(mu_shard), S)
    params = (N, K, S, total_malicious, threshold)
    return _monte_carlo(_assignment_chunk, b"mc-assign", params, trials, seed, workers)


@dataclass(frozen=True)
class GrindComparison:
    shard_labels: tuple[str, ...]
    grind_counts: tuple[int, ...]
    passive_counts: tuple[int, ...]
    chi2: float
    p_value: float
    epochs: int


def compare_grind_passive(
    n_adversary: int,
    shard_bits: int,
    epochs: int,
    seed,
) -> GrindComparison:
    """Measure whether respending ahead of each renewal shifts where the
    adversary's credentials land.

    Both arms run the batch credential derivation and routing the run
    renews each height's credentials with, against a fixed 2^shard_bits
    directory; the grinding arm replaces every key before each epoch's seed
    is drawn (the delay rule means the new keys commit before the
    randomness they will be hashed with).
    """
    if n_adversary < 1 or shard_bits < 1 or epochs < 1:
        raise ValueError("need at least one adversary, one shard bit and one epoch")
    # 2**shard_bits > 2 * n_adversary * epochs: some label would get no
    # placement in either arm, an empty column the chi-square test refuses.
    if shard_bits >= (2 * n_adversary * epochs).bit_length():
        raise ValueError("2**shard_bits labels exceed the 2 * adversaries * epochs placements")

    from .credentials import derive_credentials
    from .crypto import keygen_batch, tagged_hash_indexed
    from .overlay import route_all

    root = _seed_digest(seed)
    labels = ["".join(bits) for bits in _bit_strings(shard_bits)]
    directory = {label: None for label in labels}
    index = {label: i for i, label in enumerate(labels)}

    passive_seeds = tagged_hash_indexed(b"grind-passive", range(n_adversary), root)
    passive_pks = [kp.pk for kp in keygen_batch(passive_seeds)]
    grind_co = [0] * len(labels)
    passive_co = [0] * len(labels)

    for epoch in range(epochs):
        # Grinding keys are fixed before the epoch seed exists.
        grind_seeds = tagged_hash_indexed(
            b"grind-respend", range(n_adversary), root, encode_int(epoch)
        )
        grind_pks = [kp.pk for kp in keygen_batch(grind_seeds)]
        epoch_seed = tagged_hash(b"grind-epoch", root, encode_int(epoch))
        for pks, table in ((grind_pks, grind_co), (passive_pks, passive_co)):
            creds = derive_credentials(pks, 0, epoch_seed, 1)
            for label in route_all(directory, [c.value for c in creds]):
                table[index[label]] += 1

    placed = [column for column in zip(grind_co, passive_co) if any(column)]
    if len(placed) < 2:
        raise ValueError(
            f"only {len(placed)} of the 2**{shard_bits} labels got a placement from"
            f" {n_adversary} adversaries over {epochs} epochs; the chi-square test"
            " needs two: raise the adversaries or the epochs"
        )
    chi2, p_value = _chi_square(placed)
    return GrindComparison(
        shard_labels=tuple(labels),
        grind_counts=tuple(grind_co),
        passive_counts=tuple(passive_co),
        chi2=chi2,
        p_value=p_value,
        epochs=epochs,
    )


def _chi_square(columns: list[tuple[int, int]]) -> tuple[float, float]:
    """Pearson's chi-square test of independence on a two-row table given
    by its columns, each with a nonzero total: the statistic and its
    p-value.  At one degree of freedom Yates' continuity correction moves
    each count min(0.5, |observed - expected|) toward its expectation."""
    rows = [sum(row) for row in zip(*columns)]
    total = sum(rows)
    dof = len(columns) - 1
    chi2 = 0.0
    for column in columns:
        col_total = sum(column)
        for observed, row_total in zip(column, rows):
            expected = row_total * col_total / total
            if dof == 1:
                diff = expected - observed
                observed += math.copysign(min(0.5, abs(diff)), diff)
            chi2 += (observed - expected) ** 2 / expected
    return chi2, _chi2_sf(chi2, dof)


def chi_square_floor(first: tuple[int, ...], second: tuple[int, ...]) -> float:
    """The smallest p-value ``_chi_square`` can give on any table with the
    nonzero columns of rows ``first`` and ``second``, each of total n: that
    of rows sharing no column, with statistic 2n, or 2 (n - 1)**2 / n under
    Yates' correction at two columns."""
    n = sum(first)
    k = sum(1 for column in zip(first, second) if any(column))
    return _chi2_sf(2 * (n - 1) ** 2 / n if k == 2 else 2 * n, k - 1)


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi-square with integer ``dof`` degrees of freedom >= x), in closed
    form: with y = x / 2, the sum over i < dof // 2 of e^-y y^(i+a) /
    Gamma(i+a+1), where a = 0 for even dof, and a = 1/2 plus erfc(sqrt(y))
    for odd dof.  The largest term is taken in log space and the others by
    recurrence from it, so the sum does not underflow before its value does."""
    if x <= 0:
        return 1.0
    y = x / 2
    a = (dof % 2) / 2
    total = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    terms = dof // 2
    if terms:
        peak = min(max(int(y - a), 0), terms - 1)
        top = math.exp((peak + a) * math.log(y) - y - math.lgamma(peak + a + 1))
        total += top
        term = top
        for i in range(peak, 0, -1):
            term *= (i + a) / y
            total += term
        term = top
        for i in range(peak + 1, terms):
            term *= y / (i + a)
            total += term
    return min(total, 1.0)


def _bit_strings(depth: int):
    if depth == 0:
        yield ""
        return
    for rest in _bit_strings(depth - 1):
        yield "0" + rest
        yield "1" + rest

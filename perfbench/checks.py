"""Correctness checks on workload outputs.

Every check returns ``(name, ok)``.  Scenario checks are verdicts, which a
correct program passes at any seed; at ``DEFAULT_SEED`` the outputs are
also compared with the values pinned in ``golden.py``.  Monte Carlo
estimates are checked with exact binomial tails against the program's own
closed forms, at a false-alarm rate of at most ``FALSE_ALARM`` per run
split evenly over the distinct checks (Bonferroni).
"""

from __future__ import annotations

import math

FALSE_ALARM = 1e-4


def scenario_checks(name: str, metrics, events_digest: str, metrics_digest: str, pinned) -> list:
    summary = metrics.summary
    kinds = {rec["kind"] for rec in metrics.incidents}
    checks = [
        (f"{name}:safety", summary["safety_ok"] is True),
        (f"{name}:liveness", summary["liveness_ok"] is True),
        (f"{name}:view-agreement", summary["view_violations"] == 0),
        (f"{name}:chain-grows", summary["blocks"] >= 1),
        # Late inclusion is allowed only behind a corrupted shard, as in
        # acceptance criterion 2.
        (f"{name}:efficiency", summary["efficiency_ok"] or "corrupted-shard" in kinds),
    ]
    if pinned is not None:
        checks += [
            (f"{name}:events-digest", events_digest == pinned["events"]),
            (f"{name}:metrics-digest", metrics_digest == pinned["metrics"]),
            (f"{name}:summary", pinned_summary(summary) == pinned["summary"]),
        ]
    return checks


def pinned_summary(summary: dict) -> dict:
    keys = ("safety_ok", "liveness_ok", "efficiency_ok", "view_violations", "blocks")
    return {k: summary[k] for k in keys}


def _binomial_two_sided(count: int, trials: int, p_low: float, p_high: float, alpha: float) -> bool:
    """False only if ``count`` is implausibly low for ``p_low`` or
    implausibly high for ``p_high`` (each tail at ``alpha / 2``)."""
    from scipy.stats import binom

    low_ok = binom.cdf(count, trials, p_low) >= alpha / 2
    high_ok = binom.sf(count - 1, trials, p_high) >= alpha / 2
    return bool(low_ok and high_ok)


def mc_checks(case, result, reference, n_checks: int, pinned) -> list:
    """``reference`` is the exact probability (core) or the (lower, upper)
    probability interval (assign) computed in set-up; unused for grind."""
    alpha = FALSE_ALARM / n_checks
    name = f"mc:{case.key}"
    if case.kind == "grind":
        n_adv, _bits, epochs = case.args
        checks = [
            (f"{name}:epochs", result.epochs == epochs),
            (f"{name}:grind-total", sum(result.grind_counts) == n_adv * epochs),
            (f"{name}:passive-total", sum(result.passive_counts) == n_adv * epochs),
            # Under the no-effect hypothesis the p-value is uniform.
            (f"{name}:indistinguishable", result.p_value >= alpha),
        ]
        if pinned is not None:
            checks.append(
                (
                    f"{name}:pinned",
                    [list(result.grind_counts), list(result.passive_counts)] == pinned,
                )
            )
        return checks

    trials = case.args[-1]
    count = round(result * trials)
    if case.kind == "core":
        p_low = p_high = reference
    else:
        p_low, p_high = reference
    checks = [
        (f"{name}:integral", math.isclose(count, result * trials, abs_tol=1e-6)),
        (f"{name}:binomial", _binomial_two_sided(count, trials, p_low, p_high, alpha)),
    ]
    if pinned is not None:
        checks.append((f"{name}:pinned", result == pinned))
    return checks

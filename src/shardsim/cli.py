"""Command line front end.

Subcommands cover five workflows: `run` a scenario config, `solve-params`
for sizing, `bounds` for the closed-form risk numbers, `montecarlo` for the
empirical validators, and `scaling` for the message-growth grid.  Every
command is deterministic given its seed; exit status is 0 only when the
enabled oracles pass, 1 when one fails, 2 for rejected input and 3 for an
internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import replace
from fractions import Fraction

from .analysis import (
    chi_square_floor,
    compare_grind_passive,
    core_corruption_bound,
    exact_single_shard_tail,
    exceedance_threshold,
    monte_carlo_assignment,
    monte_carlo_core,
    shard_tail_bound,
    solve_params,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    _integer,
    _open_unit_ratio,
    _positive_number,
    load_config,
)
from .harness import message_scaling_report, run_scenario
from .oracles import InvariantError


def _print(payload: dict):
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config, strict=args.strict_params)
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"config rejected: {exc}\n")
        return 2
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.out_dir:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            sys.stderr.write(f"error: cannot create --out-dir: {exc}\n")
            return 2
    metrics, events = run_scenario(config)

    if args.out_dir:
        with open(os.path.join(args.out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(metrics.to_csv())
        with open(os.path.join(args.out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(metrics.to_json() + "\n")
        with open(os.path.join(args.out_dir, "events.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(events.lines())
    # With --out-dir the full outputs are on disk and stdout gets the summary.
    fmt = "summary" if args.out_dir else args.format
    if fmt == "csv":
        sys.stdout.write(metrics.to_csv())
    elif fmt == "jsonl":
        sys.stdout.writelines(events.lines())
    else:
        _print(
            {
                "summary": metrics.summary,
                "metrics_digest": metrics.digest(),
                "events_digest": events.digest(),
            }
        )

    ok = (
        metrics.summary.get("safety_ok")
        and metrics.summary.get("liveness_ok")
        and metrics.summary.get("view_violations") == 0
    )
    return 0 if ok else 1


def _cmd_solve_params(args) -> int:
    result = solve_params(
        _open_unit_ratio("--mu", args.mu),
        _positive_number("--kappa", args.kappa),
        _integer("--n", args.n, 1),
        _integer("--m-cap", args.m_cap, 1),
        _open_unit_ratio("--mu-core", args.mu_core),
    )
    _print(
        {
            "feasible": result.feasible,
            "s_min": result.s_min,
            "mu_shard": result.mu_shard,
            "report": result.report,
        }
    )
    return 0 if result.feasible else 1


def _cmd_bounds(args) -> int:
    mu_core = _open_unit_ratio("--mu-core", args.mu_core)
    mu_shard = _open_unit_ratio("--mu-shard", args.mu_shard)
    mu_cred = _open_unit_ratio("--mu-cred", args.mu_cred)
    s_min = _integer("--s-min", args.s_min, 1)
    shards = _integer("--shards", args.shards, 1)
    shard_size = _integer("--shard-size", args.shard_size, 1)
    exact_n = _integer("--exact-n", args.exact_n, 0)  # 0: no exact tail
    payload = {
        "core_bound": core_corruption_bound(mu_core, mu_shard, s_min),
        "union_bound": shard_tail_bound(mu_shard, mu_cred, s_min, shards),
    }
    if exact_n:
        threshold = exceedance_threshold(mu_shard, shard_size)
        payload["exact_single_shard_tail"] = exact_single_shard_tail(
            threshold, shard_size, exact_n, mu_cred
        )
    _print(payload)
    return 0


def _check_estimate(estimate: float, bound: float, trials: int) -> int:
    """Print a Monte Carlo estimate against its bound; it passes while it
    stays within three binomial standard deviations above the bound."""
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
    within = estimate <= bound + 3 * sigma
    _print({"estimate": estimate, "bound": bound, "three_sigma": 3 * sigma, "within": within})
    return 0 if within else 1


def _cmd_montecarlo(args) -> int:
    if args.kind == "core":
        mu_core = _open_unit_ratio("--mu-core", args.mu_core)
        estimate = monte_carlo_core(
            args.s, args.m, args.s_min, mu_core, args.trials, args.seed, args.workers
        )
        mu_shard = Fraction(args.m, args.s)
        bound = core_corruption_bound(mu_core, mu_shard, args.s_min)
        return _check_estimate(estimate, bound, args.trials)
    if args.kind == "assignment":
        mu_cred = _open_unit_ratio("--mu-cred", args.mu_cred)
        mu_shard = _open_unit_ratio("--mu-shard", args.mu_shard)
        estimate = monte_carlo_assignment(
            args.n,
            args.k,
            args.shard_size,
            mu_cred,
            mu_shard,
            args.trials,
            args.seed,
            args.workers,
        )
        bound = shard_tail_bound(mu_shard, mu_cred, args.shard_size, args.k)
        return _check_estimate(estimate, bound, args.trials)
    if not 0 < args.alpha < 1:
        raise ValueError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    comparison = compare_grind_passive(
        args.adversaries, args.shard_bits, args.epochs, args.seed
    )
    floor = chi_square_floor(comparison.grind_counts, comparison.passive_counts)
    if floor >= args.alpha:
        raise ValueError(
            f"placements in the 2**{args.shard_bits} labels from {args.adversaries} adversaries"
            f" over {args.epochs} epochs give no p-value below {floor:.2g} (arms sharing no"
            f" label), so none below --alpha {args.alpha}: raise the adversaries or the epochs"
        )
    _print(
        {
            "chi2": comparison.chi2,
            "p_value": comparison.p_value,
            "epochs": comparison.epochs,
            "indistinguishable": comparison.p_value >= args.alpha,
        }
    )
    return 0 if comparison.p_value >= args.alpha else 1


def _cmd_scaling(args) -> int:
    grid = [_integer("--n-grid", int(x), 1) for x in args.n_grid.split(",")]
    if len(set(grid)) < 2:
        raise ValueError(f"--n-grid needs at least two distinct sizes, got {args.n_grid!r}")
    configs = [
        ScenarioConfig(
            name=f"scale-{n}",
            master_seed=args.seed,
            epoch_length=args.epoch_length,
            heights=args.heights,
            s_min=args.s_min,
            s_max=args.s_max,
            mu_core="1/3",
            mu_corrupted="1/3",
            mu="1/10",
            stake_cap=1,
            kappa=20.0,
            f_shard=0,
            genesis=((n, 1),),
            tx_rate=args.tx_rate,
            unsafe_params=True,
        )
        for n in grid
    ]
    report = message_scaling_report(configs)
    # Growth from the smallest size to the largest, whatever the grid order.
    per_user = [row["per_user_messages"] for row in report["rows"]]
    first = per_user[grid.index(min(grid))]
    last = per_user[grid.index(max(grid))]
    growth = (last / first) if first else float("inf")
    report["overall_growth"] = growth
    report["sublinear"] = growth < 4.0
    _print(report)
    return 0 if growth < 4.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardsim",
        description="Deterministic sharded-ledger simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--seed", help="override the config's master seed")
    p_run.add_argument("--out-dir", help="write metrics.csv/metrics.json/events.jsonl here")
    p_run.add_argument("--format", choices=("csv", "jsonl", "summary"), default="summary")
    p_run.add_argument("--strict-params", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_solve = sub.add_parser("solve-params", help="smallest safe core size")
    p_solve.add_argument("--mu", required=True, help="adversary stake fraction, e.g. 1/10")
    p_solve.add_argument("--kappa", type=float, required=True)
    p_solve.add_argument("--n", type=int, required=True, help="credential count")
    p_solve.add_argument("--m-cap", type=int, required=True, help="per-UTXO stake cap")
    p_solve.add_argument("--mu-core", required=True, help="core corruption bound, e.g. 1/3")
    p_solve.set_defaults(func=_cmd_solve_params)

    p_bounds = sub.add_parser("bounds", help="closed-form risk bounds at one core size (--s-min)")
    p_bounds.add_argument("--mu-core", default="1/3")
    p_bounds.add_argument("--mu-shard", default="1/5")
    p_bounds.add_argument("--mu-cred", default="1/10")
    p_bounds.add_argument("--s-min", type=int, default=256)
    p_bounds.add_argument("--shards", type=int, default=16)
    p_bounds.add_argument("--shard-size", type=int, default=64)
    p_bounds.add_argument("--exact-n", type=int, default=0, help="population for the exact tail")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_mc = sub.add_parser("montecarlo", help="empirical validation of the bounds")
    mc_sub = p_mc.add_subparsers(dest="kind", required=True)

    mc_core = mc_sub.add_parser("core", help="core election exceedance")
    mc_core.add_argument("--s", type=int, required=True, help="shard size")
    mc_core.add_argument("--m", type=int, required=True, help="malicious members")
    mc_core.add_argument("--s-min", type=int, required=True, help="core size")
    mc_core.add_argument("--mu-core", default="1/3")
    mc_core.add_argument("--trials", type=int, default=100000)
    mc_core.add_argument("--seed", default="mc-core")
    mc_core.add_argument("--workers", type=int, default=1)
    mc_core.set_defaults(func=_cmd_montecarlo)

    mc_assign = mc_sub.add_parser("assignment", help="any-shard exceedance")
    mc_assign.add_argument("--n", type=int, required=True)
    mc_assign.add_argument("--k", type=int, required=True)
    mc_assign.add_argument("--shard-size", type=int, required=True)
    mc_assign.add_argument("--mu-cred", default="1/10")
    mc_assign.add_argument("--mu-shard", default="2/5")
    mc_assign.add_argument("--trials", type=int, default=100000)
    mc_assign.add_argument("--seed", default="mc-assign")
    mc_assign.add_argument("--workers", type=int, default=1)
    mc_assign.set_defaults(func=_cmd_montecarlo)

    mc_grind = mc_sub.add_parser("grind", help="respend-vs-passive placement comparison")
    mc_grind.add_argument("--adversaries", type=int, default=8)
    mc_grind.add_argument("--shard-bits", type=int, default=3)
    mc_grind.add_argument("--epochs", type=int, default=10000)
    mc_grind.add_argument("--alpha", type=float, default=0.001)
    mc_grind.add_argument("--seed", default="mc-grind")
    mc_grind.set_defaults(func=_cmd_montecarlo)

    p_scale = sub.add_parser("scaling", help="per-user message growth over an N grid")
    p_scale.add_argument("--n-grid", default="256,1024,4096")
    p_scale.add_argument("--s-min", type=int, default=32)
    p_scale.add_argument("--s-max", type=int, default=128)
    p_scale.add_argument("--epoch-length", type=int, default=5)
    p_scale.add_argument("--heights", type=int, default=10)
    p_scale.add_argument("--tx-rate", type=int, default=2)
    p_scale.add_argument("--seed", default="scaling")
    p_scale.set_defaults(func=_cmd_scaling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    except Exception:
        # A fault in the program is never reported as an oracle verdict.
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

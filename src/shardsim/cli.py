"""Command line front end.

Subcommands cover the four workflows: `run` a scenario config, `solve-params`
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
from fractions import Fraction

from .analysis import (
    compare_grind_passive,
    core_corruption_bound,
    exact_single_shard_tail,
    monte_carlo_assignment,
    monte_carlo_core,
    shard_tail_bound,
    solve_params,
)
from .config import ConfigError, ScenarioConfig, load_config
from .harness import message_scaling_report, run_scenario
from .oracles import InvariantError


def _print(payload: dict):
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _ratio(text: str) -> Fraction:
    return Fraction(text)


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config, strict=args.strict_params)
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"config rejected: {exc}\n")
        return 2
    if args.seed is not None:
        config = ScenarioConfig.from_mapping(
            {**config.to_mapping(), "master_seed": args.seed}
        )
    metrics, events = run_scenario(config, strict_params=args.strict_params)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(metrics.to_csv())
        with open(os.path.join(args.out_dir, "metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(metrics.to_json() + "\n")
        with open(os.path.join(args.out_dir, "events.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(events.to_jsonl())
    # With --out-dir the full outputs are on disk and stdout gets the summary.
    fmt = "summary" if args.out_dir else args.format
    if fmt == "csv":
        sys.stdout.write(metrics.to_csv())
    elif fmt == "jsonl":
        sys.stdout.write(events.to_jsonl())
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
        _ratio(args.mu),
        args.kappa,
        args.n,
        args.m_cap,
        _ratio(args.mu_core),
        use_printed_form=args.printed_form,
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
    if args.preset:
        rows = []
        for s_min in (64, 128, 256, 512):
            rows.append(
                {
                    "s_min": s_min,
                    "core_bound": core_corruption_bound(
                        Fraction(1, 3), Fraction(1, 5), s_min
                    ),
                    "union_bound": shard_tail_bound(
                        Fraction(1, 5), Fraction(1, 10), s_min, 16
                    ),
                }
            )
        _print({"preset": "demo", "rows": rows})
        return 0
    payload = {
        "core_bound": core_corruption_bound(
            _ratio(args.mu_core), _ratio(args.mu_shard), args.s_min
        ),
        "union_bound": shard_tail_bound(
            _ratio(args.mu_shard), _ratio(args.mu_cred), args.s_min, args.shards
        ),
    }
    if args.exact_n:
        threshold = math.ceil(_ratio(args.mu_shard) * args.shard_size)
        payload["exact_single_shard_tail"] = exact_single_shard_tail(
            threshold, args.shard_size, args.exact_n, _ratio(args.mu_cred)
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
        estimate = monte_carlo_core(
            args.s, args.m, args.s_min, _ratio(args.mu_core), args.trials, args.seed, args.workers
        )
        mu_shard = Fraction(args.m, args.s)
        bound = core_corruption_bound(_ratio(args.mu_core), mu_shard, args.s_min)
        return _check_estimate(estimate, bound, args.trials)
    if args.kind == "assignment":
        estimate = monte_carlo_assignment(
            args.n,
            args.k,
            args.shard_size,
            _ratio(args.mu_cred),
            _ratio(args.mu_shard),
            args.trials,
            args.seed,
            args.workers,
        )
        bound = shard_tail_bound(
            _ratio(args.mu_shard), _ratio(args.mu_cred), args.shard_size, args.k
        )
        return _check_estimate(estimate, bound, args.trials)
    comparison = compare_grind_passive(
        args.adversaries, args.shard_bits, args.epochs, args.seed
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
    grid = [int(x) for x in args.n_grid.split(",")]
    configs = []
    for n in grid:
        configs.append(
            ScenarioConfig.from_mapping(
                {
                    "schema_version": 1,
                    "name": f"scale-{n}",
                    "master_seed": args.seed,
                    "epoch_length": args.epoch_length,
                    "heights": args.heights,
                    "s_min": args.s_min,
                    "s_max": args.s_max,
                    "mu_core": "1/3",
                    "mu_corrupted": "1/3",
                    "mu": "1/10",
                    "stake_cap": 1,
                    "kappa": 20.0,
                    "f_shard": 0,
                    "genesis": [{"count": n, "stake": 1}],
                    "tx_rate": args.tx_rate,
                    "unsafe_params": True,
                }
            )
        )
    report = message_scaling_report(configs)
    first = report["rows"][0]["per_user_messages"]
    last = report["rows"][-1]["per_user_messages"]
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
    p_solve.add_argument(
        "--printed-form",
        action="store_true",
        help="use the alternative published inequality (comparison only)",
    )
    p_solve.set_defaults(func=_cmd_solve_params)

    p_bounds = sub.add_parser("bounds", help="closed-form risk bounds")
    p_bounds.add_argument("--preset", action="store_true", help="demo grid")
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


if __name__ == "__main__":
    raise SystemExit(main())

"""Deterministic simulator and analysis toolkit for a sharded
proof-of-stake ledger with rotating per-epoch credentials.

The package splits into four layers:

- protocol mechanics: ``crypto``, ``ledger``, ``credentials``, ``overlay``,
  ``membership``, ``protocols``, ``blocks``, ``adversary``;
- the scenario run: ``config`` parses and checks a scenario, ``harness``
  runs it height by height on the UTXO state that ``utxo_index`` keeps,
  ``records`` holds its event log and metrics, and ``oracles`` gives the
  safety and liveness verdicts;
- ``analysis`` with the closed-form corruption bounds, exact tail
  probabilities, the parameter solver, and Monte Carlo validators;
- the ``cli`` front end.
"""

from .analysis import (
    GrindComparison,
    SolveResult,
    compare_grind_passive,
    core_corruption_bound,
    exact_core_tail,
    exact_single_shard_tail,
    hypergeom_pmf,
    monte_carlo_assignment,
    monte_carlo_core,
    mu_cred,
    shard_tail_bound,
    solve_params,
)
from .config import ConfigError, ScenarioConfig, load_config
from .harness import message_scaling_report, run_scenario
from .oracles import LivenessReport, check_liveness, check_safety
from .records import EventLog, Metrics

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EventLog",
    "GrindComparison",
    "LivenessReport",
    "Metrics",
    "ScenarioConfig",
    "SolveResult",
    "check_liveness",
    "check_safety",
    "compare_grind_passive",
    "core_corruption_bound",
    "exact_core_tail",
    "exact_single_shard_tail",
    "hypergeom_pmf",
    "load_config",
    "message_scaling_report",
    "monte_carlo_assignment",
    "monte_carlo_core",
    "mu_cred",
    "run_scenario",
    "shard_tail_bound",
    "solve_params",
    "__version__",
]

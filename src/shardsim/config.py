"""Scenario configs: the JSON schema and the frozen ``ScenarioConfig`` it
builds.

A config is checked once, when it is constructed, whether by
``from_mapping``, directly or by ``dataclasses.replace``: each field by the
reader it declares, then the rules across fields and, unless the config is
marked ``unsafe_params``, the parameter solver.  Every ``ScenarioConfig``
is one a run accepts, so ``Simulation`` trusts it.  Malformed input raises
``ConfigError``."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Mapping

from .adversary import STRATEGIES
from .analysis import solve_params

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def parse_ratio(value) -> Fraction:
    """Ratios come in as exact strings ("1/3") or integers; binary floats
    are rejected so thresholds stay exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ConfigError(f"ratio {value!r} has a zero denominator") from None
    raise ConfigError(f"ratio fields take strings like '1/3' or integers, got {value!r}")


def _integer(name: str, value, minimum: int | None = None) -> int:
    """A JSON integer: floats, booleans and strings are refused, never
    rounded or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a JSON string, got {value!r}")
    return value


def _positive_number(name: str, value) -> float:
    """A positive finite JSON number, integer or not; booleans and strings
    are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _unit_ratio(name: str, value) -> Fraction:
    """A ratio in [0, 1]."""
    ratio = parse_ratio(value)
    if not 0 <= ratio <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {ratio}")
    return ratio


def _boolean(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a JSON boolean, got {value!r}")
    return value


def _open_unit_ratio(name: str, value) -> Fraction:
    ratio = parse_ratio(value)
    if not 0 < ratio < 1:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {ratio}")
    return ratio


def _budget(name: str, value) -> Fraction | None:
    """A ratio >= 0, or None for the default budget."""
    if value is None:
        return None
    ratio = parse_ratio(value)
    if ratio < 0:
        raise ValueError(f"{name} must be >= 0, got {ratio}")
    return ratio


def _mapping(name: str, value) -> dict:
    if not isinstance(value, Mapping):
        raise TypeError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


def _groups(name: str, value) -> tuple[tuple[int, int], ...]:
    """At least one (count, stake) group, each count and stake >= 1."""
    groups = tuple(
        (_integer(f"{name} count", count, 1), _integer(f"{name} stake", stake, 1))
        for count, stake in value
    )
    if not groups:
        raise ValueError(f"{name} must list at least one UTXO group")
    return groups


def _checked(read, *bounds, **default):
    """A field that ``read(name, value, *bounds)`` checks and normalises."""
    return field(metadata={"read": (read, bounds)}, **default)


# JSON keys of the ``adversary`` object, and the config field each one sets.
ADVERSARY_FIELDS = {
    "strategy": "adversary_strategy",
    "params": "adversary_params",
    "corrupt_fraction": "corrupt_fraction",
    "force_corrupt_shards": "force_corrupt_shards",
}

# How the strategies read each param they name in ``Strategy.param_names``;
# a value its reader refuses is refused in the config.
PARAM_READERS = {
    "fraction": _unit_ratio,
    "split": _boolean,
    "candidates": lambda name, value: _integer(name, value, minimum=1),
}


@dataclass(frozen=True)
class ScenarioConfig:
    master_seed: str = _checked(_string)
    epoch_length: int = _checked(_integer, 1)
    heights: int = _checked(_integer, 1)
    s_min: int = _checked(_integer, 1)
    s_max: int = _checked(_integer)  # at least 2 * s_min
    mu_core: Fraction = _checked(_open_unit_ratio)
    mu_corrupted: Fraction = _checked(_open_unit_ratio)
    mu: Fraction = _checked(_open_unit_ratio)
    stake_cap: int = _checked(_integer, 1)
    kappa: float = _checked(_positive_number)
    f_shard: int = _checked(_integer, 0)
    genesis: tuple[tuple[int, int], ...] = _checked(_groups)  # (count, stake) groups
    tx_rate: int = _checked(_integer, 0, default=0)
    adversary_strategy: str = _checked(_string, default="passive")
    adversary_params: Mapping = _checked(_mapping, default_factory=dict)
    corrupt_fraction: Fraction | None = _checked(_budget, default=None)  # at most mu
    force_corrupt_shards: int = _checked(_integer, 0, default=0)
    observers: int = _checked(_integer, 1, default=3)
    unsafe_params: bool = _checked(_boolean, default=False)
    name: str = _checked(_string, default="")

    def __post_init__(self):
        for f in fields(self):
            read, bounds = f.metadata["read"]
            try:
                value = read(f.name, getattr(self, f.name), *bounds)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad config field: {exc}") from exc
            object.__setattr__(self, f.name, value)

        if self.s_max < 2 * self.s_min:
            raise ConfigError("s_max must be >= 2 * s_min")
        for _, stake in self.genesis:
            if stake > self.stake_cap:
                raise ConfigError(f"genesis stake {stake} outside [1, {self.stake_cap}]")
        if self.corrupt_fraction is not None and self.corrupt_fraction > self.mu:
            raise ConfigError("corrupt_fraction exceeds the adversary stake bound mu")
        strategy = STRATEGIES.get(self.adversary_strategy)
        if strategy is None:
            raise ConfigError(f"unknown adversary strategy {self.adversary_strategy!r}")
        # The field reader copied the params, so each is stored as read, in place.
        for name, value in sorted(self.adversary_params.items()):
            if name not in strategy.param_names:
                raise ConfigError(f"adversary strategy {strategy.name!r} reads no param {name!r}")
            try:
                self.adversary_params[name] = PARAM_READERS[name](name, value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad adversary param {name}={value!r}: {exc}") from exc

        if self.unsafe_params:
            return
        solved = solve_params(self.mu, self.kappa, self.n_credentials, self.stake_cap, self.mu_core)
        if not solved.feasible:
            raise ConfigError(
                "no feasible core size for (mu, kappa, N, stake_cap, mu_core); "
                "mark unsafe_params for stress runs"
            )
        if self.s_min < solved.s_min:
            raise ConfigError(
                f"s_min={self.s_min} below the {solved.s_min} required for "
                f"kappa={self.kappa}; mark unsafe_params for stress runs"
            )
        if self.n_credentials < self.s_min:
            raise ConfigError("fewer credentials than s_min: the root shard cannot form")

    @property
    def n_credentials(self) -> int:
        return sum(count for count, _ in self.genesis)

    @property
    def corruption_budget(self) -> Fraction:
        return self.corrupt_fraction if self.corrupt_fraction is not None else self.mu

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "ScenarioConfig":
        """Build a config from its JSON object.  Only the object's shape is
        checked here: the schema version, unknown and missing keys, and the
        genesis and adversary objects; construction checks every value."""
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        data = dict(raw)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        adversary = data.pop("adversary", {})
        if not isinstance(adversary, Mapping):
            raise ConfigError("adversary must be a JSON object")
        unknown = sorted(set(adversary) - set(ADVERSARY_FIELDS))
        if unknown:
            raise ConfigError(f"unknown adversary fields: {unknown}")
        top_level = {f.name for f in fields(cls)} - set(ADVERSARY_FIELDS.values())
        unknown = sorted(set(data) - top_level)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        for f in fields(cls):
            if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing config field {f.name!r}")
        genesis = data["genesis"]
        if not isinstance(genesis, list) or any(
            not isinstance(g, Mapping) or set(g) != {"count", "stake"} for g in genesis
        ):
            raise ConfigError(f"genesis must list {{count, stake}} objects, got {genesis!r}")
        data["genesis"] = tuple((g["count"], g["stake"]) for g in genesis)
        return cls(**data, **{ADVERSARY_FIELDS[key]: value for key, value in adversary.items()})

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}") from exc
        return cls.from_mapping(raw)


def load_config(path, strict: bool = False) -> ScenarioConfig:
    """The config in the JSON file ``path``; under ``strict``, a config
    marked ``unsafe_params`` is refused too."""
    config = ScenarioConfig.from_file(path)
    if strict and config.unsafe_params:
        raise ConfigError("unsafe_params configs rejected under strict parameter checking")
    return config

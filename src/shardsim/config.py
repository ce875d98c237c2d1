"""Scenario configs: the JSON schema, parsed into a frozen ``ScenarioConfig``
and checked against the parameter solver; malformed input raises
``ConfigError``."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


def _number(name: str, value) -> float:
    """A JSON number, integer or not; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
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


ADVERSARY_FIELDS = frozenset({"strategy", "params", "corrupt_fraction", "force_corrupt_shards"})

# How the strategies read each param they name in ``Strategy.param_names``;
# a value its reader refuses is refused in the config.
PARAM_READERS = {
    "fraction": lambda value: _unit_ratio("fraction", value),
    "split": lambda value: _boolean("split", value),
    "candidates": lambda value: _integer("candidates", value, minimum=1),
}


@dataclass(frozen=True)
class ScenarioConfig:
    master_seed: str
    epoch_length: int
    heights: int
    s_min: int
    s_max: int
    mu_core: Fraction
    mu_corrupted: Fraction
    mu: Fraction
    stake_cap: int
    kappa: float
    f_shard: int
    genesis: tuple[tuple[int, int], ...]  # (count, stake) groups
    tx_rate: int = 0
    adversary_strategy: str = "passive"
    adversary_params: Mapping = field(default_factory=dict)
    corrupt_fraction: Fraction | None = None
    force_corrupt_shards: int = 0
    observers: int = 3
    unsafe_params: bool = False
    name: str = ""

    @property
    def n_credentials(self) -> int:
        return sum(count for count, _ in self.genesis)

    @property
    def corruption_budget(self) -> Fraction:
        return self.corrupt_fraction if self.corrupt_fraction is not None else self.mu

    @classmethod
    def from_mapping(cls, raw: Mapping) -> "ScenarioConfig":
        """Parse a config mapping; every malformed input raises ConfigError."""
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        data = dict(raw)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}")
        try:
            genesis = tuple(
                (_integer("count", g["count"]), _integer("stake", g["stake"]))
                for g in data.pop("genesis")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad genesis spec: {exc}") from exc
        adversary = data.pop("adversary", {})
        if not isinstance(adversary, Mapping):
            raise ConfigError("adversary must be a JSON object")
        unknown = sorted(set(adversary) - ADVERSARY_FIELDS)
        if unknown:
            raise ConfigError(f"unknown adversary fields: {unknown}")
        params = adversary.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigError("adversary params must be a JSON object")
        corrupt = adversary.get("corrupt_fraction")
        try:
            kwargs = dict(
                master_seed=_string("master_seed", data.pop("master_seed")),
                epoch_length=_integer("epoch_length", data.pop("epoch_length")),
                heights=_integer("heights", data.pop("heights")),
                s_min=_integer("s_min", data.pop("s_min")),
                s_max=_integer("s_max", data.pop("s_max")),
                mu_core=parse_ratio(data.pop("mu_core")),
                mu_corrupted=parse_ratio(data.pop("mu_corrupted")),
                mu=parse_ratio(data.pop("mu")),
                stake_cap=_integer("stake_cap", data.pop("stake_cap")),
                kappa=_number("kappa", data.pop("kappa")),
                f_shard=_integer("f_shard", data.pop("f_shard")),
                genesis=genesis,
                tx_rate=_integer("tx_rate", data.pop("tx_rate", 0)),
                adversary_strategy=_string("strategy", adversary.get("strategy", "passive")),
                adversary_params=dict(params),
                corrupt_fraction=parse_ratio(corrupt) if corrupt is not None else None,
                force_corrupt_shards=_integer(
                    "force_corrupt_shards", adversary.get("force_corrupt_shards", 0)
                ),
                observers=_integer("observers", data.pop("observers", 3)),
                unsafe_params=_boolean("unsafe_params", data.pop("unsafe_params", False)),
                name=_string("name", data.pop("name", "")),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config field: {exc}") from exc
        if data:
            raise ConfigError(f"unknown config fields: {sorted(data)}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}") from exc
        return cls.from_mapping(raw)

    def validate(self, strict: bool = False) -> list[str]:
        errors = []
        if self.epoch_length < 1:
            errors.append("epoch_length must be >= 1")
        if self.heights < 1:
            errors.append("heights must be >= 1")
        if self.s_min < 1:
            errors.append("s_min must be >= 1")
        if self.s_max < 2 * self.s_min:
            errors.append("s_max must be >= 2 * s_min")
        for name in ("mu_core", "mu_corrupted", "mu"):
            value = getattr(self, name)
            if not (0 < value < 1):
                errors.append(f"{name} must lie strictly between 0 and 1")
        if self.stake_cap < 1:
            errors.append("stake_cap must be >= 1")
        if not self.genesis:
            errors.append("genesis must list at least one UTXO group")
        for count, stake in self.genesis:
            if count < 1:
                errors.append("genesis group count must be >= 1")
            if not (1 <= stake <= self.stake_cap):
                errors.append(f"genesis stake {stake} outside [1, {self.stake_cap}]")
        if self.tx_rate < 0:
            errors.append("tx_rate must be >= 0")
        if self.f_shard < 0:
            errors.append("f_shard must be >= 0")
        if self.observers < 1:
            errors.append("observers must be >= 1")
        strategy = STRATEGIES.get(self.adversary_strategy)
        if strategy is None:
            errors.append(f"unknown adversary strategy {self.adversary_strategy!r}")
        else:
            for name, value in sorted(self.adversary_params.items()):
                if name not in strategy.param_names:
                    errors.append(f"adversary strategy {strategy.name!r} reads no param {name!r}")
                    continue
                try:
                    PARAM_READERS[name](value)
                except (TypeError, ValueError) as exc:
                    errors.append(f"bad adversary param {name}={value!r}: {exc}")
        if not 0 < self.kappa < math.inf:
            errors.append("kappa must be a positive finite number")
        if self.corrupt_fraction is not None and self.corrupt_fraction < 0:
            errors.append("corrupt_fraction must be >= 0")
        if self.corrupt_fraction is not None and self.corrupt_fraction > self.mu:
            errors.append("corrupt_fraction exceeds the adversary stake bound mu")
        if self.force_corrupt_shards < 0:
            errors.append("force_corrupt_shards must be >= 0")

        if strict and self.unsafe_params:
            errors.append("unsafe_params configs rejected under strict parameter checking")
        if not errors and not self.unsafe_params:
            solved = solve_params(
                self.mu, self.kappa, self.n_credentials, self.stake_cap, self.mu_core
            )
            if not solved.feasible:
                errors.append(
                    "no feasible core size for (mu, kappa, N, stake_cap, mu_core); "
                    "mark unsafe_params for stress runs"
                )
            elif self.s_min < solved.s_min:
                errors.append(
                    f"s_min={self.s_min} below the {solved.s_min} required for "
                    f"kappa={self.kappa}; mark unsafe_params for stress runs"
                )
            elif self.n_credentials < self.s_min:
                errors.append("fewer credentials than s_min: the root shard cannot form")
        return errors


def load_config(path, strict: bool = False) -> ScenarioConfig:
    config = ScenarioConfig.from_file(path)
    errors = config.validate(strict=strict)
    if errors:
        raise ConfigError("; ".join(errors))
    return config

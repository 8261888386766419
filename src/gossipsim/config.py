"""JSON experiment configs: parsing, validation and canonical echoing.

A config file is one JSON object with optional sections; every knob has a
default, unknown keys are rejected, and error messages name the offending
field so a bad file fails loudly.  The config dataclasses are the schema:
a section's keys are its dataclass's fields, each cast by its declared type.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from typing import get_type_hints

from .accessibility import ChurnConfig
from .dataparts import PartitionConfig, partition, synthetic_blobs
from .engine import SimConfig, derive_streams
from .mobility import MobilityConfig
from .objective import ProblemSuite, build_suite

__all__ = [
    "ConfigError",
    "SuiteSpec",
    "RunConfig",
    "load_run_config",
    "run_config_from_dict",
    "run_config_to_dict",
    "build_problem_suite",
    "spawn_seeded",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class SuiteSpec:
    """Synthetic data recipe for building the per-node objectives."""

    kind: str = "ridge"
    classes: int = 5
    dim: int = 10
    total: int = 280
    separation: float = 6.0
    reg: float = 0.1
    target_curvature: float | None = 0.9

    def __post_init__(self) -> None:
        if self.kind not in ("ridge", "softmax"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        for name, low in (("classes", 2), ("dim", 1), ("total", self.classes)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        for name in ("separation", "reg", "target_curvature"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig
    partition: PartitionConfig
    suite: SuiteSpec


def _float(v) -> float:
    """A finite JSON number, not a string.  JSON's NaN and Infinity literals
    are rejected: most range checks downstream admit an infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _alpha(v) -> float:
    """A finite number, or infinity (also "inf" or "Infinity") for the i.i.d. split."""
    if v == math.inf or (isinstance(v, str) and v.lower() in ("inf", "infinity")):
        return math.inf
    return _float(v)


def _exactly(tp: type, what: str):
    """A caster that accepts values of type ``tp`` itself, so that a
    boolean is not an integer."""

    def cast(v):
        if type(v) is not tp:
            raise ValueError(f"expected {what}, got {v!r}")
        return v

    return cast


# The caster of each declared field type; a field whose type is another
# config dataclass is a nested section.
_CASTS = {
    int: _exactly(int, "an integer"),
    float: _float,
    bool: _exactly(bool, "a boolean"),
    str: _exactly(str, "a string"),
    float | None: lambda v: None if v is None else _float(v),
}
# The two exceptions, each keyed by (section, field name): churn's rate is
# "lambda" in config files, and partition.alpha may also be infinite.
_FILE_KEYS = {("churn", "rate"): "lambda"}
_SPECIAL_CASTS = {("partition", "alpha"): _alpha}


@cache
def _schema(name: str, cls) -> dict:
    """{config-file key: (field name, caster)} for the dataclass ``cls``
    read as section ``name``."""
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        key = _FILE_KEYS.get((name, f.name), f.name)
        cast = _SPECIAL_CASTS.get((name, f.name)) or _CASTS.get(hints[f.name])
        if cast is None:
            cast = partial(_section, name=f"{name}.{key}" if name else key, cls=hints[f.name])
        schema[key] = (f.name, cast)
    return schema


def _section(raw: dict, name: str, cls):
    """Build the dataclass ``cls`` from the object section ``raw``.  ``name``
    is the section's field name, or "" for the top level."""
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{name}' must be an object")
    schema = _schema(name, cls)
    kwargs = {}
    for key, value in raw.items():
        field = f"{name}.{key}" if name else key
        if key not in schema:
            raise ConfigError(f"unknown field '{field}'")
        attr, cast = schema[key]
        try:
            kwargs[attr] = cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field '{field}': {exc}") from exc
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"field '{name}': {exc}" if name else str(exc)) from exc


def run_config_from_dict(raw: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = {k: v for k, v in raw.items() if k not in ("partition", "suite")}
    return RunConfig(
        sim=_section(top, "", SimConfig),
        partition=_section(raw.get("partition", {}), "partition", PartitionConfig),
        suite=_section(raw.get("suite", {}), "suite", SuiteSpec),
    )


def load_run_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return run_config_from_dict(raw)


def run_config_to_dict(config: RunConfig) -> dict:
    """Canonical echo of a config (what the manifest records): the
    dataclass fields under their config-file names, with an infinite
    ``alpha`` written as ``"inf"``."""
    echo = asdict(config.sim)
    echo["partition"] = asdict(config.partition)
    echo["suite"] = asdict(config.suite)
    for (section, name), key in _FILE_KEYS.items():
        echo[section][key] = echo[section].pop(name)
    if math.isinf(config.partition.alpha):
        echo["partition"]["alpha"] = "inf"
    return echo


def build_problem_suite(config: RunConfig) -> ProblemSuite:
    """Generate data, partition it and assemble the objective suite, all
    from the run seed's data and partition streams."""
    streams = derive_streams(config.sim.seed)
    spec = config.suite
    dataset = synthetic_blobs(
        spec.classes, spec.dim, spec.total, spec.separation, streams["data"]
    )
    shards = partition(dataset, config.sim.n, config.partition, streams["partition"])
    return build_suite(
        dataset.features,
        dataset.targets,
        shards,
        kind=spec.kind,
        reg=spec.reg,
        n_classes=spec.classes if spec.kind == "softmax" else 0,
        target_curvature=spec.target_curvature,
    )


def spawn_seeded(config: RunConfig, seed: int) -> RunConfig:
    """Same experiment with a different seed."""
    return replace(config, sim=replace(config.sim, seed=seed))

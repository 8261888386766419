"""JSON experiment configs: parsing, validation and canonical echoing.

A config file is one JSON object with optional sections; every knob has a
default, unknown keys are rejected, and error messages name the offending
field so a bad file fails loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .accessibility import ChurnConfig
from .dataparts import PartitionConfig, partition, synthetic_blobs
from .engine import EtaSchedule, SimConfig, derive_streams
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
    gamma_weights: str = "data"


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig
    partition: PartitionConfig
    suite: SuiteSpec


def _section(raw: dict, name: str, allowed: dict) -> dict:
    """Validate one object section against {key: caster} and return kwargs.
    ``name`` is the section's field name, or "" for the top level."""
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{name}' must be an object")
    out = {}
    for key, value in raw.items():
        field = f"{name}.{key}" if name else key
        if key not in allowed:
            raise ConfigError(f"unknown field '{field}'")
        try:
            out[allowed[key][1]] = allowed[key][0](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field '{field}': {exc}") from exc
    return out


def _float(v) -> float:
    """A finite number.  JSON's NaN and Infinity literals are rejected:
    the range checks downstream cannot see a NaN."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"expected a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def _alpha(v) -> float:
    """A finite number, or infinity for the i.i.d. limit of the Dirichlet."""
    if v == math.inf or (isinstance(v, str) and v.lower() in ("inf", "infinity")):
        return math.inf
    return _float(v)


def _int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected a boolean, got {v!r}")
    return v


def _str(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _eta(raw) -> EtaSchedule:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return EtaSchedule("constant", _float(raw))
    if isinstance(raw, dict):
        kwargs = _section(raw, "eta", {"kind": (_str, "kind"), "eta0": (_float, "eta0")})
        return EtaSchedule(**kwargs)
    raise ValueError("eta must be a number or an object with kind/eta0")


_TOP_KEYS = {
    "n": (_int, "n"),
    "rounds": (_int, "rounds"),
    "eta": (_eta, "eta"),
    "local_epochs": (_int, "local_epochs"),
    "batch_size": (_int, "batch_size"),
    "seed": (_int, "seed"),
    "offline_training": (_bool, "offline_training"),
    "deemphasis": (_float, "deemphasis"),
    "wtilde_mode": (_str, "wtilde_mode"),
    "init_scale": (_float, "init_scale"),
}

_MOBILITY_KEYS = {
    k: (_float, k)
    for k in ("area_width", "area_height", "speed_min", "speed_max", "pause", "radius", "step")
}

_CHURN_KEYS = {"dropout_p": (_float, "dropout_p"), "lambda": (_float, "rate")}

_PARTITION_KEYS = {
    "scheme": (_str, "scheme"),
    "alpha": (_alpha, "alpha"),
    "per_node": (_int, "per_node"),
}

_SUITE_KEYS = {
    "kind": (_str, "kind"),
    "classes": (_int, "classes"),
    "dim": (_int, "dim"),
    "total": (_int, "total"),
    "separation": (_float, "separation"),
    "reg": (_float, "reg"),
    "target_curvature": (lambda v: None if v is None else _float(v), "target_curvature"),
    "gamma_weights": (_str, "gamma_weights"),
}


def run_config_from_dict(raw: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    sections = ("mobility", "churn", "partition", "suite")
    top = _section({k: v for k, v in raw.items() if k not in sections}, "", _TOP_KEYS)
    try:
        mobility = MobilityConfig(**_section(raw.get("mobility", {}), "mobility", _MOBILITY_KEYS))
        churn = ChurnConfig(**_section(raw.get("churn", {}), "churn", _CHURN_KEYS))
        part = PartitionConfig(**_section(raw.get("partition", {}), "partition", _PARTITION_KEYS))
        suite = SuiteSpec(**_section(raw.get("suite", {}), "suite", _SUITE_KEYS))
        sim = SimConfig(mobility=mobility, churn=churn, **top)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if suite.kind not in ("ridge", "softmax"):
        raise ConfigError(f"field 'suite.kind': unknown objective kind {suite.kind!r}")
    return RunConfig(sim=sim, partition=part, suite=suite)


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
    dataclass fields, with churn's ``rate`` under its config-file name
    ``lambda`` and an infinite ``alpha`` written as ``"inf"``."""
    echo = asdict(config.sim)
    echo["churn"]["lambda"] = echo["churn"].pop("rate")
    echo["partition"] = asdict(config.partition)
    if math.isinf(config.partition.alpha):
        echo["partition"]["alpha"] = "inf"
    echo["suite"] = asdict(config.suite)
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
    targets = dataset.targets if spec.kind == "softmax" else dataset.targets.astype(float)
    return build_suite(
        dataset.features,
        targets,
        shards,
        kind=spec.kind,
        reg=spec.reg,
        n_classes=spec.classes if spec.kind == "softmax" else 0,
        target_curvature=spec.target_curvature,
        gamma_weights=spec.gamma_weights,
    )


def spawn_seeded(config: RunConfig, seed: int) -> RunConfig:
    """Same experiment with a different seed."""
    return replace(config, sim=replace(config.sim, seed=seed))

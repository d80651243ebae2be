"""Experiment configuration: dataclasses, defaults catalog, JSON round-trip.

Configuration resolves in three layers: built-in defaults, then a named
catalog entry (per-dataset overrides), then a user config file, then CLI
flags.  Every field is validated at construction so bad configs fail before
any data is read or training starts; a value of the wrong type, such as a
float where an integer belongs, is a configuration error too.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .errors import ConfigError
from .losses import LossConfig

GENERATOR_KINDS = ("sine", "flat_skew")
DATA_KINDS = GENERATOR_KINDS + ("file",)

# The loss and model fields each of losses.VARIANTS reads when it trains and
# predicts; every variant also reads model.hidden_sizes and loss.variant.
# gaussian_nll reads alpha only to combine its members' intervals.  A run
# verb refuses an explicit flag for a field that no variant it trains reads.
_INTERVAL_READS = ("model.head_bias", "loss.alpha", "loss.coverage_penalty", "loss.soften")
VARIANT_READS = {
    "joint": _INTERVAL_READS + ("loss.interval_weight", "loss.point_loss"),
    "interval_only": _INTERVAL_READS,
    "midpoint": _INTERVAL_READS + ("loss.interval_weight", "loss.point_loss"),
    "decoupled": _INTERVAL_READS + ("loss.point_loss",),
    "gaussian_nll": ("loss.alpha",),
}


def check_int(name, value, minimum):
    """Reject ``value`` for field ``name`` unless it is an integer >= minimum.

    Bools are refused although Python counts them as integers.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _is_finite_real(value):
    """True for a finite int or float; bools and strings are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class DataSpec:
    """Either a synthetic generator (kind + its parameters) or a file path."""

    kind: str = "sine"
    n: int = 100
    x_low: float = -2.0
    x_high: float = 2.0
    noise_scale: float = 0.3
    skew_alpha: float = 100.0
    path: Optional[str] = None
    target_column: Union[int, str] = -1
    delimiter: str = ","

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ConfigError(f"unknown data kind {self.kind!r}; expected one of {DATA_KINDS}")
        if self.kind == "file" and not self.path:
            raise ConfigError("data kind 'file' needs a path")
        check_int("data.n", self.n, 1)
        for name in ("x_low", "x_high", "noise_scale", "skew_alpha"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ConfigError(f"data.{name} must be a finite number, got {value!r}")
        column = self.target_column
        if isinstance(column, bool) or not isinstance(column, (numbers.Integral, str)):
            raise ConfigError(
                f"data.target_column must be an integer or a column name, got {column!r}")
        if not self.x_low < self.x_high:
            raise ConfigError(f"need x_low < x_high, got [{self.x_low}, {self.x_high}]")
        if self.noise_scale < 0.0:
            raise ConfigError(f"noise_scale must be non-negative, got {self.noise_scale}")
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be exactly one character, got {self.delimiter!r}")


@dataclass(frozen=True)
class ModelSpec:
    hidden_sizes: Tuple[int, ...] = (50,)
    head_bias: Tuple[float, float] = (3.0, -3.0)

    def __post_init__(self):
        if len(self.hidden_sizes) < 1:
            raise ConfigError("need at least one hidden layer")
        for h in self.hidden_sizes:
            check_int("model.hidden_sizes", h, 1)
        if not (isinstance(self.head_bias, (list, tuple)) and len(self.head_bias) == 2
                and all(_is_finite_real(b) for b in self.head_bias)):
            raise ConfigError(f"head_bias must be two finite numbers, got {self.head_bias!r}")


@dataclass(frozen=True)
class OptimizerSpec:
    learning_rate: float = 0.01
    decay: float = 0.999
    batch_size: int = 100
    max_epochs: int = 1000
    patience: int = 200
    validation_fraction: float = 0.1

    def __post_init__(self):
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError(f"decay must lie in (0, 1], got {self.decay}")
        check_int("optimizer.batch_size", self.batch_size, 1)
        check_int("optimizer.max_epochs", self.max_epochs, 1)
        check_int("optimizer.patience", self.patience, 0)
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must lie in [0, 1), got {self.validation_fraction}")


@dataclass(frozen=True)
class SplitPlan:
    count: int = 20
    test_fraction: float = 0.1

    def __post_init__(self):
        check_int("splits.count", self.count, 1)
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "sine"
    data: DataSpec = field(default_factory=DataSpec)
    model: ModelSpec = field(default_factory=ModelSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    splits: SplitPlan = field(default_factory=SplitPlan)
    ensemble_size: int = 5
    seed: int = 1
    out_dir: Optional[Union[str, os.PathLike]] = None
    store_predictions: bool = True

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        check_int("ensemble_size", self.ensemble_size, 1)
        check_int("seed", self.seed, 0)
        if self.out_dir is not None and not isinstance(self.out_dir, (str, os.PathLike)):
            raise ConfigError(f"out_dir must be a directory path, got {self.out_dir!r}")
        if not isinstance(self.store_predictions, bool):
            raise ConfigError(f"store_predictions must be true or false, "
                              f"got {self.store_predictions!r}")


# Per-dataset overrides for the bundled benchmark tasks.  UCI-style tables
# are expected as delimited files under data/uci/ with the target in the
# last column (see scripts/fetch_uci.py).  Hidden widths, batch sizes,
# coverage penalties, and split counts follow the usual small-tabular
# benchmark settings.
CATALOG = {
    "sine": {
        "data": {"kind": "sine", "n": 100, "noise_scale": 0.3, "skew_alpha": 100.0},
        "model": {"hidden_sizes": [100]},
        "optimizer": {"max_epochs": 2000},
        "splits": {"count": 5},
    },
    "flat_skew": {
        "data": {"kind": "flat_skew", "n": 100},
        "model": {"hidden_sizes": [100]},
        "optimizer": {"max_epochs": 2000},
        "splits": {"count": 5},
    },
    "boston": {"data": {"kind": "file", "path": "data/uci/boston.csv"}},
    "concrete": {"data": {"kind": "file", "path": "data/uci/concrete.csv"}},
    "energy": {"data": {"kind": "file", "path": "data/uci/energy.csv"}},
    "kin8nm": {"data": {"kind": "file", "path": "data/uci/kin8nm.csv"}},
    "naval": {
        "data": {"kind": "file", "path": "data/uci/naval.csv"},
        "loss": {"coverage_penalty": 4.0},
    },
    "power": {"data": {"kind": "file", "path": "data/uci/power.csv"}},
    "protein": {
        "data": {"kind": "file", "path": "data/uci/protein.csv"},
        "model": {"hidden_sizes": [100]},
        "loss": {"coverage_penalty": 40.0},
        "splits": {"count": 5},
    },
    "wine": {
        "data": {"kind": "file", "path": "data/uci/wine.csv"},
        "loss": {"coverage_penalty": 30.0},
    },
    "yacht": {
        "data": {"kind": "file", "path": "data/uci/yacht.csv"},
        "loss": {"coverage_penalty": 3.0},
    },
    "msd": {
        "data": {"kind": "file", "path": "data/uci/msd.csv"},
        "model": {"hidden_sizes": [100]},
        "optimizer": {"batch_size": 1000},
        "splits": {"count": 1},
    },
}

_SECTION_TYPES = {
    "data": DataSpec,
    "model": ModelSpec,
    "loss": LossConfig,
    "optimizer": OptimizerSpec,
    "splits": SplitPlan,
}

_TUPLE_FIELDS = {"hidden_sizes", "head_bias"}


def _coerce(cls, values: dict):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} field(s): {sorted(unknown)}")
    fixed = {}
    for key, val in values.items():
        if key in _TUPLE_FIELDS and isinstance(val, (list, tuple)):
            val = tuple(val)
        fixed[key] = val
    return fixed


def config_from_dict(raw: dict, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Build a config from a nested dict, overriding ``base`` field by field."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
    base = base if base is not None else ExperimentConfig()
    top = {}
    for key, val in raw.items():
        if key in _SECTION_TYPES:
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            cls = _SECTION_TYPES[key]
            current = dataclasses.asdict(getattr(base, key))
            current.update(_coerce(cls, val))
            try:
                top[key] = cls(**current)
            except TypeError as exc:
                # A value of the wrong type, such as a string where a
                # number belongs, fails a comparison in validation.
                raise ConfigError(f"config section {key!r}: {exc}") from None
        else:
            top[key] = val
    merged = _coerce(ExperimentConfig, top)
    return dataclasses.replace(base, **merged)


def default_config(name: Optional[str] = None) -> ExperimentConfig:
    """Built-in defaults, with catalog overrides applied for known names."""
    cfg = ExperimentConfig()
    if name is None:
        return cfg
    cfg = dataclasses.replace(cfg, name=name)
    entry = CATALOG.get(name)
    if entry is not None:
        cfg = config_from_dict(entry, base=cfg)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-safe nested dict (tuples become lists, paths strings)."""
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=os.fspath))


def load_config_file(path) -> dict:
    """Parse a JSON config file into a plain dict."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


def resolve_config(name=None, config_path=None, overrides=None) -> ExperimentConfig:
    """defaults -> catalog(name) -> config file -> explicit overrides."""
    file_raw = load_config_file(config_path) if config_path else {}
    if name is None:
        name = file_raw.get("name")
    cfg = default_config(name)
    if file_raw:
        cfg = config_from_dict(file_raw, base=cfg)
    if overrides:
        cfg = config_from_dict(overrides, base=cfg)
    return cfg

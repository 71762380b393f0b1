"""Run configuration: defaults, JSON config files, and flag overrides.

Precedence is flag > config file > default.  The resolved configuration is
echoed into every run report so a run can be reproduced from its outputs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import InputError, ValidationError

DEFAULT_ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_GATING_THRESHOLDS = ((1600, 3), (1950, 5), (2000, 10))
# The year a person's age is counted to for the HPI (features.hpi_weight).
DEFAULT_REFERENCE_YEAR = 2023

# A location-year passes the gate when its unweighted birth and death
# counts satisfy the rule's predicate against the year's threshold.
GATING_RULES = {
    "both": lambda births, deaths, t: births >= t and deaths >= t,
    "either": lambda births, deaths, t: births >= t or deaths >= t,
    "sum": lambda births, deaths, t: births + deaths >= t,
}

# Fewest bootstrap replicates a run may ask for (pipeline.bootstrap_ci).
MIN_BOOTSTRAP_SAMPLES = 50

# The allowed values of every enumerated setting.
CHOICES = {
    "scale": ("log10p1", "asinh"),
    "cv_selection_rule": ("min_mean", "fold_average"),
    "bootstrap_unit": ("row", "country"),
    "gating_rule": tuple(GATING_RULES),
}


@dataclass
class RunConfig:
    """Every run setting; each field is also a config key and a flag.

    Construction refuses a value not of its field's type (see
    :func:`_expected_type`), whether it comes from a config file or a
    library caller, before any range check or coercion.
    """

    # input/output paths
    biographies: str | None = field(default=None, metadata={"help": "biographies.csv path"})
    locations: str | None = field(default=None, metadata={"help": "locations.csv path"})
    gdp: str | None = field(default=None, metadata={"help": "gdp.csv path"})
    proxies: str | None = field(
        default=None, metadata={"help": "proxy CSV (location_id,year,value)"}
    )
    output_dir: str = "."
    # feature construction
    window_years: int = 150
    scale: str = "log10p1"
    reference_year_for_age: int = DEFAULT_REFERENCE_YEAR
    min_birth_year: int = 1100
    max_reject_fraction: float = 0.10
    # elastic net
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    n_lambda: int = 100
    lambda_ratio: float = 1e-4
    k_folds: int = 10
    cv_selection_rule: str = "min_mean"
    # evaluation
    n_splits: int = 500
    test_fraction: float = 0.2
    # bootstrap
    bootstrap_samples: int = 200
    ci_level: float = 0.90
    bootstrap_unit: str = "row"
    # gating
    gating_rule: str = "both"
    gating_thresholds: tuple = DEFAULT_GATING_THRESHOLDS
    # reproducibility
    seed: int = 0
    threads: int = field(
        default=1,
        metadata={"help": "no effect: held-out splits run in batches on one thread; "
                          "kept so that existing configs still load"},
    )

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (expected := _expected_type(f, value)) is not None:
                raise ValidationError(f"config key '{f.name}' must be {expected}, got {value!r}")
            if field_type(f) in (int, float):  # a numpy number would not echo as JSON
                setattr(self, f.name, field_type(f)(value))
        self.alpha_grid = tuple(float(a) for a in self.alpha_grid)
        self.gating_thresholds = tuple(
            (int(y), int(t)) for y, t in self.gating_thresholds
        )
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValidationError(f"unknown {name} '{getattr(self, name)}'")
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError(f"ci_level must lie in (0, 1), got {self.ci_level}")
        if not self.alpha_grid:
            raise ValidationError("alpha_grid must not be empty")
        if not all(0.0 <= a <= 1.0 for a in self.alpha_grid):
            raise ValidationError("alpha_grid values must lie in [0, 1]")
        # settings every load, period or split would reject, refused before any work
        if not 0.0 <= self.max_reject_fraction <= 1.0:
            raise ValidationError(
                f"max_reject_fraction must lie in [0, 1], got {self.max_reject_fraction}"
            )
        if self.window_years < 1:
            raise ValidationError(f"window_years must be at least 1, got {self.window_years}")
        if self.k_folds < 2:
            raise ValidationError(f"k_folds must be at least 2, got {self.k_folds}")
        if self.n_lambda < 2:
            raise ValidationError(f"n_lambda must be at least 2, got {self.n_lambda}")
        if not 0.0 < self.lambda_ratio < 1.0:
            raise ValidationError(f"lambda_ratio must lie in (0, 1), got {self.lambda_ratio}")
        if self.n_splits < 1:
            raise ValidationError(f"n_splits must be at least 1, got {self.n_splits}")
        if self.bootstrap_samples < MIN_BOOTSTRAP_SAMPLES:
            raise ValidationError(
                f"bootstrap_samples must be at least {MIN_BOOTSTRAP_SAMPLES}, "
                f"got {self.bootstrap_samples}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValidationError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if not self.gating_thresholds:
            raise ValidationError("gating_thresholds must not be empty")
        years = [y for y, _ in self.gating_thresholds]
        thresholds = [t for _, t in self.gating_thresholds]
        if years != sorted(years) or any(t <= 0 for t in thresholds):
            raise ValidationError("gating thresholds must be positive with ascending year caps")
        if thresholds != sorted(thresholds):
            raise ValidationError("gating thresholds must be non-decreasing in year")

    def gate_threshold(self, year: int) -> int:
        """The threshold of the first year cap at or after ``year``; the
        last cap's past every cap."""
        return next(
            (t for cap, t in self.gating_thresholds if year <= cap), self.gating_thresholds[-1][1]
        )

    def passes_gate(self, births: int, deaths: int, year: int) -> bool:
        """Whether a location-year with these unweighted birth and death
        counts gets an estimate: ``gating_rule`` against the year's
        threshold."""
        return GATING_RULES[self.gating_rule](births, deaths, self.gate_threshold(year))

    def echo(self) -> dict:
        doc = asdict(self)
        doc["alpha_grid"] = list(self.alpha_grid)
        doc["gating_thresholds"] = [list(p) for p in self.gating_thresholds]
        return doc


_FIELDS = {f.name: f for f in fields(RunConfig)}


def field_type(f) -> type:
    """A :class:`RunConfig` field's type: its default's, or ``str`` for a path."""
    return str if f.default is None else type(f.default)


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind``: a bool is no number, any integral
    number (numpy's too) is an int, and any real number is a float."""
    kind = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return not isinstance(value, bool) and isinstance(value, kind)


def _expected_type(f, value) -> str | None:
    """What :class:`RunConfig` field ``f`` must hold, when ``value`` is not
    that; else None.  A tuple field holds a list or a tuple."""
    sequence = (list, tuple)
    if f.name == "alpha_grid":
        ok = isinstance(value, sequence) and all(_is_a(a, float) for a in value)
        return None if ok else "a list of numbers"
    if f.name == "gating_thresholds":
        ok = isinstance(value, sequence) and all(
            isinstance(pair, sequence) and len(pair) == 2 and all(_is_a(x, int) for x in pair)
            for pair in value
        )
        return None if ok else "a list of [year, threshold] integer pairs"
    if _is_a(value, field_type(f)) or (value is None and f.default is None):
        return None
    return {int: "an integer", float: "a number", str: "a string"}[field_type(f)]


def config_from_sources(file_path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus flag overrides.

    The config file uses flat keys mirroring the flag names.  Unknown keys
    are rejected so typos surface immediately; :class:`RunConfig` refuses
    a value not of its field's type.
    """
    merged: dict = {}
    if file_path is not None:
        path = Path(file_path)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise ValidationError(f"{path}: invalid JSON ({err})") from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        unknown = set(loaded) - set(_FIELDS)
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
        merged.update(loaded)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ValidationError(f"unknown config override '{key}'")
        merged[key] = value
    return RunConfig(**merged)

"""RunConfig is the one definition of a run setting: the CLI flags, their
choices, the gating rules and the README's key list must all follow it."""

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from histgdp.cli import _resolve_config, build_parser
from histgdp.config import CHOICES, GATING_RULES, RunConfig
from histgdp.errors import ValidationError

SUBCOMMANDS = ("validate", "features", "estimate", "evaluate", "explain", "correlate")

# A non-default value for every field: (flag text, value the field takes).
FLAG_VALUES = {
    "biographies": ("b.csv", "b.csv"),
    "locations": ("l.csv", "l.csv"),
    "gdp": ("g.csv", "g.csv"),
    "proxies": ("p.csv", "p.csv"),
    "output_dir": ("out", "out"),
    "window_years": ("120", 120),
    "scale": ("asinh", "asinh"),
    "reference_year_for_age": ("2000", 2000),
    "min_birth_year": ("1200", 1200),
    "max_reject_fraction": ("0.25", 0.25),
    "alpha_grid": ("0.25,0.75", (0.25, 0.75)),
    "n_lambda": ("12", 12),
    "lambda_ratio": ("0.01", 0.01),
    "k_folds": ("4", 4),
    "cv_selection_rule": ("fold_average", "fold_average"),
    "n_splits": ("9", 9),
    "test_fraction": ("0.3", 0.3),
    "bootstrap_samples": ("60", 60),
    "ci_level": ("0.8", 0.8),
    "bootstrap_unit": ("country", "country"),
    "gating_rule": ("sum", "sum"),
    "gating_thresholds": ("1700:2,2000:4", ((1700, 2), (2000, 4))),
    "seed": ("5", 5),
    "threads": ("2", 2),
}


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_field_is_a_flag_of_every_subcommand(name):
    text, value = FLAG_VALUES[name]
    assert value != getattr(RunConfig(), name)
    parser, _ = subparsers()
    flag = "--" + name.replace("_", "-")
    for command in SUBCOMMANDS:
        config = _resolve_config(parser.parse_args([command, flag, text]))
        assert getattr(config, name) == value, command


def test_flag_choices_are_the_choices_table():
    _, commands = subparsers()
    for command in SUBCOMMANDS:
        shown = {
            a.dest: tuple(a.choices)
            for a in commands[command]._actions
            if a.choices is not None and a.dest != "transform"
        }
        assert shown == CHOICES, command


def test_gating_rules_are_the_gating_choices():
    assert tuple(GATING_RULES) == CHOICES["gating_rule"]
    for rule in CHOICES["gating_rule"]:
        assert RunConfig(gating_rule=rule).passes_gate(10, 10, 2000)
        assert not RunConfig(gating_rule=rule).passes_gate(0, 0, 2000)


def test_unknown_gating_rule_raises():
    with pytest.raises(ValidationError, match="unknown gating_rule 'most'"):
        RunConfig(gating_rule="most")


def test_empty_gating_thresholds_raise():
    # with no year cap every gated prediction would have no threshold to read
    with pytest.raises(ValidationError, match="gating_thresholds must not be empty"):
        RunConfig(gating_thresholds=())


def test_readme_config_keys_are_the_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("Config keys")
    paragraph = readme[start:readme.index("\n\n", start)]
    # drop the parenthesized defaults and choices, keep the key names
    names = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", paragraph))
    assert sorted(names) == sorted(f.name for f in fields(RunConfig))


@pytest.mark.parametrize("overrides, message", [
    ({"max_reject_fraction": -0.1}, r"max_reject_fraction must lie in \[0, 1\], got -0.1"),
    ({"max_reject_fraction": 1.5}, r"max_reject_fraction must lie in \[0, 1\], got 1.5"),
    ({"window_years": 0}, "window_years must be at least 1, got 0"),
    ({"ci_level": 0.0}, r"ci_level must lie in \(0, 1\), got 0.0"),
    ({"ci_level": 1.0}, r"ci_level must lie in \(0, 1\), got 1.0"),
    ({"alpha_grid": (0.5, 1.5)}, r"alpha_grid values must lie in \[0, 1\]"),
    ({"alpha_grid": (-0.1,)}, r"alpha_grid values must lie in \[0, 1\]"),
    ({"gating_thresholds": ((2000, 5), (1600, 3))}, "positive with ascending year caps"),
    ({"gating_thresholds": ((1600, 0), (2000, 5))}, "positive with ascending year caps"),
    ({"gating_thresholds": ((1600, 5), (2000, 3))}, "non-decreasing in year"),
])
def test_out_of_range_setting_raises(overrides, message):
    with pytest.raises(ValidationError, match=message):
        RunConfig(**overrides)


@pytest.mark.parametrize("overrides, message", [
    ({"n_lambda": 2.5}, "config key 'n_lambda' must be an integer, got 2.5"),
    ({"window_years": True}, "config key 'window_years' must be an integer, got True"),
    ({"seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
    ({"bootstrap_samples": 50.5}, "config key 'bootstrap_samples' must be an integer, got 50.5"),
    ({"k_folds": "5"}, "config key 'k_folds' must be an integer, got '5'"),
])
def test_wrongly_typed_setting_raises(overrides, message):
    # a library caller's value is checked as a config file's is
    with pytest.raises(ValidationError, match=re.escape(message)):
        RunConfig(**overrides)


def test_numpy_integer_is_an_integer():
    # taken as a plain int, so that the run report's echo can write it
    config = RunConfig(seed=np.int64(3))
    assert type(config.seed) is int and config.seed == 3
    assert json.loads(json.dumps(config.echo()))["seed"] == 3


def test_reject_fraction_and_window_accept_their_bounds():
    for fraction in (0.0, 1.0):
        assert RunConfig(max_reject_fraction=fraction).max_reject_fraction == fraction
    assert RunConfig(window_years=1).window_years == 1

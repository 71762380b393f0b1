"""Shapley-value feature attribution for fitted models.

For the linear elastic-net model the Shapley value of feature i at an
instance has the closed form ``beta_i * (x_i - mean_i)`` in standardized
space, with absent features represented by their background mean (the
independence convention).  The closed form reads its background, and
:func:`attribute_rows` its instances, from a :class:`FeatureMatrix`,
matched to the model's columns by name.  A model-agnostic
permutation-sampling estimator, on plain arrays, cross-validates the
closed form and covers any prediction function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data_ingest import format_float, write_table
from .elasticnet import EnModel
from .errors import ValidationError
from .features import FeatureMatrix

MIN_PERMUTATIONS = 10


@dataclass(frozen=True)
class Attribution:
    """Per-feature contributions for one instance; satisfies
    ``base + sum(phi) == prediction`` (efficiency)."""

    key: tuple
    feature_names: tuple
    phi: np.ndarray
    base: float
    prediction: float
    se: np.ndarray | None = None


def _linear_attributions(model: EnModel, keys, x_std, background) -> list[Attribution]:
    """Closed-form attributions of standardized rows ``x_std`` (see
    :meth:`EnModel.standardize_rows`), one per key, against
    ``background``'s mean: a :class:`FeatureMatrix`, whose columns are
    matched to the model's by name."""
    if not isinstance(background, FeatureMatrix):
        raise ValidationError("background must be a FeatureMatrix")
    if background.values.shape[0] < 1:
        raise ValidationError("background must contain at least one row")
    bg_std_mean = model.standardize_rows(background.values, background.columns).mean(axis=0)
    phi = model.coefficients * (x_std - bg_std_mean)
    base = model.intercept + float(model.coefficients @ bg_std_mean)
    return [
        Attribution(
            key=tuple(key),
            feature_names=model.feature_names,
            phi=phi_row,
            base=base,
            prediction=model.intercept + float(model.coefficients @ x),
        )
        for key, phi_row, x in zip(keys, phi, x_std)
    ]


def shapley_linear_exact(model: EnModel, x_row, background, key=("", 0)) -> Attribution:
    """Exact Shapley values for a linear model on standardized features.

    ``x_row`` is a raw-scale feature vector in the order of the model's
    ``feature_names``; ``background`` is a :class:`FeatureMatrix` that
    supplies the reference distribution (typically the period's training
    rows).
    """
    values = np.asarray(x_row, dtype=float)[None]
    if values.shape != (1, len(model.feature_names)):
        raise ValidationError("instance vector length does not match the model")
    x_std = model.standardize_rows(values, model.feature_names)
    return _linear_attributions(model, [key], x_std, background)[0]


def shapley_permutation(
    predict_fn,
    x,
    background,
    n_permutations: int = 1000,
    seed: int = 0,
    feature_names=None,
    key=("", 0),
    enumerate_all: bool = False,
) -> Attribution:
    """Permutation-sampling Shapley estimate for any prediction function.

    Each sampled permutation walks the features in order, switching them
    from a sampled background row to the instance value and crediting the
    marginal prediction change.  Uniform random permutations realize the
    ``|S|! (|F|-|S|-1)! / |F|!`` coalition weights; ``enumerate_all``
    replaces sampling with the full factorial sweep (small feature counts
    only).  Reports a Monte-Carlo standard error per feature.
    """
    x = np.asarray(x, dtype=float)
    bg = np.atleast_2d(np.asarray(background, dtype=float))
    p = x.size
    if bg.shape[1] != p:
        raise ValidationError("background width does not match the instance")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(p))
    rng = np.random.default_rng(seed)
    if enumerate_all:
        perms = list(itertools.permutations(range(p)))
    else:
        if n_permutations < MIN_PERMUTATIONS:
            raise ValidationError(
                f"need at least {MIN_PERMUTATIONS} permutations, got {n_permutations}"
            )
        perms = [rng.permutation(p) for _ in range(n_permutations)]

    contributions = np.zeros((len(perms), p))
    base_values = np.zeros(len(perms))
    for t, perm in enumerate(perms):
        row = bg[int(rng.integers(bg.shape[0]))]
        z = row.copy()
        prev = float(predict_fn(z))
        base_values[t] = prev
        for j in perm:
            z[j] = x[j]
            cur = float(predict_fn(z))
            contributions[t, j] = cur - prev
            prev = cur

    phi = contributions.mean(axis=0)
    if len(perms) > 1:
        se = contributions.std(axis=0, ddof=1) / math.sqrt(len(perms))
    else:
        se = np.zeros(p)
    return Attribution(
        key=tuple(key),
        feature_names=tuple(feature_names),
        phi=phi,
        base=float(base_values.mean()),
        prediction=float(predict_fn(x.copy())),
        se=se,
    )


def attribute_rows(model: EnModel, fm: FeatureMatrix, background=None) -> list[Attribution]:
    """Exact attributions for every row of a feature matrix."""
    x_std = model.standardize_rows(fm.values, fm.columns)
    return _linear_attributions(
        model, fm.row_keys, x_std, fm if background is None else background
    )


def rank_features(attributions) -> list[tuple[str, float]]:
    """Features ordered by mean absolute Shapley value, descending.

    Ties break alphabetically.
    """
    attributions = list(attributions)
    if not attributions:
        raise ValidationError("rank_features needs at least one attribution")
    names = attributions[0].feature_names
    for a in attributions[1:]:
        if a.feature_names != names:
            raise ValidationError("attributions carry different feature sets")
    mean_abs = np.mean([np.abs(a.phi) for a in attributions], axis=0)
    return sorted(zip(names, mean_abs.tolist()), key=lambda kv: (-kv[1], kv[0]))


def write_shapley_csv(attributions, path):
    def rows():
        for a in attributions:
            lid, year = a.key
            se = a.se if a.se is not None else np.zeros(len(a.feature_names))
            for name, phi, err in zip(a.feature_names, a.phi, se):
                yield [lid, year, name, format_float(phi), format_float(err)]

    write_table(path, ["location_id", "year", "feature", "phi", "se"], rows())


def write_importance_csv(ranking, path):
    write_table(
        path,
        ["feature", "mean_abs_phi"],
        ([name, format_float(value)] for name, value in ranking),
    )


def run_explain(dataset, config) -> dict:
    """Train the per-period models and attribute every labeled row.

    Returns {period_id: (attributions, ranking)} with the period's own
    labeled feature rows as the background distribution.
    """
    from .pipeline import fit_periods

    out = {}
    for fit in fit_periods(dataset, config, [(dataset.source_levels, config.seed)], {}):
        labeled = fit.features.subset(list(fit.model.training_keys))
        attributions = attribute_rows(fit.model.model, labeled, background=labeled)
        out[fit.period.period_id] = (attributions, rank_features(attributions))
    return out

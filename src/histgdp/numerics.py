"""Numpy-only linear algebra and statistics kernel.

Everything downstream (feature construction, penalized regression, the
estimation pipeline, evaluation) builds on the routines here: the thin SVD
(LAPACK through ``np.linalg.svd``, with a fixed sign convention), least
squares through the SVD pseudo-inverse, column standardization,
interpolated quantiles, the Kruskal-Wallis rank test with its chi-square
survival function, and the two fit metrics used throughout.

Every routine takes plain arrays; where column names matter
(:func:`standardize`) they come as a tuple beside the array.  The
package's labelled table is ``features.FeatureMatrix``.  All functions
are pure; none mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


def _as_array(m) -> np.ndarray:
    values = np.asarray(m, dtype=float)
    if values.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got ndim={values.ndim}")
    return values


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: ``a = u @ diag(s) @ v.T`` with ``r = min(rows, cols)``.

    Columns of ``u`` and ``v`` are orthonormal, also for rank-deficient
    inputs; ``s`` is non-negative and descending.  Sign convention, for
    tall and wide inputs alike: the largest-magnitude entry of each ``u``
    column (the first on ties) is positive, and the matching ``v`` column
    is flipped with it.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def svd(m, name: str = "matrix") -> SvdResult:
    """Thin singular value decomposition by LAPACK (``np.linalg.svd``).

    Raises
    ------
    ValidationError
        If the input is empty or contains non-finite values.
    NumericalError
        If LAPACK reports that the decomposition did not converge.
    """
    a = _as_array(m)
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name}: cannot decompose an empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name}: non-finite values in SVD input")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"{name}: SVD did not converge on a {a.shape[0]}x{a.shape[1]} matrix ({err})"
        ) from err
    v = vt.T
    cols = np.arange(u.shape[1])
    flip = u[np.argmax(np.abs(u), axis=0), cols] < 0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SvdResult(u=u, s=s, v=v)


@dataclass(frozen=True)
class OlsResult:
    """Least-squares fit with intercept; minimum-norm on rank deficiency."""

    intercept: float
    coefficients: np.ndarray


def ols_fit(x, y) -> OlsResult:
    """Ordinary least squares of ``y`` on ``x`` plus an intercept column.

    Solved through the SVD pseudo-inverse, so a rank-deficient design
    yields the minimum-norm solution instead of failing.
    """
    a = _as_array(x)
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1 or a.shape[0] != yv.shape[0]:
        raise ValidationError("ols_fit: x rows and y length must match")
    if a.shape[0] <= a.shape[1]:
        raise ValidationError("ols_fit: need more rows than columns")
    design = np.hstack([np.ones((a.shape[0], 1)), a])
    dec = svd(design, name="ols design")
    smax = dec.s[0] if dec.s.size else 0.0
    cutoff = max(design.shape) * np.finfo(float).eps * smax
    keep = dec.s > cutoff
    inv_s = np.where(keep, 1.0 / np.where(keep, dec.s, 1.0), 0.0)
    beta = dec.v @ (inv_s * (dec.u.T @ yv))
    return OlsResult(intercept=float(beta[0]), coefficients=beta[1:])


@dataclass(frozen=True)
class StandardizeResult:
    """Standardized ``values`` with their ``columns``, the kept columns'
    raw-scale ``means`` and ``sds``, and the ``dropped`` constant columns."""

    values: np.ndarray
    columns: tuple
    means: np.ndarray
    sds: np.ndarray
    dropped: tuple = ()


def standardize(values, columns=None) -> StandardizeResult:
    """Center and scale columns to mean 0, population sd 1.

    ``columns`` names the columns (``col_<j>`` by default).  Constant
    columns carry no information for a penalized regression and are
    dropped; their names are recorded so callers can report them.
    """
    values = _as_array(values)
    if not np.all(np.isfinite(values)):
        raise ValidationError("standardize: non-finite values")
    if columns is None:
        columns = tuple(f"col_{j}" for j in range(values.shape[1]))
    elif len(columns) != values.shape[1]:
        raise ValidationError("standardize: column name count does not match column count")
    means = values.mean(axis=0)
    sds = values.std(axis=0)  # population (ddof=0)
    keep = sds > 0
    return StandardizeResult(
        values=(values[:, keep] - means[keep]) / sds[keep],
        columns=tuple(columns[j] for j in np.flatnonzero(keep)),
        means=means[keep],
        sds=sds[keep],
        dropped=tuple(columns[j] for j in np.flatnonzero(~keep)),
    )


def quantile(values, p: float):
    """Linear-interpolation quantile: index ``p * (n - 1)`` into the sorted sample.

    A 1-D sample gives a float; a 2-D sample is taken column by column
    (one sort) and gives one quantile per column, each equal to the
    quantile of that column alone.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValidationError("quantile of an empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"quantile probability {p} outside [0, 1]")
    v = np.sort(v, axis=0)
    h = p * (v.shape[0] - 1)
    lo = int(math.floor(h))
    hi = int(math.ceil(h))
    q = v[lo] + (h - lo) * (v[hi] - v[lo])
    return float(q) if v.ndim == 1 else q


def _midranks(pooled: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions: a run of
    equal sorted values at positions ``i..j`` gets ``0.5 * (i + j) + 1``."""
    order = np.argsort(pooled, kind="stable")
    sorted_vals = pooled[order]
    edge = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    first = np.concatenate(([0], edge))
    last = np.concatenate((edge, [pooled.size])) - 1
    ranks = np.empty(pooled.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def kruskal_wallis(groups) -> tuple[float, float]:
    """Kruskal-Wallis H test on two or more groups.

    Uses pooled mid-ranks with the tie correction
    ``1 - sum(t^3 - t) / (N^3 - N)``; the p-value comes from the
    chi-square survival function with ``len(groups) - 1`` degrees of
    freedom.  All values identical is treated as no separation
    (H = 0, p = 1).
    """
    gs = [np.asarray(g, dtype=float) for g in groups]
    if len(gs) < 2:
        raise ValidationError("kruskal_wallis needs at least two groups")
    if any(g.size == 0 for g in gs):
        raise ValidationError("kruskal_wallis groups must be non-empty")
    pooled = np.concatenate(gs)
    n_total = pooled.size
    if np.all(pooled == pooled[0]):
        return 0.0, 1.0
    ranks = _midranks(pooled)
    h = 0.0
    start = 0
    for g in gs:
        r = ranks[start : start + g.size]
        h += r.sum() ** 2 / g.size
        start += g.size
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    correction = 1.0 - tie_term / (n_total**3 - n_total)
    h = h / correction
    p = chi2_sf(h, len(gs) - 1)
    return float(h), float(p)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function in closed form for an integer ``df``.

    With ``h = x / 2`` the tail is the regularized upper incomplete gamma
    ``Q(df/2, h)``, which steps down by ``Q(a, h) = Q(a - 1, h) +
    h^(a-1) exp(-h) / Gamma(a)`` to ``Q(1, h) = exp(-h)`` or ``Q(1/2, h) =
    erfc(sqrt(h))``.  So an even ``df`` gives ``exp(-h) * sum_{k < df/2}
    h^k / k!`` and an odd one ``erfc(sqrt(h)) + sum_{k=1}^{(df-1)/2}
    h^(k-1/2) exp(-h) / Gamma(k+1/2)``.  Every term is positive and taken
    in log space through ``math.lgamma``, so no term underflows before the
    sum does.  A ``df`` that is not a positive integer raises
    :class:`ValidationError`.
    """
    if df < 1 or df != int(df):
        raise ValidationError(f"chi2_sf: df must be a positive integer, got {df}")
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    orders = (0.5 * df - i for i in range(int(df) // 2))
    terms = (_exp_sum((a - 1.0) * log_h - math.lgamma(a), -h) for a in orders)
    return min(1.0, head + math.fsum(terms))  # a tail near 1 can round an ulp above


def _exp_sum(a: float, b: float) -> float:
    """``exp(a + b)``, with the rounding error of ``a + b`` (Knuth's two-sum)
    put back: its relative error stays a few ulps even where ``a + b`` is
    hundreds in magnitude."""
    s = a + b
    v = s - a
    return math.exp(s) * (1.0 + ((a - (s - v)) + (b - v)))


def r2_log(predicted, observed) -> float:
    """Out-of-sample R-squared, ``1 - SSE/SST``; may be negative."""
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or pred.ndim != 1 or pred.size < 2:
        raise ValidationError("r2_log: need equal-length vectors of size >= 2")
    sst = float(np.sum((obs - obs.mean()) ** 2))
    if sst == 0.0:
        raise ValidationError("r2_log: observed values have zero variance")
    sse = float(np.sum((pred - obs) ** 2))
    return 1.0 - sse / sst


def mae_relative(predicted_level, observed_level) -> float:
    """Mean absolute error divided by the mean observed level."""
    pred = np.asarray(predicted_level, dtype=float)
    obs = np.asarray(observed_level, dtype=float)
    if pred.shape != obs.shape or pred.ndim != 1 or pred.size == 0:
        raise ValidationError("mae_relative: need equal-length non-empty vectors")
    if np.any(obs <= 0):
        raise ValidationError("mae_relative: observed levels must be positive")
    return float(np.mean(np.abs(pred - obs)) / np.mean(obs))


def pearson(x, y) -> float:
    """Pearson correlation coefficient."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape or xv.size < 2:
        raise ValidationError("pearson: need equal-length vectors of size >= 2")
    xd = xv - xv.mean()
    yd = yv - yv.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        raise ValidationError("pearson: zero variance input")
    return float(xd @ yd) / denom


def spearman(x, y) -> float:
    """Spearman rank correlation (Pearson on mid-ranks)."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    return pearson(_midranks(xv), _midranks(yv))

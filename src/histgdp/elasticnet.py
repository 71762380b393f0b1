"""Elastic-net regression by an exact active-set solver.

The objective is the unnormalized form

    L(alpha, lam, beta) = ||y - X beta||^2
                          + lam * (alpha * ||beta||_1 + (1 - alpha) * ||beta||_2^2)

so ``alpha = 1`` is the pure l1 (lasso) penalty and ``alpha = 0`` the pure
l2 (ridge) penalty.  Its KKT conditions, with ``c = X'y - X'X beta`` and
``l1 = lam * alpha / 2``, ``l2 = lam * (1 - alpha)``, are

    c_j - l2 * beta_j = l1 * sign(beta_j)    where beta_j != 0
    |c_j| <= l1                              where beta_j == 0

The solver follows the active-set strategy of glmnet (Friedman, Hastie &
Tibshirani 2010): it solves these equations exactly on the current sign
pattern, as in feature-sign search (Lee, Battle, Raina & Ng 2007), and
admits the largest violator once the active block is optimal.  Every fit
returns its largest KKT violation as a certificate.  Solvers work on
precomputed Gram matrices, which keeps warm-started regularization paths
and cross-validation cheap on the small design matrices this package
produces.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_ALPHA_GRID
from .errors import NumericalError, ValidationError
from .numerics import Matrix
from .rng import parallel_map

DEFAULT_TOL = 1e-7  # largest KKT violation a fit may keep
DEFAULT_MAX_STEPS = 10_000
# An active block is singular (collinear columns, e.g. a full dummy set)
# when a squared Cholesky pivot falls to this fraction of its largest
# diagonal entry; its eigenvalues at or below this fraction of the largest
# then span the null space.
_NULL_RTOL = 1e-10
# A step whose objective rises by more than this (relative) is rejected.
_OBJECTIVE_SLACK = 1e-12
_REPAIR_SWEEPS = 3


def _unpack(x, feature_names=None):
    if isinstance(x, Matrix):
        values = x.values
        names = x.col_labels
    else:
        values = np.asarray(x, dtype=float)
        names = None
    if feature_names is not None:
        names = tuple(feature_names)
    if names is None:
        names = tuple(f"x{j}" for j in range(values.shape[1]))
    if values.ndim != 2 or len(names) != values.shape[1]:
        raise ValidationError("design matrix and feature names are inconsistent")
    return values, names


def _check_standardized(values: np.ndarray):
    if values.shape[1] == 0:
        return
    means = values.mean(axis=0)
    sds = values.std(axis=0)
    if np.max(np.abs(means)) > 1e-6 or np.max(np.abs(sds - 1.0)) > 1e-6:
        j = int(np.argmax(np.abs(sds - 1.0)))
        raise ValidationError(
            "en_fit requires a standardized design matrix "
            f"(column {j}: mean={means[j]:.3g}, sd={sds[j]:.6g})"
        )


def _objective(xty, beta, c, l1):
    # the loss less the constant y'y, from c = X'y - (G + l2 I) beta:
    # b'Gb - 2 b'X'y + l2 b'b + 2 l1 |b|_1 = -b'(X'y + c) + 2 l1 |b|_1
    return float(2.0 * l1 * np.abs(beta).sum() - beta @ (xty + c))


def _repair_sweeps(gram, xty, beta, l1, l2):
    """A few cyclic coordinate-descent sweeps, in place.  Each update is
    exact on its coordinate, so the objective cannot rise; they only break
    the floating-point ties that stall an active-set step."""
    for _ in range(_REPAIR_SWEEPS):
        for j in range(beta.size):
            denom = gram[j, j] + l2
            if denom > 0.0:
                z = xty[j] - gram[j] @ beta + gram[j, j] * beta[j]
                beta[j] = math.copysign(max(abs(z) - l1, 0.0), z) / denom


def _block_direction(h, g, l1, tol):
    """Direction and step length toward the optimum of one sign pattern.

    ``h`` is the active block ``G_AA + l2 I`` and ``g`` its KKT residual.
    A regular block (Cholesky pivots clear of zero) takes the Newton step
    ``h^-1 g``.  On a singular block, when the l1 term falls along the null
    space (``g`` has a null-space component), the objective decreases
    linearly along that component, so the move follows it; otherwise the
    minimum-norm step through ``eigh`` solves the block.
    """
    try:
        pivots = np.diagonal(np.linalg.cholesky(h))
        if pivots.min() ** 2 > _NULL_RTOL * h.diagonal().max():
            return np.linalg.solve(h, g), 1.0
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(h)
    null = w <= _NULL_RTOL * max(w[-1], 0.0)
    gv = v.T @ g
    z = v[:, null] @ gv[null]
    if l1 > 0.0 and np.max(np.abs(z), initial=0.0) > tol / 2.0:
        curvature = float(z @ h @ z)
        return z, (float(g @ z) / curvature if curvature > 0.0 else math.inf)
    keep = ~null
    return v[:, keep] @ (gv[keep] / w[keep]), 1.0


def _active_step(gram, beta, c, active, signs, l1, l2, tol):
    """One move on the sign pattern ``signs`` of the ``active`` block,
    toward the solution of ``(G_AA + l2 I) b_A = X_A'y - l1 s_A`` and
    stopped at the first sign crossing, where the crossing coordinate
    leaves the active set."""
    h = gram[active][:, active]
    h.flat[:: active.size + 1] += l2
    d, t = _block_direction(h, c[active] - l1 * signs, l1, tol)
    b = beta[active]
    crossing = np.zeros(d.size, dtype=bool)
    if l1 > 0.0:
        toward_zero = signs * d < 0.0
        cross_t = np.full(d.size, math.inf)
        cross_t[toward_zero] = -b[toward_zero] / d[toward_zero]
        if cross_t.min() <= t:
            t = float(cross_t.min())
            crossing = cross_t <= t
    if not math.isfinite(t):
        raise NumericalError("elastic net: unbounded direction on a singular active block")
    out = beta.copy()
    out[active] = np.where(crossing, 0.0, b + t * d)
    return out


def _cd_solve(gram, xty, alpha, lam, beta0, tol, max_sweeps):
    """Exact active-set elastic net on the Gram system.

    Each step solves the stationarity equations of the current sign
    pattern exactly and line-searches to the first sign crossing; once the
    active block is optimal the largest KKT violator joins it.  With no l1
    part (``alpha = 0`` or ``lam = 0``) the problem is smooth and one
    linear solve answers it.  Stops when the largest KKT violation is at
    most ``tol``; more than ``max_sweeps`` steps raise
    :class:`NumericalError`.  Returns ``(beta, steps, max KKT violation)``;
    the violation is the fit's certificate.
    """
    p = xty.size
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    l1 = lam * alpha / 2.0
    l2 = lam * (1.0 - alpha)

    def residual(b):
        return xty - gram @ b - l2 * b

    c = residual(beta)
    steps = 0
    while True:
        nonzero = beta != 0.0
        resid = np.where(
            nonzero, np.abs(c - l1 * np.sign(beta)), np.maximum(np.abs(c) - l1, 0.0)
        )
        violation = float(resid.max(initial=0.0))
        if violation <= tol:
            return beta, steps, violation
        if steps >= max_sweeps or not math.isfinite(violation):
            raise NumericalError(
                f"elastic net did not converge: {steps} steps, "
                f"max KKT violation {violation:.3e} (tol {tol:.1e})"
            )
        steps += 1
        if l1 == 0.0:
            beta = _active_step(gram, beta, c, np.arange(p), np.zeros(p), l1, l2, tol)
            c = residual(beta)
            continue
        signs = np.sign(np.where(nonzero, beta, c))
        if not np.any(resid[nonzero] > tol):
            nonzero[int(np.argmax(np.where(nonzero, 0.0, resid)))] = True
        active = np.flatnonzero(nonzero)
        trial = _active_step(gram, beta, c, active, signs[active], l1, l2, tol)
        c_trial = residual(trial)
        before = _objective(xty, beta, c, l1)
        if (
            np.array_equal(trial, beta)
            or _objective(xty, trial, c_trial, l1) > before + _OBJECTIVE_SLACK * (abs(before) + 1.0)
        ):
            trial = beta.copy()
            _repair_sweeps(gram, xty, trial, l1, l2)
            if np.array_equal(trial, beta):
                raise NumericalError(
                    f"elastic net stalled after {steps} steps at max KKT "
                    f"violation {violation:.3e} (tol {tol:.1e})"
                )
            c_trial = residual(trial)
        beta, c = trial, c_trial


@dataclass(frozen=True)
class EnModel:
    """A fitted elastic-net model on standardized features.

    ``n_sweeps`` holds the active-set solver's steps and ``max_delta`` the
    largest KKT violation left at the solution (the fit's certificate);
    the names, and the ``convergence`` keys of :meth:`to_json`, are kept
    for compatibility with stored models.
    """

    alpha: float
    lam: float
    intercept: float
    coefficients: np.ndarray
    feature_names: tuple
    means: np.ndarray
    sds: np.ndarray
    n_sweeps: int
    max_delta: float
    training_hash: str = ""

    @property
    def selected_features(self) -> tuple:
        return tuple(
            name for name, c in zip(self.feature_names, self.coefficients) if c != 0.0
        )

    def to_json(self) -> str:
        doc = {
            "alpha": float(self.alpha).hex(),
            "lambda": float(self.lam).hex(),
            "intercept": float(self.intercept).hex(),
            "feature_names": list(self.feature_names),
            "coefficients": {
                name: float(c).hex()
                for name, c in zip(self.feature_names, self.coefficients)
            },
            "standardization": {
                "means": {
                    name: float(m).hex()
                    for name, m in zip(self.feature_names, self.means)
                },
                "sds": {
                    name: float(s).hex()
                    for name, s in zip(self.feature_names, self.sds)
                },
            },
            "convergence": {
                "sweeps": int(self.n_sweeps),
                "max_delta": float(self.max_delta).hex(),
            },
            "training_hash": self.training_hash,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnModel":
        doc = json.loads(text)
        names = tuple(doc.get("feature_names") or doc["coefficients"].keys())
        return cls(
            alpha=float.fromhex(doc["alpha"]),
            lam=float.fromhex(doc["lambda"]),
            intercept=float.fromhex(doc["intercept"]),
            coefficients=np.array(
                [float.fromhex(doc["coefficients"][n]) for n in names]
            ),
            feature_names=names,
            means=np.array(
                [float.fromhex(doc["standardization"]["means"][n]) for n in names]
            ),
            sds=np.array(
                [float.fromhex(doc["standardization"]["sds"][n]) for n in names]
            ),
            n_sweeps=int(doc["convergence"]["sweeps"]),
            max_delta=float.fromhex(doc["convergence"]["max_delta"]),
            training_hash=doc.get("training_hash", ""),
        )


def _content_hash(values: np.ndarray, names) -> str:
    h = hashlib.sha256()
    h.update(repr(values.shape).encode())
    h.update("|".join(names).encode())
    h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def en_fit(
    x,
    y,
    alpha: float,
    lam: float,
    *,
    warm_start=None,
    feature_names=None,
    means=None,
    sds=None,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_STEPS,
) -> EnModel:
    """Fit the elastic net at a single (alpha, lambda) pair.

    ``x`` must be standardized (columns mean 0, sd 1); the response is
    centered internally and the intercept is the mean of the uncentered
    response.  ``means``/``sds`` are the raw-scale standardization
    parameters, stored so that :func:`en_predict` can standardize new
    raw-scale rows identically; omit them when the caller works in
    standardized space throughout.  ``tol`` bounds the largest KKT
    violation of the fit and ``max_sweeps`` caps the solver's steps.
    """
    values, names = _unpack(x, feature_names)
    yv = np.asarray(y, dtype=float)
    if yv.ndim != 1 or yv.size != values.shape[0]:
        raise ValidationError("en_fit: y length must match design rows")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"en_fit: alpha must lie in [0, 1], got {alpha}")
    if lam < 0.0:
        raise ValidationError(f"en_fit: lambda must be >= 0, got {lam}")
    _check_standardized(values)

    y_mean = float(yv.mean())
    yc = yv - y_mean
    gram = values.T @ values
    xty = values.T @ yc
    beta, steps, violation = _cd_solve(gram, xty, alpha, lam, warm_start, tol, max_sweeps)
    p = values.shape[1]
    return EnModel(
        alpha=float(alpha),
        lam=float(lam),
        intercept=y_mean,
        coefficients=beta,
        feature_names=names,
        means=np.zeros(p) if means is None else np.asarray(means, dtype=float),
        sds=np.ones(p) if sds is None else np.asarray(sds, dtype=float),
        n_sweeps=steps,
        max_delta=violation,
        training_hash=_content_hash(values, names),
    )


def en_predict(model: EnModel, x_new) -> np.ndarray:
    """Predict on raw-scale rows using the model's stored standardization.

    Columns are matched by name; extra columns are ignored with a warning,
    a missing model column is an error.
    """
    values, names = _unpack(x_new)
    index = {name: j for j, name in enumerate(names)}
    cols = []
    for name in model.feature_names:
        if name not in index:
            raise ValidationError(f"en_predict: input is missing model column '{name}'")
        cols.append(index[name])
    extra = set(names) - set(model.feature_names)
    if extra:
        warnings.warn(
            f"en_predict: ignoring {len(extra)} column(s) unknown to the model",
            stacklevel=2,
        )
    aligned = values[:, cols]
    std = (aligned - model.means) / model.sds
    return model.intercept + std @ model.coefficients


def lambda_path(x, y, alpha: float, n_lambda: int = 100, ratio: float = 1e-4) -> np.ndarray:
    """Geometric lambda grid from the all-zero-solution threshold downward.

    ``lambda_max = 2 * max_j |x_j' (y - mean(y))| / alpha`` is the smallest
    penalty whose l1 part zeroes every coordinate under this loss scaling;
    for ``alpha = 0`` the grid is anchored at the ``alpha = 0.01`` value.
    """
    values, _ = _unpack(x)
    yv = np.asarray(y, dtype=float)
    yc = yv - yv.mean()
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"lambda_path: alpha must lie in [0, 1], got {alpha}")
    if n_lambda < 1:
        raise ValidationError("lambda_path: n_lambda must be >= 1")
    a_eff = alpha if alpha > 0.0 else 0.01
    lam_max = 2.0 * float(np.max(np.abs(values.T @ yc))) / a_eff if values.size else 0.0
    if lam_max <= 0.0:
        raise ValidationError("lambda_path: response is uncorrelated with every column")
    if n_lambda == 1:
        return np.array([lam_max])
    return lam_max * ratio ** (np.arange(n_lambda) / (n_lambda - 1))


@dataclass(frozen=True)
class CvResult:
    """Cross-validation surface over the (alpha, lambda) grid."""

    alphas: np.ndarray
    lambdas: np.ndarray
    mean_mse: np.ndarray
    sd_mse: np.ndarray
    chosen_alpha: float
    chosen_lambda: float
    fold_choices: tuple = field(default_factory=tuple)
    selection_rule: str = "min_mean"


def _fold_path_mse(values, yv, train_idx, val_idx, alpha, lambdas, tol, max_sweeps):
    # Center columns and response on the training fold so the intercept is
    # handled exactly; scale stays that of the (globally standardized) input.
    xt = values[train_idx]
    yt = yv[train_idx]
    col_means = xt.mean(axis=0)
    y_mean = yt.mean()
    xc = xt - col_means
    yc = yt - y_mean
    gram = xc.T @ xc
    xty = xc.T @ yc
    xv = values[val_idx] - col_means
    yval = yv[val_idx]
    mses = np.empty(lambdas.size)
    beta = None
    for i, lam in enumerate(lambdas):
        beta, _, _ = _cd_solve(gram, xty, alpha, lam, beta, tol, max_sweeps)
        pred = y_mean + xv @ beta
        mses[i] = float(np.mean((pred - yval) ** 2))
    return mses


def en_cv(
    x,
    y,
    alpha_grid=DEFAULT_ALPHA_GRID,
    k: int = 10,
    seed: int = 0,
    *,
    n_lambda: int = 100,
    lambda_ratio: float = 1e-4,
    selection_rule: str = "min_mean",
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_STEPS,
    threads: int = 1,
) -> CvResult:
    """k-fold cross-validation over an (alpha, lambda) grid.

    Rows are shuffled once with the seed and cut into k contiguous folds;
    each fold's path fits are warm-started from the previous lambda.  The
    default rule picks the grid cell with minimum mean validation MSE,
    breaking ties toward larger lambda (the sparser model).  The
    ``fold_average`` rule instead takes each fold's own optimum and
    averages the chosen (alpha, lambda) pairs.
    """
    values, _ = _unpack(x)
    yv = np.asarray(y, dtype=float)
    n = values.shape[0]
    if k < 2:
        raise ValidationError("en_cv: need at least 2 folds")
    if k > n:
        raise ValidationError(f"en_cv: k={k} exceeds the {n} available rows")
    alpha_grid = tuple(alpha_grid)
    if not alpha_grid or any(not 0.0 <= a <= 1.0 for a in alpha_grid):
        raise ValidationError("en_cv: alpha grid must be non-empty within [0, 1]")
    if selection_rule not in ("min_mean", "fold_average"):
        raise ValidationError(f"en_cv: unknown selection rule '{selection_rule}'")

    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    paths = {a: lambda_path(values, yv, a, n_lambda=n_lambda, ratio=lambda_ratio) for a in alpha_grid}

    def run_fold(fold_idx):
        val_idx = folds[fold_idx]
        train_idx = np.concatenate([f for i, f in enumerate(folds) if i != fold_idx])
        return {
            a: _fold_path_mse(values, yv, train_idx, val_idx, a, paths[a], tol, max_sweeps)
            for a in alpha_grid
        }

    fold_mses = parallel_map(run_fold, range(k), threads=threads)

    cell_alphas, cell_lambdas, cell_mean, cell_sd = [], [], [], []
    for a in alpha_grid:
        stacked = np.vstack([fm[a] for fm in fold_mses])
        cell_alphas.extend([a] * paths[a].size)
        cell_lambdas.extend(paths[a].tolist())
        cell_mean.extend(stacked.mean(axis=0).tolist())
        cell_sd.extend(stacked.std(axis=0).tolist())
    cell_alphas = np.array(cell_alphas)
    cell_lambdas = np.array(cell_lambdas)
    cell_mean = np.array(cell_mean)
    cell_sd = np.array(cell_sd)

    def argbest(mses):
        # minimum MSE; ties resolved toward larger lambda, then larger alpha
        best = 0
        for i in range(1, mses.size):
            key_i = (mses[i], -cell_lambdas[i], -cell_alphas[i])
            key_b = (mses[best], -cell_lambdas[best], -cell_alphas[best])
            if key_i < key_b:
                best = i
        return best

    fold_choices = []
    for fm in fold_mses:
        flat = np.concatenate([fm[a] for a in alpha_grid])
        j = argbest(flat)
        fold_choices.append((float(cell_alphas[j]), float(cell_lambdas[j])))

    if selection_rule == "fold_average":
        chosen_alpha = float(np.mean([c[0] for c in fold_choices]))
        chosen_lambda = float(np.mean([c[1] for c in fold_choices]))
    else:
        j = argbest(cell_mean)
        chosen_alpha = float(cell_alphas[j])
        chosen_lambda = float(cell_lambdas[j])

    return CvResult(
        alphas=cell_alphas,
        lambdas=cell_lambdas,
        mean_mse=cell_mean,
        sd_mse=cell_sd,
        chosen_alpha=chosen_alpha,
        chosen_lambda=chosen_lambda,
        fold_choices=tuple(fold_choices),
        selection_rule=selection_rule,
    )


def fit_centered(x_rows, y_rows, alpha, lam, *, warm_start=None, tol=DEFAULT_TOL, max_sweeps=DEFAULT_MAX_STEPS):
    """Fit on an arbitrary row subset by centering on that subset.

    Used by bootstrap replicates, which refit at fixed hyperparameters on
    resampled rows where exact column standardization no longer holds.
    Returns ``(beta, col_means, y_mean)``; predictions for a raw row
    ``x`` (on the same scale as ``x_rows``) are
    ``y_mean + (x - col_means) @ beta``.
    """
    xt = np.asarray(x_rows, dtype=float)
    yt = np.asarray(y_rows, dtype=float)
    col_means = xt.mean(axis=0)
    y_mean = float(yt.mean())
    xc = xt - col_means
    beta, _, _ = _cd_solve(xc.T @ xc, xc.T @ (yt - y_mean), alpha, lam, warm_start, tol, max_sweeps)
    return beta, col_means, y_mean

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
returns its largest KKT violation as a certificate.

One kernel, :func:`_solve_stack`, solves every fit of the package.  It
advances a stack of independent problems together: a stack of Gram
systems, each solved for several alphas along its own warm-started lambda
path, with one batched block solve per iteration over the active blocks,
padded with identity rows to the largest.  One builder,
:func:`_centered_systems`, makes every Gram from multiplicity weights,
``Xc' diag(w) Xc``: 0/1 weights give the CV folds' training rows, a row
of ones the full data, and ``np.bincount`` counts the bootstrap
resamples.  So :func:`solve_cv` solves every fold x alpha path, plus the
full-data path, of a whole batch of cross-validations in one call,
scoring the folds' solutions as the kernel records them, and
:func:`en_cv` is that batch of one; :func:`fit_centered` is the one fit at a
fixed (alpha, lambda), and solves all bootstrap replicates of a period in
one call; and :func:`en_fit` is :func:`fit_centered` on one row of ones.
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
# Most recorded solutions a CV fold problem keeps unscored: a fold's path is
# scored in pieces of this many lambdas and never held whole.
_SCORE_BURST = 16


def _unpack(x, feature_names=None):
    """``x`` as a 2-d float array with its column names (``x<j>`` by default)."""
    values = np.asarray(x, dtype=float)
    if values.ndim != 2:
        raise ValidationError(f"design matrix must be 2-d, got ndim={values.ndim}")
    if feature_names is None:
        return values, tuple(f"x{j}" for j in range(values.shape[1]))
    if len(feature_names) != values.shape[1]:
        raise ValidationError("design matrix and feature names are inconsistent")
    return values, tuple(feature_names)


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
    return 2.0 * l1 * np.abs(beta).sum(axis=1) - (beta * (xty + c)).sum(axis=1)


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


def _regular(h, real):
    """Which blocks of the stack ``h`` are regular: Cholesky pivots of the
    ``real`` (unpadded) part clear of zero relative to its largest diagonal
    entry.  A failed batched factorization is retried block by block."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(h), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        if len(h) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_regular(h[i : i + 1], real[i : i + 1]) for i in range(len(h))])
    diagonal = np.diagonal(h, axis1=1, axis2=2)
    if not real.all():
        pivots = np.where(real, pivots, np.inf)
        diagonal = np.where(real, diagonal, 0.0)
    return pivots.min(axis=1) ** 2 > _NULL_RTOL * diagonal.max(axis=1)


def _null_direction(h, g, l1, tol):
    """Direction and step length on one singular block through ``eigh``:
    when the l1 term falls along the null space (``g`` has a null-space
    component), the objective decreases linearly along that component, so
    the move follows it; otherwise the minimum-norm step solves the block."""
    w, v = np.linalg.eigh(h)
    null = w <= _NULL_RTOL * max(w[-1], 0.0)
    gv = v.T @ g
    z = v[:, null] @ gv[null]
    if l1 > 0.0 and np.max(np.abs(z), initial=0.0) > tol / 2.0:
        curvature = float(z @ h @ z)
        return z, (float(g @ z) / curvature if curvature > 0.0 else math.inf)
    keep = ~null
    return v[:, keep] @ (gv[keep] / w[keep]), 1.0


def _block_direction(h, g, real, l1, l2, tol):
    """Directions and step lengths toward the optimum of each sign pattern.

    ``h`` stacks the active blocks ``G_AA + l2 I``, padded with identity
    rows where ``real`` is false, and ``g`` their KKT residuals (zero on
    the padding, so padding decouples and its direction is zero).  Regular
    blocks take the Newton step ``h^-1 g`` in one batched solve; a
    singular one takes :func:`_null_direction` on its unpadded part.  A
    block whose shift ``l2`` is well above the singularity threshold is
    regular without a test: every squared Cholesky pivot is at least the
    smallest eigenvalue, which is at least ``l2``.
    """
    top = np.where(real, np.diagonal(h, axis1=1, axis2=2), 0.0).max(axis=1)
    regular = l2 > 1e3 * _NULL_RTOL * top
    if not regular.any():
        regular = _regular(h, real)
    elif not regular.all():
        regular[~regular] = _regular(h[~regular], real[~regular])
    t = np.ones(len(g))
    if regular.all():
        return np.linalg.solve(h, g[..., None])[..., 0], t
    d = np.zeros_like(g)
    if regular.any():
        d[regular] = np.linalg.solve(h[regular], g[regular][..., None])[..., 0]
    for r in np.flatnonzero(~regular):
        m = real[r]
        d[r, m], t[r] = _null_direction(h[r][np.ix_(m, m)], g[r, m], l1[r], tol)
    return d, t


def _active_step(gram, beta, c, active, signs, l1, l2, tol):
    """One move for every problem with an active coordinate.

    ``beta``, ``c``, ``active`` and ``signs`` are ``(B, p)`` and ``l1``,
    ``l2`` ``(B,)``; consecutive runs of ``B / len(gram)`` problems share
    one Gram of the stack ``gram``.  Each problem moves on the sign pattern
    ``signs`` of its ``active`` block toward the solution of
    ``(G_AA + l2 I) b_A = X_A'y - l1 s_A``, stopped at the first sign
    crossing, where the crossing coordinate leaves the active set.  Blocks
    are gathered only for problems with an active coordinate and padded to
    the largest.  Returns the trial in ``beta``'s shape; the other problems
    keep their ``beta``.
    """
    n, p = beta.shape
    size = active.sum(axis=1)
    rows = np.flatnonzero(size)
    size = size[rows]
    k = size.max()
    cols = np.argsort(~active[rows], axis=1, kind="stable")[:, :k]  # active coordinates first
    real = np.arange(k) < size[:, None]
    at = rows[:, None] * p + cols  # flat positions in (n, p) arrays
    block_rows = (rows // (n // len(gram)))[:, None] * p + cols  # rows of gram as (S * p, p)
    h = gram.reshape(-1, p)[block_rows[:, :, None], cols[:, None, :]]  # no (B, k, k) index
    g = c.take(at) - l1[rows][:, None] * signs.take(at)
    shift = l2[rows][:, None]
    if not real.all():
        # identity rows with a zero right-hand side: the padding solves to
        # zero whatever its columns hold, and Cholesky reads only the lower
        # triangle, so the real part is factored and solved alone
        pad = ~real
        h[pad] = 0.0
        g[pad] = 0.0
        shift = np.where(real, shift, 1.0)
    diag = np.arange(k)
    h[:, diag, diag] += shift
    d, t = _block_direction(h, g, real, l1[rows], l2[rows], tol)
    # padding and smooth problems (zero signs) never cross
    b = beta.take(at)
    toward_zero = signs.take(at) * d < 0.0
    cross_t = np.full(d.shape, math.inf)
    np.divide(-b, d, out=cross_t, where=toward_zero)
    first = cross_t.min(axis=1)
    hit = first <= t
    t = np.where(hit, first, t)
    if not np.isfinite(t).all():
        raise NumericalError("elastic net: unbounded direction on a singular active block")
    b += t[:, None] * d
    b[hit[:, None] & (cross_t <= t[:, None])] = 0.0
    out = beta.copy()
    out.put(at, b)  # a padded coordinate is inactive: zero before and after
    return out


def _solve_stack(gram, xty, alphas, lams, beta0, tol, max_steps, record=None):
    """Exact active-set elastic net on a stack of independent problems.

    ``gram`` ``(S, p, p)`` and ``xty`` ``(S, p)`` are ``S`` Gram systems;
    system ``s`` is solved for every ``alphas[a]`` along its own path
    ``lams[s, a]`` (``lams`` is ``(S, A, L)``, or ``(A, L)`` shared by
    every system), giving ``S * A`` problems that
    all start from ``beta0`` (broadcast to ``(S, A, p)``; zeros when
    None).  Every iteration takes one step for every unfinished problem:
    the stationarity equations of its current sign pattern are solved
    exactly (one batched solve over the padded active blocks) and
    line-searched to the first sign crossing; once the active block is
    optimal the largest KKT violator joins it.  Problems with no l1 part
    (``alpha = 0`` or ``lam = 0``) are smooth and take one batched
    full-block solve of their own.  A step that does not lower the
    objective is replaced by coordinate sweeps.  A problem records its
    solution and moves to its next lambda, warm-started, as soon as its
    largest KKT violation is at most ``tol``; more than ``max_steps``
    steps at one lambda raise :class:`NumericalError`.  At that moment
    ``record(idx, i, solutions)`` is called: problems ``idx`` (flat,
    ascending, ``s * A + a``) reached ``solutions`` (rows) at lambdas ``i``.

    Returns ``(path, steps, violations)``: the solutions ``(S, A, L, p)``
    (None when ``record`` is given, which then keeps what it needs), the
    steps taken at each lambda ``(S, A, L)``, and each solution's largest
    KKT violation ``(S, A, L)``, its certificate.
    """
    gram = np.ascontiguousarray(gram, dtype=float)
    n_sys, p = xty.shape
    n_alpha, n_lam = np.shape(lams)[-2:]
    n = n_sys * n_alpha
    lams = np.broadcast_to(lams, (n_sys, n_alpha, n_lam)).reshape(n, n_lam)
    alpha = np.tile(np.asarray(alphas, dtype=float), n_sys)
    xty = np.repeat(xty, n_alpha, axis=0)
    beta = np.zeros((n_sys, n_alpha, p))
    if beta0 is not None:
        beta[...] = beta0
    beta = beta.reshape(n, p)
    path = None
    if record is None:
        path = np.empty((n, n_lam, p))

        def record(idx, i, solutions):
            path[idx, i] = solutions

    cert = np.empty((n, n_lam))
    steps = np.empty((n, n_lam), dtype=int)
    pos = np.zeros(n, dtype=int)
    here = np.zeros(n, dtype=int)  # steps at the current lambda
    running = np.ones(n, dtype=bool)
    lam = lams[:, 0]
    l1 = lam * alpha / 2.0
    l2 = lam * (1.0 - alpha)
    l1_col, l2_col = l1[:, None], l2[:, None]  # views: they follow l1 and l2
    can_be_smooth = bool((alpha == 0.0).any() or (lams == 0.0).any())

    def times_gram(b):
        return np.matmul(b.reshape(n_sys, n_alpha, p), gram).reshape(n, p)

    gb = times_gram(beta)
    c = xty - gb - l2_col * beta
    while True:
        nonzero = beta != 0.0
        resid = np.where(
            nonzero,
            np.abs(c - l1_col * np.sign(beta)),
            np.maximum(np.abs(c) - l1_col, 0.0),
        )
        violation = resid.max(axis=1, initial=0.0)
        done = running & (violation <= tol)
        if done.any():
            # record, then move to the next lambda and check it afresh
            idx = np.flatnonzero(done)
            i = pos[idx]
            record(idx, i, beta[idx])
            cert[idx, i] = violation[idx]
            steps[idx, i] = here[idx]
            here[idx] = 0
            pos[idx] = i = i + 1
            more = i < n_lam
            running[idx[~more]] = False
            if not running.any():
                shape = (n_sys, n_alpha, n_lam)
                if path is not None:
                    path = path.reshape(shape + (p,))
                return path, steps.reshape(shape), cert.reshape(shape)
            idx, i = idx[more], i[more]
            lam = lams[idx, i]
            l1[idx] = lam * alpha[idx] / 2.0
            l2[idx] = lam * (1.0 - alpha[idx])
            c = xty - gb - l2_col * beta
            continue
        if here.max() >= max_steps or not np.isfinite(violation).all():
            j = np.argmax((here >= max_steps) | ~np.isfinite(violation))
            raise NumericalError(
                f"elastic net did not converge: {here[j]} steps, "
                f"max KKT violation {violation[j]:.3e} (tol {tol:.1e})"
            )
        here += running
        trial = beta
        rough = running
        if can_be_smooth:
            smooth = running & (l1 == 0.0)
            rough = running & ~smooth
            if smooth.any():
                every = np.broadcast_to(smooth[:, None], beta.shape)
                trial = _active_step(gram, beta, c, every, np.zeros_like(beta), l1, l2, tol)
        if rough.any():
            signs = np.sign(np.where(nonzero, beta, c))
            active = nonzero & rough[:, None]
            # admit the largest violator where the active block is optimal
            admit = np.flatnonzero(rough & ~(nonzero & (resid > tol)).any(axis=1))
            newcomer = np.argmax(np.where(nonzero, 0.0, resid), axis=1)
            active[admit, newcomer[admit]] = True
            stepped = _active_step(gram, beta, c, active, signs, l1, l2, tol)
            trial = stepped if trial is beta else np.where(rough[:, None], stepped, trial)
        gb_trial = times_gram(trial)
        c_trial = xty - gb_trial - l2_col * trial
        if rough.any():
            before = _objective(xty, beta, c, l1)
            rejected = rough & (
                (trial == beta).all(axis=1)
                | (_objective(xty, trial, c_trial, l1) > before + _OBJECTIVE_SLACK * (np.abs(before) + 1.0))
            )
            if rejected.any():
                for j in np.flatnonzero(rejected):
                    repaired = beta[j].copy()
                    _repair_sweeps(gram[j // n_alpha], xty[j], repaired, l1[j], l2[j])
                    if np.array_equal(repaired, beta[j]):
                        raise NumericalError(
                            f"elastic net stalled after {here[j]} steps at max KKT "
                            f"violation {violation[j]:.3e} (tol {tol:.1e})"
                        )
                    trial[j] = repaired
                gb_trial = times_gram(trial)
                c_trial = xty - gb_trial - l2_col * trial
        beta, gb, c = trial, gb_trial, c_trial


def _centered_systems(x, y, weights, out=None):
    """Centred Gram systems of one design under rows of multiplicity weights.

    Row ``i`` enters system ``s`` ``weights[s, i]`` times: bootstrap counts
    from ``np.bincount``, or 0/1 for a CV fold's training rows.  Each
    system is centred on its own weighted column and response means, and
    its Gram ``Xc' diag(w) Xc`` is one symmetric product of the rows with
    nonzero weight scaled by ``sqrt(w)``, without copying repeated rows.
    Returns the Gram stack ``(S, p, p)``, ``Xc' diag(w) yc`` ``(S, p)``,
    the column means ``(S, p)`` and the response means ``(S,)``.  The two
    stacks are built in place: in ``out``, a ``(grams, xty)`` pair of
    views of that shape, when given.
    """
    w = np.asarray(weights, dtype=float)
    totals = w.sum(axis=1)
    col_means = (w @ x) / totals[:, None]
    y_means = (w @ y) / totals
    if out is None:
        out = np.empty((w.shape[0], x.shape[1], x.shape[1])), np.empty((w.shape[0], x.shape[1]))
    grams, xty = out
    for s in range(w.shape[0]):
        rows = np.flatnonzero(w[s])
        root = np.sqrt(w[s, rows])
        scaled = x[rows]
        scaled -= col_means[s]
        scaled *= root[:, None]
        np.matmul(scaled.T, scaled, out=grams[s])
        np.matmul(scaled.T, (y[rows] - y_means[s]) * root, out=xty[s])
    return grams, xty, col_means, y_means


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

    def standardize_rows(self, values, names) -> np.ndarray:
        """Raw rows whose columns are ``names`` as the model reads them: its
        columns in ``feature_names`` order, as ``(raw - means) / sds``.

        Other columns are ignored; a missing model column raises
        :class:`ValidationError` naming it.
        """
        index = {name: j for j, name in enumerate(names)}
        try:
            cols = [index[name] for name in self.feature_names]
        except KeyError as err:
            raise ValidationError(f"input is missing model column {err}") from None
        return (np.asarray(values, dtype=float)[:, cols] - self.means) / self.sds

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
) -> EnModel:
    """Fit the elastic net at a single (alpha, lambda) pair.

    ``x`` must be standardized (columns mean 0, sd 1); the fit is
    :func:`fit_centered` on one row of unit weights, so the response is
    centered internally and the intercept is the mean of the uncentered
    response.  ``means``/``sds`` are the raw-scale standardization
    parameters, stored so that :func:`en_predict` can standardize new
    raw-scale rows identically; omit them when the caller works in
    standardized space throughout.  ``tol`` bounds the largest KKT
    violation of the fit, which the model keeps as ``max_delta``, with the
    solver's steps as ``n_sweeps``.
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

    beta, _, _, steps, violation = fit_centered(
        values, yv, np.ones((1, values.shape[0])), alpha, lam, warm_start=warm_start, tol=tol
    )
    p = values.shape[1]
    return EnModel(
        alpha=float(alpha),
        lam=float(lam),
        intercept=float(yv.mean()),
        coefficients=beta[0],
        feature_names=names,
        means=np.zeros(p) if means is None else np.asarray(means, dtype=float),
        sds=np.ones(p) if sds is None else np.asarray(sds, dtype=float),
        n_sweeps=int(steps[0]),
        max_delta=float(violation[0]),
        training_hash=_content_hash(values, names),
    )


def en_predict(model: EnModel, x_new, feature_names=None) -> np.ndarray:
    """Predict on raw-scale rows using the model's stored standardization.

    ``feature_names`` names the columns of ``x_new``, as in :func:`en_fit`
    (``x<j>`` by default).  Columns are matched by name; extra columns are
    ignored with a warning, a missing model column is an error.
    """
    values, names = _unpack(x_new, feature_names)
    std = model.standardize_rows(values, names)
    extra = set(names) - set(model.feature_names)
    if extra:
        warnings.warn(
            f"en_predict: ignoring {len(extra)} column(s) unknown to the model",
            stacklevel=2,
        )
    return model.intercept + std @ model.coefficients


def lambda_path(x, y, alpha: float, n_lambda: int = 100, ratio: float = 1e-4) -> np.ndarray:
    """Geometric lambda grid from the all-zero-solution threshold downward.

    ``lambda_max = 2 * max_j |x_j' (y - mean(y))| / alpha`` is the smallest
    penalty whose l1 part zeroes every coordinate under this loss scaling;
    for ``alpha = 0`` the grid is anchored at the ``alpha = 0.01`` value.
    The grid falls to ``ratio * lambda_max``, and a ``ratio`` outside
    (0, 1) raises: at 1 or above no lambda leaves the all-zero solution,
    0 sets every lambda after the first to 0, and below 0 they are NaN.
    """
    values, _ = _unpack(x)
    yv = np.asarray(y, dtype=float)
    yc = yv - yv.mean()
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"lambda_path: alpha must lie in [0, 1], got {alpha}")
    if n_lambda < 1:
        raise ValidationError("lambda_path: n_lambda must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(f"lambda_path: ratio must lie in (0, 1), got {ratio}")
    a_eff = alpha if alpha > 0.0 else 0.01
    lam_max = 2.0 * float(np.max(np.abs(values.T @ yc))) / a_eff if values.size else 0.0
    if lam_max <= 0.0:
        raise ValidationError("lambda_path: response is uncorrelated with every column")
    if n_lambda == 1:
        return np.array([lam_max])
    return lam_max * ratio ** (np.arange(n_lambda) / (n_lambda - 1))


@dataclass(frozen=True)
class CvResult:
    """Cross-validation surface over the (alpha, lambda) grid.

    ``kkt_violation`` is the largest KKT violation over every solve of the
    grid, the certificate of the whole surface.  ``chosen_coefficients``
    is the full-data solution at the chosen cell, a warm start for the
    final fit, and ``chosen_steps`` the active-set steps the full-data
    path took from zero to reach it; under ``fold_average``, whose pair
    is off-grid, they are None and 0.
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    mean_mse: np.ndarray
    sd_mse: np.ndarray
    chosen_alpha: float
    chosen_lambda: float
    fold_choices: tuple = field(default_factory=tuple)
    selection_rule: str = "min_mean"
    kkt_violation: float = 0.0
    chosen_coefficients: np.ndarray | None = None
    chosen_steps: int = 0


@dataclass(frozen=True)
class CvDesign:
    """One k-fold cross-validation before its solve: the standardized
    design ``x`` and response ``y``, the validation rows of each fold, and
    the lambda path ``lams[a]`` of each ``alphas[a]``."""

    x: np.ndarray
    y: np.ndarray
    folds: tuple
    alphas: tuple
    lams: np.ndarray
    selection_rule: str


def cv_design(
    x,
    y,
    alpha_grid=DEFAULT_ALPHA_GRID,
    k: int = 10,
    seed: int = 0,
    *,
    n_lambda: int = 100,
    lambda_ratio: float = 1e-4,
    selection_rule: str = "min_mean",
) -> CvDesign:
    """Check :func:`en_cv`'s arguments and draw its folds and lambda paths.

    Rows are shuffled once with the seed and cut into k contiguous folds;
    each alpha gets its :func:`lambda_path` on the whole design.
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
    lams = np.array(
        [lambda_path(values, yv, a, n_lambda=n_lambda, ratio=lambda_ratio) for a in alpha_grid]
    )
    return CvDesign(values, yv, tuple(np.array_split(order, k)), alpha_grid, lams, selection_rule)


def solve_cv(designs, tol: float = DEFAULT_TOL) -> list:
    """Solve and score a batch of cross-validations in one stacked solve.

    Each design gives one centred Gram system per fold (its training rows
    as 0/1 multiplicity weights) and one for the full data, built straight
    into one stack: every design's folds first, then every design's
    full-data system, built by the call that :func:`en_fit` makes, so it
    equals the final fit's system bit for bit.  Designs narrower than the
    widest are padded with zero columns, which never enter an active set.
    Every system keeps its design's lambda paths, and one
    :func:`_solve_stack` call solves every system's path over every alpha,
    warm-started from the previous lambda.  The folds' solutions are scored
    on their validation rows during the solve, at most ``_SCORE_BURST``
    lambdas of each at a time, so only the full-data paths and the folds'
    validation MSEs outlive it.  The designs share one
    alpha grid and path length (one config's).  A :class:`NumericalError`
    of the stacked solve is retried design by design, so it fails only the
    designs that fail alone.  Returns, per design, its :class:`CvResult` or
    the :class:`NumericalError` it raised.
    """
    if not designs:
        return []
    alphas, n_lambda = designs[0].alphas, designs[0].lams.shape[1]
    n_alpha, n_designs = len(alphas), len(designs)
    starts = np.cumsum([0] + [len(d.folds) for d in designs])
    n_folds = starts[-1]
    p = max(d.x.shape[1] for d in designs)
    gram = np.zeros((n_folds + n_designs, p, p))
    xty = np.zeros((n_folds + n_designs, p))
    lams = np.empty((n_folds + n_designs, n_alpha, n_lambda))
    folds = []  # per fold system: its design, validation rows and centre
    for j, (d, a, b) in enumerate(zip(designs, starts, starts[1:])):
        n, w = d.x.shape
        weights = np.ones((b - a, n))
        for f, val_idx in enumerate(d.folds):
            weights[f, val_idx] = 0.0
        col_means, y_means = _centered_systems(
            d.x, d.y, weights, (gram[a:b, :w, :w], xty[a:b, :w])
        )[2:]
        folds.extend(zip([d] * (b - a), d.folds, col_means, y_means))
        full = n_folds + j  # by en_fit's own call: the same system bit for bit
        _centered_systems(d.x, d.y, np.ones((1, n)), (gram[full:full + 1, :w, :w],
                                                      xty[full:full + 1, :w]))
        lams[a:b] = lams[full] = d.lams
    n_fold_problems = n_folds * n_alpha  # flat problem s * A + a: the folds' first
    full_paths = np.empty((n_designs * n_alpha, n_lambda, p))
    mses = np.empty((n_fold_problems, n_lambda))
    # a fold problem's solutions, recorded in lambda order, wait, at most
    # ``burst`` of them, until one problem's are full; then all waiting
    # ones are scored together
    burst = min(n_lambda, _SCORE_BURST)
    waiting = np.zeros((n_fold_problems, burst, p))
    n_waiting = np.zeros(n_fold_problems, dtype=int)
    n_scored = np.zeros(n_fold_problems, dtype=int)

    def score_waiting():
        filled = np.arange(burst) < n_waiting[:, None]
        for s, (d, val_idx, col_means, y_mean) in enumerate(folds):
            rows = slice(s * n_alpha, (s + 1) * n_alpha)
            w = d.x.shape[1]
            pred = y_mean + waiting[rows, :, :w].reshape(-1, w) @ (d.x[val_idx] - col_means).T
            scores = np.mean((pred - d.y[val_idx]) ** 2, axis=1).reshape(n_alpha, burst)
            a, slot = np.nonzero(filled[rows])
            problem = s * n_alpha + a
            mses[problem, n_scored[problem] + slot] = scores[a, slot]
        n_scored[:] += n_waiting
        n_waiting[:] = 0

    def record(idx, i, solutions):
        cut = np.searchsorted(idx, n_fold_problems)
        full_paths[idx[cut:] - n_fold_problems, i[cut:]] = solutions[cut:]
        if cut:
            fold = idx[:cut]
            if n_waiting[fold].max() == burst:
                score_waiting()
            slot = n_waiting[fold]
            waiting[fold, slot] = solutions[:cut]
            n_waiting[fold] = slot + 1

    try:
        _, steps, cert = _solve_stack(gram, xty, alphas, lams, None, tol, DEFAULT_MAX_STEPS, record)
    except NumericalError as err:
        if len(designs) == 1:
            return [err]
        return [result for d in designs for result in solve_cv([d], tol)]
    score_waiting()
    mses = mses.reshape(n_folds, n_alpha * n_lambda)
    full_paths = full_paths.reshape(n_designs, n_alpha, n_lambda, p)
    return [
        _score_cv(d, mses[a:b], full_paths[j, ..., : d.x.shape[1]], steps[n_folds + j],
                  max(cert[a:b].max(), cert[n_folds + j].max()))
        for j, (d, a, b) in enumerate(zip(designs, starts, starts[1:]))
    ]


def _score_cv(design: CvDesign, fold_mses, path, steps, kkt_violation) -> CvResult:
    """The CV surface of one design from its solve: the folds' validation
    MSEs ``(k, A * L)``, the full-data path ``(A, L, p)`` with its steps
    ``(A, L)``, and the largest KKT violation of all its systems."""
    lams = design.lams
    cell_alphas = np.repeat(np.array(design.alphas, dtype=float), lams.shape[1])
    cell_lambdas = lams.ravel()
    cell_mean = fold_mses.mean(axis=0)
    cell_sd = fold_mses.std(axis=0)

    def argbest(mses):
        # minimum MSE; ties resolved toward larger lambda, then larger alpha,
        # then the first cell (lexsort is stable)
        return int(np.lexsort((-cell_alphas, -cell_lambdas, mses))[0])

    fold_choices = []
    for fm in fold_mses:
        j = argbest(fm)
        fold_choices.append((float(cell_alphas[j]), float(cell_lambdas[j])))

    chosen_coefficients, chosen_steps = None, 0
    if design.selection_rule == "fold_average":
        chosen_alpha = float(np.mean([c[0] for c in fold_choices]))
        chosen_lambda = float(np.mean([c[1] for c in fold_choices]))
    else:
        j = argbest(cell_mean)
        chosen_alpha = float(cell_alphas[j])
        chosen_lambda = float(cell_lambdas[j])
        a, i = divmod(j, lams.shape[1])
        chosen_coefficients = path[a, i].copy()
        chosen_steps = int(steps[a, : i + 1].sum())

    return CvResult(
        alphas=cell_alphas,
        lambdas=cell_lambdas,
        mean_mse=cell_mean,
        sd_mse=cell_sd,
        chosen_alpha=chosen_alpha,
        chosen_lambda=chosen_lambda,
        fold_choices=tuple(fold_choices),
        selection_rule=design.selection_rule,
        kkt_violation=float(kkt_violation),
        chosen_coefficients=chosen_coefficients,
        chosen_steps=chosen_steps,
    )


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
) -> CvResult:
    """k-fold cross-validation over an (alpha, lambda) grid: the
    :func:`cv_design` of the arguments, solved by :func:`solve_cv` as a
    batch of one.

    Columns and response are centred on the training fold so the
    intercept is handled exactly; scale stays that of the (globally
    standardized) input.  The default rule picks the grid cell with
    minimum mean validation MSE, breaking ties toward larger lambda (the
    sparser model).  The ``fold_average`` rule instead takes each fold's
    own optimum and averages the chosen (alpha, lambda) pairs.  Under
    ``min_mean`` the full-data solution at the chosen cell is kept as
    ``chosen_coefficients``: :func:`en_fit` builds the same system bit for
    bit, so a final fit started there is already certified.
    """
    design = cv_design(
        x, y, alpha_grid, k, seed,
        n_lambda=n_lambda, lambda_ratio=lambda_ratio, selection_rule=selection_rule,
    )
    (result,) = solve_cv([design], tol)
    if isinstance(result, NumericalError):
        raise result
    return result


def fit_centered(x, y, weights, alpha, lam, *, warm_start=None, tol=DEFAULT_TOL):
    """Fit at one (alpha, lambda) once per row of multiplicity weights: the
    one fit of the package at fixed hyperparameters.

    Row ``i`` enters fit ``b`` ``weights[b, i]`` times: ``np.bincount`` of
    a bootstrap replicate's resampled indices, or one row of ones for
    :func:`en_fit`.  Each fit is centred on its own weighted means by
    :func:`_centered_systems`, all fits start from ``warm_start``, and one
    :func:`_solve_stack` call solves them.  Returns ``(beta, col_means,
    y_mean, steps, kkt_violation)`` stacked over the fits, shapes
    ``(B, p)``, ``(B, p)``, ``(B,)``, ``(B,)`` and ``(B,)``: fit ``b``
    predicts a raw row ``x_new`` (on the scale of ``x``) as
    ``y_mean[b] + (x_new - col_means[b]) @ beta[b]``, took ``steps[b]``
    active-set steps, and its largest KKT violation is at most ``tol``.
    """
    gram, xty, col_means, y_means = _centered_systems(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.atleast_2d(weights)
    )
    path, steps, cert = _solve_stack(
        gram, xty, (alpha,), np.array([[lam]], dtype=float), warm_start, tol, DEFAULT_MAX_STEPS
    )
    return path[:, 0, 0], col_means, y_means, steps[:, 0, 0], cert[:, 0, 0]

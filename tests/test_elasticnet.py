import tracemalloc

import numpy as np
import pytest

from histgdp import elasticnet
from histgdp.elasticnet import (
    CvResult,
    EnModel,
    _solve_stack,
    en_cv,
    en_fit,
    en_predict,
    fit_centered,
    lambda_path,
)
from histgdp.errors import NumericalError, ValidationError
from histgdp.numerics import ols_fit, standardize


def _standardized_problem(seed, n=60, p=8, signal=None):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, p))
    std = standardize(raw)
    x = std.values
    if signal is None:
        y = rng.normal(size=n)
    else:
        y = x @ signal + 0.1 * rng.normal(size=n)
    return x, y


class TestSolverOracles:
    def test_lambda_zero_matches_ols(self):
        x, y = _standardized_problem(0)
        model = en_fit(x, y, alpha=0.5, lam=0.0, tol=1e-13)
        ols = ols_fit(x, y)
        assert np.max(np.abs(model.coefficients - ols.coefficients)) <= 1e-8
        assert abs(model.intercept - ols.intercept) <= 1e-8

    def test_univariate_soft_threshold(self):
        # gram x'x = 1, x'y = 1, alpha = 1, lambda = 1 -> S(1, 0.5) = 0.5
        path, _, _ = _solve_stack(
            np.array([[[1.0]]]), np.array([[1.0]]), (1.0,), np.array([[1.0]]), None, 1e-12, 1000
        )
        assert abs(path[0, 0, 0][0] - 0.5) <= 1e-12

    def test_univariate_ridge(self):
        # same data with alpha = 0: beta = x'y / (x'x + lambda) = 0.5
        path, _, _ = _solve_stack(
            np.array([[[1.0]]]), np.array([[1.0]]), (0.0,), np.array([[1.0]]), None, 1e-12, 1000
        )
        assert abs(path[0, 0, 0][0] - 0.5) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_ridge_closed_form(self, lam):
        x, y = _standardized_problem(1)
        model = en_fit(x, y, alpha=0.0, lam=lam, tol=1e-13)
        yc = y - y.mean()
        oracle = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ yc)
        assert np.max(np.abs(model.coefficients - oracle)) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(seed)
        x, y = _standardized_problem(seed + 10, n=80, p=12)
        alpha = float(rng.uniform(0.1, 1.0))
        lam = float(rng.uniform(0.5, 20.0))
        model = en_fit(x, y, alpha=alpha, lam=lam, tol=1e-12)
        beta = model.coefficients
        grad = x.T @ (y - y.mean() - x @ beta)
        for j in range(beta.size):
            if beta[j] != 0.0:
                resid = grad[j] - lam * alpha / 2 * np.sign(beta[j]) - lam * (1 - alpha) * beta[j]
                assert abs(resid) <= 1e-6
            else:
                assert abs(grad[j]) <= lam * alpha / 2 + 1e-6

    def test_penalty_monotone_in_lambda(self):
        x, y = _standardized_problem(2, n=50, p=10)
        alpha = 0.7
        lams = lambda_path(x, y, alpha, n_lambda=12, ratio=1e-3)

        def penalty(beta):
            return alpha * np.sum(np.abs(beta)) + (1 - alpha) * float(beta @ beta)

        pens = [penalty(en_fit(x, y, alpha, float(l), tol=1e-10).coefficients) for l in lams]
        for small, large in zip(pens[1:], pens[:-1]):
            assert large <= small + 1e-9

    def test_warm_equals_cold(self):
        x, y = _standardized_problem(3, n=50, p=10)
        lams = lambda_path(x, y, 0.8, n_lambda=10, ratio=1e-3)
        warm = None
        for lam in lams:
            model_w = en_fit(x, y, 0.8, float(lam), warm_start=warm, tol=1e-10)
            model_c = en_fit(x, y, 0.8, float(lam), tol=1e-10)
            assert np.max(np.abs(model_w.coefficients - model_c.coefficients)) <= 1e-7
            warm = model_w.coefficients

    def test_requires_standardized_input(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            en_fit(rng.normal(3.0, 2.0, size=(20, 3)), rng.normal(size=20), 0.5, 1.0)

    def test_alpha_bounds_validated(self):
        x, y = _standardized_problem(5, n=20, p=2)
        with pytest.raises(ValidationError):
            en_fit(x, y, alpha=1.5, lam=1.0)
        with pytest.raises(ValidationError):
            en_fit(x, y, alpha=0.5, lam=-1.0)


class TestLambdaPath:
    def test_zero_solution_at_top(self):
        x, y = _standardized_problem(6, n=40, p=6)
        lams = lambda_path(x, y, 0.5, n_lambda=20)
        model = en_fit(x, y, 0.5, float(lams[0]))
        assert np.all(model.coefficients == 0.0)

    def test_grid_shape(self):
        x, y = _standardized_problem(7, n=30, p=4)
        lams = lambda_path(x, y, 1.0, n_lambda=100, ratio=1e-4)
        assert lams.size == 100
        assert np.all(np.diff(lams) < 0)
        assert abs(lams[-1] / lams[0] - 1e-4) < 1e-12

    def test_homogeneous_in_y(self):
        x, y = _standardized_problem(8, n=30, p=4)
        top = lambda_path(x, y, 1.0, n_lambda=3)[0]
        top2 = lambda_path(x, 2.0 * y, 1.0, n_lambda=3)[0]
        assert abs(top2 - 2.0 * top) <= 1e-9 * top

    def test_alpha_zero_anchored_at_001(self):
        x, y = _standardized_problem(9, n=30, p=4)
        assert abs(
            lambda_path(x, y, 0.0, n_lambda=3)[0] - lambda_path(x, y, 0.01, n_lambda=3)[0]
        ) < 1e-12

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.0, 2.0])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        # 1 keeps every lambda at the all-zero threshold, 0 drops the rest to
        # zero, and a negative ratio gives NaN lambdas
        x, y = _standardized_problem(9, n=30, p=4)
        with pytest.raises(ValidationError, match=r"ratio must lie in \(0, 1\)"):
            lambda_path(x, y, 0.5, n_lambda=10, ratio=ratio)


class TestPredict:
    def test_training_reproduction(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(2.0, 3.0, size=(40, 5))
        std = standardize(raw)
        y = rng.normal(size=40)
        model = en_fit(
            std.values, y, 0.5, 1.0, feature_names=std.columns, means=std.means, sds=std.sds
        )
        fitted = model.intercept + std.values @ model.coefficients
        pred = en_predict(model, raw, feature_names=std.columns)
        assert np.max(np.abs(pred - fitted)) <= 1e-12

    def test_all_zero_coefficients(self):
        x, y = _standardized_problem(11, n=30, p=4)
        lam_top = float(lambda_path(x, y, 1.0, n_lambda=2)[0])
        model = en_fit(x, y, 1.0, lam_top)
        pred = en_predict(model, x)
        assert np.allclose(pred, model.intercept)

    def test_feature_at_training_mean_contributes_zero(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(30, 3))
        std = standardize(raw)
        y = raw @ np.array([1.0, -2.0, 0.5]) + 0.01 * rng.normal(size=30)
        model = en_fit(std.values, y, 0.2, 0.1, feature_names=std.columns, means=std.means, sds=std.sds)
        row = std.means.reshape(1, -1)
        pred = en_predict(model, row, feature_names=std.columns)
        assert abs(pred[0] - model.intercept) <= 1e-12

    def test_missing_column_rejected(self):
        x, y = _standardized_problem(13, n=20, p=3)
        model = en_fit(x, y, 0.5, 0.5, feature_names=("a", "b", "c"))
        with pytest.raises(ValidationError, match="'b'"):
            en_predict(model, np.zeros((2, 2)), feature_names=("a", "c"))

    def test_extra_column_warned_and_ignored(self):
        x, y = _standardized_problem(14, n=20, p=2)
        model = en_fit(x, y, 0.5, 0.5, feature_names=("a", "b"))
        with pytest.warns(UserWarning):
            pred = en_predict(model, np.zeros((2, 3)), feature_names=("a", "b", "junk"))
        assert pred.shape == (2,)


class TestCv:
    def test_single_cell_grid(self):
        x, y = _standardized_problem(15, n=40, p=5)
        res = en_cv(x, y, alpha_grid=(0.5,), k=4, seed=1, n_lambda=1)
        assert res.chosen_alpha == 0.5
        assert res.chosen_lambda == lambda_path(x, y, 0.5, n_lambda=1)[0]

    def test_deterministic(self):
        x, y = _standardized_problem(16, n=50, p=8)
        a = en_cv(x, y, alpha_grid=(0.5, 1.0), k=5, seed=9, n_lambda=10)
        b = en_cv(x, y, alpha_grid=(0.5, 1.0), k=5, seed=9, n_lambda=10)
        assert a.chosen_alpha == b.chosen_alpha and a.chosen_lambda == b.chosen_lambda
        assert np.array_equal(a.mean_mse, b.mean_mse)

    def test_thread_count_invariant(self):
        x, y = _standardized_problem(17, n=50, p=8)
        a = en_cv(x, y, alpha_grid=(0.5, 1.0), k=5, seed=2, n_lambda=10)
        b = en_cv(x, y, alpha_grid=(0.5, 1.0), k=5, seed=2, n_lambda=10)
        assert np.array_equal(a.mean_mse, b.mean_mse)
        assert (a.chosen_alpha, a.chosen_lambda) == (b.chosen_alpha, b.chosen_lambda)

    def test_noise_prefers_heavy_shrinkage(self):
        rng = np.random.default_rng(18)
        raw = rng.normal(size=(60, 10))
        x = standardize(raw).values
        y = rng.normal(size=60)  # pure noise
        res = en_cv(x, y, alpha_grid=(1.0,), k=5, seed=3, n_lambda=30)
        path = lambda_path(x, y, 1.0, n_lambda=30)
        assert res.chosen_lambda >= np.median(path)

    def test_true_support_recovery(self):
        # y depends on exactly 2 of 20 features; the chosen model should
        # include both in at least 95 of 100 seeded replications.
        hits = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            raw = rng.normal(size=(60, 20))
            std = standardize(raw)
            x = std.values
            y = 2.0 * x[:, 3] - 1.5 * x[:, 11] + 0.05 * rng.normal(size=60)
            res = en_cv(x, y, alpha_grid=(1.0,), k=4, seed=rep, n_lambda=25, lambda_ratio=1e-3)
            model = en_fit(x, y, res.chosen_alpha, res.chosen_lambda,
                           feature_names=std.columns)
            selected = set(model.selected_features)
            if {"col_3", "col_11"} <= selected:
                hits += 1
        assert hits >= 95

    def test_mse_ties_go_to_larger_lambda_then_larger_alpha(self):
        # a pure-noise response: the top of each alpha's path is all-zero in
        # every fold, so those cells predict the fold mean and tie on MSE
        x, y = _standardized_problem(7, n=40, p=6)
        res = en_cv(x, y, alpha_grid=(0.25, 0.5, 1.0), k=4, seed=0, n_lambda=8,
                    lambda_ratio=1e-2)
        assert np.sum(res.mean_mse == res.mean_mse.min()) >= 2
        best = min(
            range(res.mean_mse.size),
            key=lambda i: (res.mean_mse[i], -res.lambdas[i], -res.alphas[i]),
        )
        assert (res.chosen_alpha, res.chosen_lambda) == (res.alphas[best], res.lambdas[best])

    def test_fold_average_rule(self):
        x, y = _standardized_problem(19, n=40, p=5)
        res = en_cv(x, y, alpha_grid=(0.5, 1.0), k=4, seed=4, n_lambda=8,
                    selection_rule="fold_average")
        assert len(res.fold_choices) == 4
        assert res.chosen_alpha == pytest.approx(np.mean([c[0] for c in res.fold_choices]))
        assert res.chosen_lambda == pytest.approx(np.mean([c[1] for c in res.fold_choices]))

    def test_k_exceeding_rows_rejected(self):
        x, y = _standardized_problem(20, n=8, p=2)
        with pytest.raises(ValidationError):
            en_cv(x, y, alpha_grid=(1.0,), k=9, seed=0)

    def test_chosen_attains_minimum(self):
        x, y = _standardized_problem(21, n=40, p=6)
        res = en_cv(x, y, alpha_grid=(0.3, 1.0), k=4, seed=5, n_lambda=12)
        best = res.mean_mse.min()
        marked = res.mean_mse[
            (res.alphas == res.chosen_alpha) & (res.lambdas == res.chosen_lambda)
        ]
        assert marked[0] == best


class TestSerialization:
    def test_round_trip_exact(self):
        # names deliberately not in sorted order: the document must
        # preserve the coefficient vector's feature order
        x, y = _standardized_problem(22, n=30, p=5)
        model = en_fit(x, y, 0.3, 1.7, feature_names=("b", "a", "x10", "x2", "c"))
        restored = EnModel.from_json(model.to_json())
        assert restored.alpha == model.alpha
        assert restored.lam == model.lam
        assert restored.intercept == model.intercept
        assert np.array_equal(restored.coefficients, model.coefficients)
        assert restored.feature_names == model.feature_names
        assert np.array_equal(restored.means, model.means)
        assert np.array_equal(restored.sds, model.sds)
        assert restored.n_sweeps == model.n_sweeps
        assert restored.training_hash == model.training_hash

    def test_selected_features(self):
        x, y = _standardized_problem(23, n=30, p=4)
        lam_top = float(lambda_path(x, y, 1.0, n_lambda=2)[0])
        model = en_fit(x, y, 1.0, lam_top, feature_names=("a", "b", "c", "d"))
        assert model.selected_features == ()


def _dummy_design(seed, n=120, p_cont=6, levels=5):
    # continuous columns plus a full one-hot set: after centering the
    # dummies sum to zero, so the Gram matrix has rank p - 1, like the
    # supranational dummies of the real design
    rng = np.random.default_rng(seed)
    cont = rng.normal(size=(n, p_cont))
    group = np.arange(n) % levels
    x = standardize(np.hstack([cont, np.eye(levels)[group]])).values
    y = cont @ rng.normal(size=p_cont) + rng.normal(size=levels)[group] + 0.3 * rng.normal(size=n)
    return x, y


class TestCollinearDesign:
    TOL = 1e-9

    def test_design_is_rank_deficient(self):
        x, _ = _dummy_design(0)
        assert np.linalg.matrix_rank(x) == x.shape[1] - 1

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_path_certified_and_warm_equals_cold(self, seed, alpha):
        x, y = _dummy_design(seed)
        gram = x.T @ x
        xty = x.T @ (y - y.mean())
        warm = None
        capped = 0
        for lam in lambda_path(x, y, alpha, n_lambda=100, ratio=1e-4):
            lam = float(lam)
            model_w = en_fit(x, y, alpha, lam, warm_start=warm, tol=self.TOL)
            model_c = en_fit(x, y, alpha, lam, tol=self.TOL)
            warm = model_w.coefficients
            for model in (model_w, model_c):
                assert model.max_delta <= self.TOL
                beta = model.coefficients
                grad = x.T @ (y - y.mean() - x @ beta)
                for j in range(beta.size):
                    if beta[j] != 0.0:
                        resid = (grad[j] - lam * alpha / 2 * np.sign(beta[j])
                                 - lam * (1 - alpha) * beta[j])
                        assert abs(resid) <= 1e-6
                    else:
                        assert abs(grad[j]) <= lam * alpha / 2 + 1e-6
            assert np.max(np.abs(x @ (model_w.coefficients - model_c.coefficients))) <= 1e-8
            if model_c.n_sweeps > 1:
                capped += 1
                with pytest.raises(NumericalError, match="KKT violation"):
                    _solve_stack(gram[None], xty[None], (alpha,), np.array([[lam]]),
                                 None, self.TOL, 1)
        assert capped > 50

    def test_singular_active_block_leaves_by_null_direction(self):
        # every dummy active with one sign: the block is singular and the
        # l1 term falls along its null direction, so the solver must move
        # along it to a sign crossing rather than stall
        x, y = _dummy_design(0)
        gram = x.T @ x
        xty = x.T @ (y - y.mean())
        lam = float(lambda_path(x, y, 1.0, n_lambda=100, ratio=1e-4)[60])
        start = np.zeros(x.shape[1])
        start[6:] = 1.0
        path, _, cert = _solve_stack(gram[None], xty[None], (1.0,), np.array([[lam]]),
                                     start, self.TOL, 100)
        beta, violation = path[0, 0, 0], cert[0, 0, 0]
        cold = _solve_stack(gram[None], xty[None], (1.0,), np.array([[lam]]),
                            None, self.TOL, 100)[0][0, 0, 0]
        assert violation <= self.TOL
        assert np.max(np.abs(x @ (beta - cold))) <= 1e-8
        assert np.count_nonzero(beta[6:]) < 5


def test_stalled_steps_are_repaired_by_sweeps(monkeypatch):
    # a step that leaves beta unchanged (a floating-point tie) falls back
    # to coordinate sweeps, which alone still reach the certified optimum
    x, y = _standardized_problem(24, n=60, p=8)
    gram = x.T @ x
    xty = x.T @ (y - y.mean())
    lam = float(lambda_path(x, y, 0.7, n_lambda=10, ratio=1e-2)[5])
    exact = _solve_stack(gram[None], xty[None], (0.7,), np.array([[lam]]),
                         None, 1e-10, 100)[0][0, 0, 0]
    monkeypatch.setattr(elasticnet, "_active_step", lambda gram, beta, *rest: beta.copy())
    path, steps, cert = _solve_stack(gram[None], xty[None], (0.7,), np.array([[lam]]),
                                     None, 1e-10, 10_000)
    repaired, steps, violation = path[0, 0, 0], steps[0, 0, 0], cert[0, 0, 0]
    assert violation <= 1e-10
    assert steps > 1
    assert np.max(np.abs(repaired - exact)) <= 1e-8


def _serial_block_direction(h, g, l1, tol):
    try:
        pivots = np.diagonal(np.linalg.cholesky(h))
        if pivots.min() ** 2 > 1e-10 * h.diagonal().max():
            return np.linalg.solve(h, g), 1.0
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(h)
    null = w <= 1e-10 * max(w[-1], 0.0)
    gv = v.T @ g
    z = v[:, null] @ gv[null]
    if l1 > 0.0 and np.max(np.abs(z), initial=0.0) > tol / 2.0:
        curvature = float(z @ h @ z)
        return z, (float(g @ z) / curvature if curvature > 0.0 else np.inf)
    keep = ~null
    return v[:, keep] @ (gv[keep] / w[keep]), 1.0


def _serial_reference(gram, xty, alpha, lam, beta0, tol, max_steps=10_000):
    """The one-problem active-set solver the stacked kernel replaced, kept
    as the reference: the same steps, taken one problem at a time.
    Returns ``(beta, steps)``."""
    p = xty.size
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=float)
    l1, l2 = lam * alpha / 2.0, lam * (1.0 - alpha)

    def residual(b):
        return xty - gram @ b - l2 * b

    def objective(b, c):
        return float(2.0 * l1 * np.abs(b).sum() - b @ (xty + c))

    def step(active, signs):
        h = gram[np.ix_(active, active)]
        h.flat[:: active.size + 1] += l2
        d, t = _serial_block_direction(h, c[active] - l1 * signs, l1, tol)
        b = beta[active]
        crossing = np.zeros(d.size, dtype=bool)
        if l1 > 0.0:
            toward_zero = signs * d < 0.0
            cross_t = np.full(d.size, np.inf)
            cross_t[toward_zero] = -b[toward_zero] / d[toward_zero]
            if cross_t.min() <= t:
                t = float(cross_t.min())
                crossing = cross_t <= t
        out = beta.copy()
        out[active] = np.where(crossing, 0.0, b + t * d)
        return out

    c = residual(beta)
    for steps in range(max_steps):
        nonzero = beta != 0.0
        resid = np.where(nonzero, np.abs(c - l1 * np.sign(beta)), np.maximum(np.abs(c) - l1, 0.0))
        if resid.max(initial=0.0) <= tol:
            return beta, steps
        if l1 == 0.0:
            beta = step(np.arange(p), np.zeros(p))
            c = residual(beta)
            continue
        signs = np.sign(np.where(nonzero, beta, c))
        if not np.any(resid[nonzero] > tol):
            nonzero[int(np.argmax(np.where(nonzero, 0.0, resid)))] = True
        active = np.flatnonzero(nonzero)
        trial = step(active, signs[active])
        c_trial = residual(trial)
        before = objective(beta, c)
        if np.array_equal(trial, beta) or objective(trial, c_trial) > before + 1e-12 * (abs(before) + 1.0):
            trial = beta.copy()
            elasticnet._repair_sweeps(gram, xty, trial, l1, l2)
            c_trial = residual(trial)
        beta, c = trial, c_trial
    raise AssertionError("reference solver did not converge")


class TestStackedSolver:
    TOL = 1e-9
    ALPHAS = (0.0, 0.5, 1.0)

    def _stack(self):
        # three regular systems and one whose full dummy set makes its Gram
        # singular, all with p = 11; lambda paths from the first system
        designs = [_standardized_problem(30 + s, n=60, p=11) for s in range(3)]
        designs.append(_dummy_design(0, p_cont=6, levels=5))
        xs = [x for x, _ in designs]
        gram = np.array([x.T @ x for x in xs])
        xty = np.array([x.T @ (y - y.mean()) for x, y in designs])
        x0, y0 = designs[0]
        lams = np.array([lambda_path(x0, y0, a, n_lambda=8, ratio=1e-2) for a in self.ALPHAS])
        return xs, gram, xty, lams

    def _starts(self, p):
        # cold starts, except the dummy system, which starts with every
        # dummy active at one sign: a singular block with the l1 term along
        # its null direction, so it must take the eigh fallback
        beta0 = np.zeros((4, len(self.ALPHAS), p))
        beta0[3, :, 6:] = 1.0
        beta0[1, 2, :3] = 0.5  # a warm start next to cold ones
        return beta0

    def _check_against_reference(self, xs, gram, xty, alphas, lams, beta0, path, steps, cert,
                                 same_steps=True):
        for s, x in enumerate(xs):
            for a, alpha in enumerate(alphas):
                beta = beta0[s, a]
                for i, lam in enumerate(lams[a]):
                    beta, ref_steps = _serial_reference(
                        gram[s], xty[s], alpha, float(lam), beta, self.TOL
                    )
                    assert cert[s, a, i] <= self.TOL
                    assert np.max(np.abs(x @ (path[s, a, i] - beta))) <= 1e-8
                    if same_steps:
                        assert steps[s, a, i] == ref_steps

    def test_mixed_stack_matches_the_serial_solver(self, monkeypatch):
        xs, gram, xty, lams = self._stack()
        beta0 = self._starts(gram.shape[1])
        calls = []
        real_direction = elasticnet._null_direction

        def counted(*args):
            calls.append(1)
            return real_direction(*args)

        monkeypatch.setattr(elasticnet, "_null_direction", counted)
        path, steps, cert = elasticnet._solve_stack(gram, xty, self.ALPHAS, lams, beta0, self.TOL, 10_000)
        assert calls, "the singular block never took the eigh fallback"
        assert path.shape == (4, 3, 8, gram.shape[1]) and steps.shape == cert.shape == (4, 3, 8)
        self._check_against_reference(xs, gram, xty, self.ALPHAS, lams, beta0, path, steps, cert)

    def test_stalled_problem_next_to_progressing_ones(self, monkeypatch):
        # the first problem's active-set steps never move, so only the
        # repair sweeps advance it, while the other problems step normally
        xs, gram, xty, lams = self._stack()
        beta0 = self._starts(gram.shape[1])
        real_step = elasticnet._active_step

        def stall_first(gram, beta, *rest):
            trial = real_step(gram, beta, *rest)
            trial[0] = beta[0]
            return trial

        monkeypatch.setattr(elasticnet, "_active_step", stall_first)
        path, steps, cert = elasticnet._solve_stack(gram, xty, (0.5, 1.0), lams[1:], beta0[:, 1:], self.TOL, 10_000)
        assert steps[0, 0].sum() > steps[1, 0].sum()
        self._check_against_reference(
            xs, gram, xty, (0.5, 1.0), lams[1:], beta0[:, 1:], path, steps, cert, same_steps=False
        )

    def test_per_system_paths_equal_each_system_alone(self):
        # three systems, each with its own lambda path per alpha, cold and
        # warm starts side by side
        xs, gram, xty, _ = self._stack()
        gram, xty = gram[:3], xty[:3]
        designs = [_standardized_problem(30 + s, n=60, p=11) for s in range(3)]
        lams = np.array([
            [lambda_path(x, y, a, n_lambda=8, ratio=10.0 ** -(s + 1)) for a in self.ALPHAS]
            for s, (x, y) in enumerate(designs)
        ])
        beta0 = self._starts(gram.shape[1])[:3]
        path, steps, cert = _solve_stack(gram, xty, self.ALPHAS, lams, beta0, self.TOL, 10_000)
        assert path.shape == (3, 3, 8, 11) and (cert <= self.TOL).all()
        for s in range(3):
            alone = _solve_stack(gram[s:s + 1], xty[s:s + 1], self.ALPHAS, lams[s],
                                 beta0[s:s + 1], self.TOL, 10_000)
            assert np.array_equal(steps[s], alone[1][0])
            assert np.max(np.abs(path[s] - alone[0][0])) <= 1e-12
        # a shared (A, L) path is every system's path
        shared = _solve_stack(gram, xty, self.ALPHAS, lams[0], beta0, self.TOL, 10_000)
        each = _solve_stack(gram, xty, self.ALPHAS, np.broadcast_to(lams[0], lams.shape), beta0,
                            self.TOL, 10_000)
        for got, want in zip(shared, each):
            assert got.tobytes() == want.tobytes()

    def test_step_cap_in_a_stack_raises(self):
        _, gram, xty, lams = self._stack()
        with pytest.raises(NumericalError, match="KKT violation"):
            elasticnet._solve_stack(gram, xty, (1.0,), lams[2:, -1:], None, self.TOL, 1)


class TestMultiplicityWeights:
    def _rows_gram(self, x, y, idx):
        xt, yt = x[idx], y[idx]
        xc = xt - xt.mean(axis=0)
        return xc.T @ xc, xc.T @ (yt - yt.mean()), xt.mean(axis=0), yt.mean()

    def test_bincount_grams_equal_resampled_row_grams(self):
        rng = np.random.default_rng(40)
        x, y = _standardized_problem(41, n=30, p=5)
        clusters = np.arange(30) % 6
        draws = [rng.integers(0, 30, size=30) for _ in range(3)]  # row unit
        for chosen in (rng.integers(0, 6, size=6) for _ in range(3)):  # country unit
            draws.append(np.concatenate([np.flatnonzero(clusters == c) for c in chosen]))
        weights = np.array([np.bincount(idx, minlength=30) for idx in draws])
        gram, xty, col_means, y_means = elasticnet._centered_systems(x, y, weights)
        for b, idx in enumerate(draws):
            ref = self._rows_gram(x, y, idx)
            for got, want in zip((gram[b], xty[b], col_means[b], y_means[b]), ref):
                assert np.max(np.abs(got - want)) <= 1e-12


class TestCvCertificate:
    def test_grid_certified_and_final_fit_starts_at_its_cell(self):
        x, y = _standardized_problem(42, n=60, p=8)
        res = en_cv(x, y, alpha_grid=(0.0, 0.5, 1.0), k=5, seed=6, n_lambda=15)
        assert 0.0 <= res.kkt_violation <= elasticnet.DEFAULT_TOL
        cold = en_fit(x, y, res.chosen_alpha, res.chosen_lambda)
        warm = en_fit(x, y, res.chosen_alpha, res.chosen_lambda,
                      warm_start=res.chosen_coefficients)
        assert warm.n_sweeps == 0
        assert warm.max_delta <= elasticnet.DEFAULT_TOL
        assert np.max(np.abs(x @ (warm.coefficients - cold.coefficients))) <= 1e-8

    @pytest.mark.parametrize("warm", [False, True])
    def test_en_fit_is_fit_centered_on_one_row_of_ones(self, warm):
        x, y = _standardized_problem(44, n=50, p=7)
        lams = lambda_path(x, y, 0.6, n_lambda=10, ratio=1e-2)
        start = en_fit(x, y, 0.6, float(lams[4])).coefficients if warm else None
        model = en_fit(x, y, 0.6, float(lams[6]), warm_start=start)
        beta, _, _, steps, violation = fit_centered(
            x, y, np.ones((1, len(y))), 0.6, float(lams[6]), warm_start=start
        )
        assert model.n_sweeps > 0
        assert model.coefficients.tobytes() == beta[0].tobytes()
        assert model.n_sweeps == steps[0]
        assert np.float64(model.max_delta).tobytes() == violation[0].tobytes()

    def test_full_data_system_is_en_fits_bit_for_bit(self, monkeypatch):
        # the last system of each design in the CV stack is the one the
        # final fit solves; a batch pads the narrower design's copy
        problems = [_standardized_problem(70 + s, n=n, p=p) for s, (n, p) in
                    enumerate([(100, 30), (80, 21)])]
        designs = [elasticnet.cv_design(x, y, alpha_grid=(0.5, 1.0), k=3, seed=s, n_lambda=4)
                   for s, (x, y) in enumerate(problems)]
        stacks = []
        real = elasticnet._solve_stack

        def spy(gram, xty, *args):
            stacks.append((gram.copy(), xty.copy()))
            return real(gram, xty, *args)

        monkeypatch.setattr(elasticnet, "_solve_stack", spy)
        results = elasticnet.solve_cv(designs)
        for (x, y), result in zip(problems, results):
            en_fit(x, y, result.chosen_alpha, result.chosen_lambda,
                   warm_start=result.chosen_coefficients)
        cv_gram, cv_xty = stacks[0]
        n_folds = sum(len(d.folds) for d in designs)  # the full-data systems follow
        for j, ((x, _), (fit_gram, fit_xty)) in enumerate(zip(problems, stacks[1:])):
            p = x.shape[1]
            assert cv_gram[n_folds + j, :p, :p].tobytes() == fit_gram[0].tobytes()
            assert cv_xty[n_folds + j, :p].tobytes() == fit_xty[0].tobytes()

    def test_batch_equals_each_design_alone(self):
        # designs of different widths and lengths share one stacked solve;
        # the narrower ones are padded with zero columns
        problems = [_standardized_problem(50 + s, n=n, p=p) for s, (n, p) in
                    enumerate([(60, 8), (45, 5), (70, 8)])]
        designs = [elasticnet.cv_design(x, y, alpha_grid=(0.0, 0.5, 1.0), k=4, seed=s,
                                        n_lambda=10, lambda_ratio=1e-2)
                   for s, (x, y) in enumerate(problems)]
        batch = elasticnet.solve_cv(designs)
        for design, got in zip(designs, batch):
            (want,) = elasticnet.solve_cv([design])
            assert (got.chosen_alpha, got.chosen_lambda) == (want.chosen_alpha, want.chosen_lambda)
            assert got.chosen_steps == want.chosen_steps
            assert got.chosen_coefficients.shape == (design.x.shape[1],)
            assert np.max(np.abs(got.chosen_coefficients - want.chosen_coefficients)) <= 1e-12
            assert np.max(np.abs(got.mean_mse - want.mean_mse) / want.mean_mse) <= 1e-12
            assert got.kkt_violation <= elasticnet.DEFAULT_TOL

    def test_failed_stacked_solve_is_retried_design_by_design(self, monkeypatch):
        problems = [_standardized_problem(60 + s, n=40, p=6) for s in range(3)]
        designs = [elasticnet.cv_design(x, y, alpha_grid=(0.5, 1.0), k=3, seed=s, n_lambda=6)
                   for s, (x, y) in enumerate(problems)]
        alone = [elasticnet.solve_cv([d])[0] for d in designs]
        bad = designs[1].y
        real = elasticnet._solve_stack

        def fails_on_design_1(gram, xty, *args):
            if any(np.allclose(row, designs[1].x.T @ (bad - bad.mean())) for row in xty):
                raise NumericalError("planted")
            return real(gram, xty, *args)

        monkeypatch.setattr(elasticnet, "_solve_stack", fails_on_design_1)
        got = elasticnet.solve_cv(designs)
        assert isinstance(got[1], NumericalError) and str(got[1]) == "planted"
        for i in (0, 2):
            assert got[i].mean_mse.tobytes() == alone[i].mean_mse.tobytes()
            assert got[i].chosen_coefficients.tobytes() == alone[i].chosen_coefficients.tobytes()
        with pytest.raises(NumericalError, match="planted"):
            en_cv(*problems[1], alpha_grid=(0.5, 1.0), k=3, seed=1, n_lambda=6)

    def test_fold_average_has_no_grid_start(self):
        x, y = _standardized_problem(43, n=40, p=5)
        res = en_cv(x, y, alpha_grid=(0.5, 1.0), k=4, seed=4, n_lambda=8,
                    selection_rule="fold_average")
        assert res.chosen_coefficients is None and res.chosen_steps == 0


class TestFoldScoring:
    def _reference(self, designs, monkeypatch):
        """The CV surfaces scored the old way: ``_solve_stack``'s whole path
        on solve_cv's own stack, each fold's rows predicted afterwards."""
        stacks = []
        real = elasticnet._solve_stack

        def spy(gram, xty, alphas, lams, *args):
            stacks.append((gram.copy(), xty.copy(), alphas, lams.copy()))
            return real(gram, xty, alphas, lams, *args)

        scored = []
        score_cv = elasticnet._score_cv

        def scores(design, fold_mses, *args):
            scored.append(fold_mses.copy())
            return score_cv(design, fold_mses, *args)

        monkeypatch.setattr(elasticnet, "_solve_stack", spy)
        monkeypatch.setattr(elasticnet, "_score_cv", scores)
        results = elasticnet.solve_cv(designs)
        (gram, xty, alphas, lams), = stacks
        path, steps, _ = real(gram, xty, alphas, lams, None, elasticnet.DEFAULT_TOL, 10_000)
        start, full = 0, sum(len(d.folds) for d in designs)  # the folds first
        references = []
        for d in designs:
            n, w = d.x.shape
            k = len(d.folds)
            weights = np.ones((k, n))
            for f, val_idx in enumerate(d.folds):
                weights[f, val_idx] = 0.0
            _, _, col_means, y_means = elasticnet._centered_systems(d.x, d.y, weights)
            fold_mses = np.empty((k, d.lams.size))
            for f, val_idx in enumerate(d.folds):
                cells = path[start + f, ..., :w].reshape(d.lams.size, w)
                pred = y_means[f] + cells @ (d.x[val_idx] - col_means[f]).T
                fold_mses[f] = np.mean((pred - d.y[val_idx]) ** 2, axis=1)
            references.append((fold_mses, path[full, ..., :w], steps[full]))
            start, full = start + k, full + 1
        return results, scored, references

    @pytest.mark.parametrize("burst", [3, 16])
    def test_in_solve_scores_equal_scoring_the_full_path(self, burst, monkeypatch):
        # three designs of different widths and row counts share one stack,
        # the narrower padded with zero columns; at a burst of 3 the folds'
        # solutions are scored in several pieces during the solve
        monkeypatch.setattr(elasticnet, "_SCORE_BURST", burst)
        problems = [_standardized_problem(80 + s, n=n, p=p) for s, (n, p) in
                    enumerate([(61, 9), (44, 5), (73, 7)])]
        designs = [elasticnet.cv_design(x, y, alpha_grid=(0.0, 0.5, 1.0), k=4, seed=s,
                                        n_lambda=10, lambda_ratio=1e-2)
                   for s, (x, y) in enumerate(problems)]
        results, scored, references = self._reference(designs, monkeypatch)
        for d, got, mses, (fold_mses, full_path, full_steps) in zip(
            designs, results, scored, references
        ):
            cells = d.lams.shape[1]
            np.testing.assert_array_max_ulp(mses, fold_mses, maxulp=1)
            best = [int(np.lexsort((-got.alphas, -got.lambdas, fm))[0]) for fm in fold_mses]
            assert got.fold_choices == tuple(
                (float(got.alphas[j]), float(got.lambdas[j])) for j in best
            )
            j = int(np.lexsort((-got.alphas, -got.lambdas, fold_mses.mean(axis=0)))[0])
            assert (got.chosen_alpha, got.chosen_lambda) == (got.alphas[j], got.lambdas[j])
            a, i = divmod(j, cells)
            assert got.chosen_coefficients.tobytes() == full_path[a, i].tobytes()
            assert got.chosen_steps == full_steps[a, : i + 1].sum()

    def test_fold_paths_are_never_allocated(self):
        # at the paper's 11 alphas x 100 lambdas x 10 folds, the folds' paths
        # would be one (S * A, L, p) array; the whole call stays below it
        x, y = _standardized_problem(90, n=60, p=20)
        design = elasticnet.cv_design(x, y, k=10, seed=0, n_lambda=100, lambda_ratio=1e-2)
        systems, alphas, lambdas = 11, len(design.alphas), design.lams.shape[1]
        fold_paths_bytes = systems * alphas * lambdas * x.shape[1] * 8
        tracemalloc.start()
        try:
            (result,) = elasticnet.solve_cv([design])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alphas == 11 and result.kkt_violation <= elasticnet.DEFAULT_TOL
        assert peak < fold_paths_bytes, (peak, fold_paths_bytes)


def test_ridge_shift_certifies_a_block_without_cholesky(monkeypatch):
    # two copies of one singular block (a duplicated column): shifted by
    # l2 = 1 (alpha < 1) it is regular by the shift alone; unshifted
    # (alpha = 1) it must still be tested
    x, _ = _standardized_problem(91, n=30, p=3)
    x = np.hstack([x, x[:, :1]])
    gram = x.T @ x
    h = np.stack([gram + np.eye(4), gram])
    g = np.array([[0.5, -0.2, 0.1, 0.3], [0.4, 0.1, -0.3, 0.2]])
    real = np.ones((2, 4), dtype=bool)
    factored = []
    cholesky = np.linalg.cholesky

    def spy(a):
        factored.append(a.copy())
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    d, t = elasticnet._block_direction(h, g, real, np.array([0.0, 0.5]),
                                       np.array([1.0, 0.0]), elasticnet.DEFAULT_TOL)
    assert len(factored) == 1 and factored[0].tobytes() == h[1:].tobytes()
    assert np.allclose(h[0] @ d[0], g[0]) and t[0] == 1.0


def test_singular_block_in_range_takes_the_minimum_norm_step(monkeypatch):
    # a duplicated column warm-started active at one sign in both copies:
    # the block is singular (its null direction is copy minus copy), but
    # both copies see the same KKT residual, so the residual and the l1
    # term lie in the block's range and the step is the minimum-norm solve,
    # which keeps the copies equal
    x, y = _standardized_problem(91, n=30, p=3, signal=np.array([0.8, -0.3, 0.0]))
    twin = np.hstack([x, x[:, :1]])
    lam = float(lambda_path(x, y, 1.0, n_lambda=10, ratio=1e-2)[4])
    steps = []
    real_direction = elasticnet._null_direction

    def recorded(h, g, l1, tol):
        d, t = real_direction(h, g, l1, tol)
        steps.append((h.shape[0], l1, d, t))
        return d, t

    monkeypatch.setattr(elasticnet, "_null_direction", recorded)
    ones = np.ones((1, len(y)))
    beta, *_, kkt = fit_centered(twin, y, ones, 1.0, lam, warm_start=[0.2, 0.0, 0.0, 0.2])
    k, l1, d, t = steps[0]
    assert (k, t) == (2, 1.0) and l1 > 0.0 and d[0] == pytest.approx(d[1])
    assert kkt[0] <= elasticnet.DEFAULT_TOL
    single = fit_centered(x, y, ones, 1.0, lam)[0][0]
    assert beta[0, 0] == pytest.approx(beta[0, 3]) and beta[0, 0] > 0.0
    assert np.max(np.abs(twin @ beta[0] - x @ single)) <= 1e-8

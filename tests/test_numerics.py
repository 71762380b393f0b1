import math

import numpy as np
import pytest

from histgdp.errors import NumericalError, ValidationError
from histgdp.numerics import (
    _midranks,
    chi2_sf,
    kruskal_wallis,
    mae_relative,
    ols_fit,
    pearson,
    quantile,
    r2_log,
    spearman,
    standardize,
    svd,
)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(2))
        assert np.allclose(res.s, [1.0, 1.0])

    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.s, [3.0, 2.0])
        assert np.allclose(np.abs(res.u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-12)

    def test_rank_deficient_column(self):
        # N'N = diag(25, 0), so singular values are (5, 0).
        a = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
        res = svd(a)
        assert np.allclose(res.s, [5.0, 0.0], atol=1e-12)
        # orthonormal completion keeps U'U = I even at rank deficiency
        assert np.max(np.abs(res.u.T @ res.u - np.eye(2))) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 41))
        a = rng.normal(size=(rows, cols))
        res = svd(a)
        rec = res.u @ np.diag(res.s) @ res.v.T
        assert np.linalg.norm(rec - a) <= 1e-10 * max(np.linalg.norm(a), 1e-30)
        r = min(rows, cols)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(r))) <= 1e-10
        assert np.max(np.abs(res.v.T @ res.v - np.eye(r))) <= 1e-10
        assert np.all(np.diff(res.s) <= 1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_singular_values_match_gram_eigenvalues(self, seed):
        # independent oracle: symmetric eigensolver on N'N
        rng = np.random.default_rng(100 + seed)
        a = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        res = svd(a)
        eig = np.linalg.eigvalsh(a.T @ a)[::-1]
        expect = np.sqrt(np.maximum(eig, 0.0))[: res.s.size]
        assert np.allclose(np.sort(res.s)[::-1], expect, atol=1e-8)

    def test_sign_convention(self):
        res = svd(np.array([[-2.0, 0.0], [0.0, 1.0]]))
        for j in range(2):
            k = int(np.argmax(np.abs(res.u[:, j])))
            assert res.u[k, j] > 0

    def test_wide_matrix(self):
        a = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, -1.0]])
        res = svd(a)
        assert res.u.shape == (2, 2)
        assert res.v.shape == (3, 2)
        assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, a, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            svd(np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (4, 4)])
    def test_sign_convention_any_shape(self, shape):
        # the rule is on u for wide inputs too, with v flipped alongside
        for seed in range(5):
            a = np.random.default_rng(seed).normal(size=shape)
            res = svd(a)
            cols = np.arange(res.u.shape[1])
            assert np.all(res.u[np.argmax(np.abs(res.u), axis=0), cols] > 0)
            assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, a, atol=1e-12)

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="factors"):
            svd(np.eye(3), name="factors")


class TestOls:
    def test_exact_line(self):
        fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        assert abs(fit.coefficients[0] - 2.0) < 1e-10
        assert abs(fit.intercept) < 1e-10

    def test_constant_target(self):
        fit = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([5.0, 5.0, 5.0]))
        assert abs(fit.coefficients[0]) < 1e-10
        assert abs(fit.intercept - 5.0) < 1e-10

    def test_affine_recovery(self):
        x = np.arange(1.0, 7.0).reshape(-1, 1)
        y = 3.0 * x[:, 0] + 1.0
        fit = ols_fit(x, y)
        assert abs(fit.coefficients[0] - 3.0) < 1e-10
        assert abs(fit.intercept - 1.0) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        fit = ols_fit(x, y)
        resid = y - fit.predict(x)
        design = np.hstack([np.ones((40, 1)), x])
        assert np.max(np.abs(design.T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_rank_deficiency_flagged(self):
        x = np.column_stack([np.arange(6.0), 2 * np.arange(6.0)])
        fit = ols_fit(x, np.arange(6.0))
        assert fit.rank_deficient
        assert np.allclose(fit.predict(x), np.arange(6.0), atol=1e-8)


class TestStandardize:
    def test_basic_column(self):
        res = standardize(np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(res.values[:, 0], [-1.224744871391589, 0.0, 1.224744871391589])
        assert abs(res.means[0] - 2.0) < 1e-15
        assert abs(res.sds[0] - 0.816496580927726) < 1e-15

    def test_idempotent(self):
        col = np.array([[-1.224744871391589], [0.0], [1.224744871391589]])
        res = standardize(col)
        assert np.allclose(res.values, col, atol=1e-12)

    def test_constant_column_dropped(self):
        res = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ("c", "x"))
        assert res.dropped == ("c",)
        assert res.columns == ("x",)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            standardize(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_column_name_count_checked(self):
        with pytest.raises(ValidationError, match="column name count"):
            standardize(np.ones((2, 2)), ("a",))

    def test_moments(self):
        rng = np.random.default_rng(3)
        res = standardize(rng.normal(2.0, 5.0, size=(30, 4)))
        assert np.max(np.abs(res.values.mean(axis=0))) <= 1e-12
        assert np.max(np.abs(res.values.std(axis=0) - 1.0)) <= 1e-12


class TestQuantile:
    def test_median_odd(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_median_even(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_interpolation(self):
        # 0.05 * (2 - 1) = 0.05 -> 10 + 0.05 * 10
        assert abs(quantile([10.0, 20.0], 0.05) - 10.5) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            quantile([], 0.5)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=23)
        qs = [quantile(vals, p) for p in np.linspace(0, 1, 21)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))
        assert qs[0] == vals.min() and qs[-1] == vals.max()

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.95, 1.0])
    def test_columns_equal_the_per_column_loop(self, p):
        vals = np.random.default_rng(8).normal(size=(50, 7))
        got = quantile(vals, p)
        assert got.shape == (7,)
        assert np.array_equal(got, [quantile(vals[:, t], p) for t in range(7)])


class TestKruskalWallis:
    def test_separated_groups(self):
        h, p = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert abs(h - 27.0 / 7.0) < 1e-12
        # df=1 oracle: erfc(sqrt(H/2))
        assert abs(p - 0.04953461343562674) < 1e-10

    def test_identical_groups(self):
        h, p = kruskal_wallis([[1.0, 2.0], [1.0, 2.0]])
        assert h == 0.0
        assert p == 1.0

    def test_all_values_identical(self):
        h, p = kruskal_wallis([[2.0, 2.0], [2.0, 2.0, 2.0]])
        assert (h, p) == (0.0, 1.0)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(11)
        groups = [rng.normal(size=9), rng.normal(1.0, size=7), rng.normal(size=5)]
        h1, p1 = kruskal_wallis(groups)
        h2, p2 = kruskal_wallis([np.exp(g) for g in groups])
        assert abs(h1 - h2) < 1e-12 and abs(p1 - p2) < 1e-12

    def test_needs_two_groups(self):
        with pytest.raises(ValidationError):
            kruskal_wallis([[1.0, 2.0]])


class TestChi2Sf:
    # closed forms: df=1 erfc(sqrt(x/2)); df=2 exp(-x/2);
    # df=3 erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2); df=4 exp(-x/2)(1+x/2)
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.857142857142857, 7.0, 15.0])
    def test_against_closed_forms(self, x):
        assert abs(chi2_sf(x, 1) - math.erfc(math.sqrt(x / 2))) < 1e-10
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2)) < 1e-10
        df3 = math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
        assert abs(chi2_sf(x, 3) - df3) < 1e-10
        assert abs(chi2_sf(x, 4) - math.exp(-x / 2) * (1 + x / 2)) < 1e-10
        df6 = math.exp(-x / 2) * (1 + x / 2 + x * x / 8)
        assert abs(chi2_sf(x, 6) - df6) < 1e-10

    def test_odd_df_quadrature(self):
        # Simpson-rule oracle values for df = 5
        assert abs(chi2_sf(2.0, 5) - 0.8491450360846097) < 1e-9
        assert abs(chi2_sf(9.5, 5) - 0.09070739170404751) < 1e-9

    def test_edges(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0

    # Q(df/2, x/2) from mpmath 1.3.0 at 60 digits,
    # gammainc(df/2, x/2, inf, regularized=True), rounded to double
    REFERENCE_X = (1e-6, 0.5, 3.84, 20.0, 200.0, 1400.0)
    REFERENCE = {
        1: (0.9992021155721779, 0.4795001221869535, 0.050043521248705106,
            7.744216431044084e-06, 2.088487583762545e-45, 2.1010145162642176e-306),
        2: (0.999999500000125, 0.7788007830714049, 0.14660696213035015,
            4.5399929762484854e-05, 3.720075976020836e-44, 9.85967654375977e-305),
        3: (0.9999999997340385, 0.9188914116546758, 0.2792676171186102,
            0.00016974243555282643, 4.2185411071920426e-43, 2.945619361016309e-303),
        4: (0.999999999999875, 0.9735009788392561, 0.4280923294206224,
            0.0004993992273873333, 3.757276735781044e-42, 6.911633257175599e-302),
        5: (1.0, 0.9921232932326296, 0.5726744598320886,
            0.0012497305630313753, 2.8406228986415315e-41, 1.3765875143943704e-300),
        7: (1.0, 0.9994464813904249, 0.7980109150360402,
            0.005569683072945571, 1.1477812240142598e-39, 3.859963181237336e-298),
        10: (1.0, 0.999993388289439, 0.9542763043207358,
             0.029252688076961072, 1.6139305336977305e-37, 9.920391479800145e-295),
        30: (1.0, 1.0, 0.9999999977393645,
             0.9165415270653372, 4.952733529003191e-27, 7.826866361038639e-276),
    }

    @pytest.mark.parametrize("df", sorted(REFERENCE))
    def test_against_reference_values(self, df):
        for x, expected in zip(self.REFERENCE_X, self.REFERENCE[df]):
            assert abs(chi2_sf(x, df) - expected) <= 1e-13 * expected, (df, x)

    @pytest.mark.parametrize("df, expected", [(20, 1.5455664908593583e-282),
                                              (24, 6.806607876776283e-279)])
    def test_far_tail_keeps_the_exponent_rounding(self, df, expected):
        # each term is exp(a - h) with h = 695: rounding a - h alone costs
        # up to 6e-14 relative, which the two-sum in the exponent puts back
        assert abs(chi2_sf(1390.0, df) - expected) <= 2e-14 * expected

    @pytest.mark.parametrize("x, df", [(2.5, 1.5), (2.0, 0)])
    def test_df_must_be_a_positive_integer(self, x, df):
        with pytest.raises(ValidationError, match="positive integer"):
            chi2_sf(x, df)


class TestFitMetrics:
    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_log(y, y) == 1.0

    def test_r2_mean_predictor(self):
        obs = np.array([1.0, 2.0, 3.0])
        assert abs(r2_log(np.full(3, 2.0), obs)) < 1e-15

    def test_r2_hand_value(self):
        assert abs(r2_log([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) - 0.5) < 1e-12

    def test_r2_zero_variance_rejected(self):
        with pytest.raises(ValidationError):
            r2_log([1.0, 2.0], [3.0, 3.0])

    def test_mae_zero(self):
        assert mae_relative([100.0, 200.0], [100.0, 200.0]) == 0.0

    def test_mae_hand_values(self):
        assert abs(mae_relative([110.0, 90.0], [100.0, 100.0]) - 0.10) < 1e-12
        assert abs(mae_relative([100.0, 200.0], [100.0, 300.0]) - 0.25) < 1e-12

    def test_mae_positive_required(self):
        with pytest.raises(ValidationError):
            mae_relative([1.0], [0.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=12)
        obs = rng.normal(size=12)
        perm = rng.permutation(12)
        assert abs(r2_log(pred, obs) - r2_log(pred[perm], obs[perm])) < 1e-12
        lev_p, lev_o = np.exp(pred), np.exp(obs)
        assert abs(mae_relative(lev_p, lev_o) - mae_relative(lev_p[perm], lev_o[perm])) < 1e-12


class TestCorrelation:
    def test_pearson_exact(self):
        x = np.arange(10.0)
        assert abs(pearson(x, 2 * x + 1) - 1.0) < 1e-12
        assert abs(pearson(x, -x) + 1.0) < 1e-12

    def test_spearman_monotone(self):
        x = np.array([1.0, 4.0, 9.0, 16.0])
        assert abs(spearman(x, np.sqrt(x)) - 1.0) < 1e-12


def reference_midranks(pooled):
    """Mid-ranks by scanning each run of equal sorted values."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size, dtype=float)
    sorted_vals = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    def test_matches_run_scan_on_ties(self):
        rng = np.random.default_rng(5)
        cases = [np.array([]), np.array([4.0]), np.full(6, 2.5),
                 np.array([0.0, -0.0, 1.0, -0.0, 0.0]), np.array([3.0, 1.0, 2.0, 1.0, 3.0, 3.0])]
        for n in (2, 7, 40, 301):
            cases.append(rng.integers(0, max(2, n // 4), n).astype(float))
            cases.append(rng.normal(size=n))
        for x in cases:
            assert _midranks(x).tobytes() == reference_midranks(x).tobytes()

    def test_tied_ranks(self):
        assert _midranks(np.array([10.0, 20.0, 10.0, 30.0, 20.0, 10.0])).tolist() == \
            [2.0, 4.5, 2.0, 6.0, 4.5, 2.0]

import itertools
import math

import numpy as np
import pytest

from histgdp.elasticnet import EnModel, en_fit
from histgdp.errors import ValidationError
from histgdp.explain import (
    attribute_rows,
    rank_features,
    shapley_linear_exact,
    shapley_permutation,
)
from histgdp.features import FeatureMatrix
from histgdp.numerics import standardize


def background_of(values, columns):
    """A background table of ``values`` under ``columns``, one row key per row."""
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(tuple((f"bg{i}", 0) for i in range(len(values))), tuple(columns), values)


def make_model(coefs, intercept=0.0, names=None, means=None, sds=None):
    coefs = np.asarray(coefs, dtype=float)
    p = coefs.size
    names = tuple(names or (f"f{j}" for j in range(p)))
    return EnModel(
        alpha=1.0,
        lam=0.0,
        intercept=intercept,
        coefficients=coefs,
        feature_names=names,
        means=np.zeros(p) if means is None else np.asarray(means, dtype=float),
        sds=np.ones(p) if sds is None else np.asarray(sds, dtype=float),
        n_sweeps=1,
        max_delta=0.0,
    )


def brute_force_linear(model, x, background):
    """Direct evaluation of the Shapley sum over all 2^F coalitions.

    The coalition value fills absent features with their background mean
    (standardized space), matching the independence convention.
    """
    bg_std = (np.asarray(background, dtype=float) - model.means) / model.sds
    mean_std = bg_std.mean(axis=0)
    x_std = (np.asarray(x, dtype=float) - model.means) / model.sds
    p = x_std.size

    def value(subset):
        z = mean_std.copy()
        for j in subset:
            z[j] = x_std[j]
        return model.intercept + float(model.coefficients @ z)

    phi = np.zeros(p)
    others = list(range(p))
    for i in range(p):
        rest = [j for j in others if j != i]
        for r in range(len(rest) + 1):
            for subset in itertools.combinations(rest, r):
                weight = (
                    math.factorial(len(subset))
                    * math.factorial(p - len(subset) - 1)
                    / math.factorial(p)
                )
                phi[i] += weight * (value(subset + (i,)) - value(subset))
    return phi


class TestLinearExact:
    def test_two_feature_hand_case(self):
        model = make_model([2.0, 3.0])
        bg = background_of(np.zeros((1, 2)), ("f0", "f1"))
        att = shapley_linear_exact(model, np.array([1.0, 1.0]), bg)
        assert np.allclose(att.phi, [2.0, 3.0], atol=1e-12)

    def test_instance_at_background_mean(self):
        model = make_model([1.5, -2.0, 0.3])
        rng = np.random.default_rng(0)
        bg_values = rng.normal(size=(20, 3))
        bg = background_of(bg_values, ("f0", "f1", "f2"))
        att = shapley_linear_exact(model, bg_values.mean(axis=0), bg)
        assert np.allclose(att.phi, 0.0, atol=1e-12)

    def test_symmetry(self):
        model = make_model([2.0, 2.0])
        bg = background_of(np.zeros((1, 2)), ("f0", "f1"))
        att = shapley_linear_exact(model, np.array([0.7, 0.7]), bg)
        assert att.phi[0] == pytest.approx(att.phi[1], abs=1e-12)

    def test_dummy_axiom(self):
        model = make_model([0.0, 1.0])
        bg = background_of(np.ones((3, 2)), ("f0", "f1"))
        att = shapley_linear_exact(model, np.array([5.0, 2.0]), bg)
        assert att.phi[0] == 0.0

    @pytest.mark.parametrize("p", [2, 5, 8, 10])
    def test_matches_brute_force(self, p):
        rng = np.random.default_rng(p)
        model = make_model(
            rng.normal(size=p),
            intercept=rng.normal(),
            means=rng.normal(size=p),
            sds=rng.uniform(0.5, 2.0, size=p),
        )
        background = rng.normal(size=(6, p))
        x = rng.normal(size=p)
        bg = background_of(background, model.feature_names)
        att = shapley_linear_exact(model, x, bg)
        oracle = brute_force_linear(model, x, background)
        assert np.max(np.abs(att.phi - oracle)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_efficiency(self, seed):
        rng = np.random.default_rng(seed)
        p = 7
        model = make_model(rng.normal(size=p), intercept=rng.normal())
        bg = background_of(rng.normal(size=(11, p)), model.feature_names)
        att = shapley_linear_exact(model, rng.normal(size=p), bg)
        assert abs(att.base + att.phi.sum() - att.prediction) <= 1e-9

    def test_missing_background_column(self):
        model = make_model([1.0, 1.0])
        bg = background_of(np.zeros((2, 1)), ("f0",))
        with pytest.raises(ValidationError, match="'f1'"):
            shapley_linear_exact(model, np.zeros(2), bg)

    def test_background_must_be_a_feature_matrix(self):
        model = make_model([1.0, 1.0])
        with pytest.raises(ValidationError, match="FeatureMatrix"):
            shapley_linear_exact(model, np.zeros(2), np.zeros((2, 2)))


class TestPermutation:
    def test_converges_to_linear_exact(self):
        rng = np.random.default_rng(1)
        p = 6
        coefs = rng.normal(size=p)
        model = make_model(coefs)
        background = rng.normal(size=(15, p))
        x = rng.normal(size=p)
        exact = shapley_linear_exact(
            model, x, background_of(background, model.feature_names)
        )

        def f(z):
            return model.intercept + float(coefs @ z)

        est = shapley_permutation(f, x, background, n_permutations=10_000, seed=3)
        bound = 3.0 * np.maximum(est.se, 1e-12)
        assert np.all(np.abs(est.phi - exact.phi) <= bound)

    def test_constant_function(self):
        est = shapley_permutation(
            lambda z: 4.2, np.ones(3), np.zeros((2, 3)), n_permutations=50, seed=0
        )
        assert np.allclose(est.phi, 0.0)

    def test_full_enumeration_matches_formula(self):
        # 3 features, single background row: all 3! = 6 permutations equal
        # the exact Shapley sum for an arbitrary nonlinear function.
        bg_row = np.array([0.5, -1.0, 2.0])
        x = np.array([1.0, 0.3, -0.7])

        def f(z):
            return z[0] * z[1] + math.sin(z[2]) + 0.5 * z[0]

        est = shapley_permutation(f, x, bg_row.reshape(1, -1), enumerate_all=True, seed=9)

        def value(subset):
            z = bg_row.copy()
            for j in subset:
                z[j] = x[j]
            return f(z)

        phi = np.zeros(3)
        for i in range(3):
            rest = [j for j in range(3) if j != i]
            for r in range(3):
                for subset in itertools.combinations(rest, r):
                    w = math.factorial(len(subset)) * math.factorial(2 - len(subset)) / 6.0
                    phi[i] += w * (value(subset + (i,)) - value(subset))
        assert np.max(np.abs(est.phi - phi)) <= 1e-12

    def test_efficiency_exact_for_estimator(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        bg = rng.normal(size=(6, 4))
        est = shapley_permutation(
            lambda z: float(np.sum(z**2)), x, bg, n_permutations=40, seed=2
        )
        assert abs(est.base + est.phi.sum() - est.prediction) <= 1e-9

    def test_minimum_permutations_enforced(self):
        with pytest.raises(ValidationError):
            shapley_permutation(lambda z: 0.0, np.ones(2), np.zeros((1, 2)), n_permutations=5)


class TestRanking:
    def test_orders_by_mean_abs(self):
        a1 = shapley_linear_exact(
            make_model([1.0, -3.0, 0.0]),
            np.array([1.0, 1.0, 1.0]),
            background_of(np.zeros((1, 3)), ("f0", "f1", "f2")),
        )
        ranking = rank_features([a1])
        assert [name for name, _ in ranking] == ["f1", "f0", "f2"]
        assert ranking[-1][1] == 0.0

    def test_ties_alphabetical(self):
        att = shapley_linear_exact(
            make_model([2.0, 2.0], names=("b", "a")),
            np.array([1.0, 1.0]),
            background_of(np.zeros((1, 2)), ("b", "a")),
        )
        ranking = rank_features([att])
        assert [name for name, _ in ranking] == ["a", "b"]

    def test_duplicate_instances_stable(self):
        model = make_model([1.0, 2.0])
        bg = background_of(np.zeros((1, 2)), ("f0", "f1"))
        one = shapley_linear_exact(model, np.array([1.0, 1.0]), bg)
        assert rank_features([one]) == rank_features([one, one, one])

    def test_attribute_rows_consistency(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(size=(12, 3))
        std = standardize(raw)
        y = raw @ np.array([1.0, 0.0, -2.0]) + 0.01 * rng.normal(size=12)
        model = en_fit(
            std.values, y, 0.5, 0.01, feature_names=std.columns, means=std.means, sds=std.sds
        )
        fm = FeatureMatrix(
            row_keys=tuple((f"loc{i}", 1500) for i in range(12)),
            columns=std.columns,
            values=raw,
        )
        atts = attribute_rows(model, fm)
        for att, key in zip(atts, fm.row_keys):
            assert att.key == key
            assert abs(att.base + att.phi.sum() - att.prediction) <= 1e-9
        single = shapley_linear_exact(model, raw[3], fm, key=fm.row_keys[3])
        assert np.allclose(atts[3].phi, single.phi, atol=1e-12)

"""Attribute model predictions to features with Shapley values.

Trains the pipeline on a synthetic world, computes exact attributions for
the linear model, confirms the permutation-sampling estimator agrees, and
prints the feature-importance ranking next to the planted truth.

Run from the repository root:  python demos/04_shapley_attribution.py
"""

import numpy as np

from histgdp.config import RunConfig
from histgdp.explain import (
    attribute_rows,
    rank_features,
    shapley_linear_exact,
    shapley_permutation,
)
from histgdp.pipeline import fit_periods
from histgdp.synthetic import make_synthetic_world

world = make_synthetic_world(
    n_countries=14,
    n_occupations=6,
    period_ids=("late_middle_ages", "early_modern"),
    seed=5,
    n_supra=3,
    true_coefficients={"births.occ01": 0.45, "deaths.occ04": -0.35,
                       "immigrants.total": 0.40},
)
config = RunConfig(alpha_grid=(0.5, 1.0), n_lambda=12, lambda_ratio=1e-2,
                   k_folds=3, seed=1)

fits = {
    fit.period.period_id: fit
    for fit in fit_periods(world.dataset, config, [(world.dataset.source_levels, config.seed)], {})
}
tpm, fm = fits["early_modern"].model, fits["early_modern"].features
labeled = fm.subset(list(tpm.training_keys))
print(f"=== early_modern model: {len(tpm.model.selected_features)} features selected ===")

attributions = attribute_rows(tpm.model, labeled)
print("\n=== Feature importance (mean |phi| over labeled rows) ===")
ranking = rank_features(attributions)
for name, value in ranking[:8]:
    marker = "  <- planted" if name in world.true_features else ""
    print(f"  {name:24s} {value:.4f}{marker}")

print("\n=== One instance in detail ===")
att = attributions[0]
print(f"  instance {att.key}: prediction {att.prediction:.3f} "
      f"= base {att.base:.3f} + sum(phi) {att.phi.sum():+.3f}")
order = np.argsort(-np.abs(att.phi))[:5]
for j in order:
    print(f"    {att.feature_names[j]:24s} phi = {att.phi[j]:+.4f}")

print("\n=== Permutation estimator agrees with the exact values ===")
model = tpm.model
index = {n: i for i, n in enumerate(labeled.columns)}
cols = [index[n] for n in model.feature_names]
raw = labeled.values[:, cols]
x0 = raw[0]


def predict(z):
    return model.intercept + float(((z - model.means) / model.sds) @ model.coefficients)


exact = shapley_linear_exact(model, x0, labeled, key=labeled.row_keys[0])
sampled = shapley_permutation(predict, x0, raw, n_permutations=4000, seed=9,
                              feature_names=model.feature_names)
gap = np.abs(sampled.phi - exact.phi)
print(f"  max |sampled - exact| = {gap.max():.4f}")
print(f"  max standard error    = {sampled.se.max():.4f}")
print(f"  within 3 SE everywhere: {bool(np.all(gap <= 3 * np.maximum(sampled.se, 1e-12)))}")

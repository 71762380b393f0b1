"""Exercise the elastic-net solver: paths, oracles, cross-validation.

Fits a sparse synthetic regression, walks the regularization path, shows
agreement with the OLS and ridge closed forms at the edges of the
(alpha, lambda) square, and lets cross-validation pick the penalty.

Run from the repository root:  python demos/02_elastic_net.py
"""

import numpy as np

from histgdp.elasticnet import en_cv, en_fit, lambda_path
from histgdp.numerics import ols_fit, standardize

rng = np.random.default_rng(7)
n, p = 120, 25
raw = rng.normal(size=(n, p))
std = standardize(raw)
x = std.values
true_beta = np.zeros(p)
true_beta[[2, 9, 17]] = (1.2, -0.8, 0.5)
y = x @ true_beta + 0.3 * rng.normal(size=n)

print("=== Regularization path (alpha = 1, lasso) ===")
path = lambda_path(x, y, alpha=1.0, n_lambda=12, ratio=1e-3)
warm = None
print("  lambda      nonzero  max|beta|")
for lam in path:
    model = en_fit(x, y, 1.0, float(lam), warm_start=warm)
    warm = model.coefficients
    print(f"  {lam:9.3f}  {len(model.selected_features):7d}  {np.abs(model.coefficients).max():9.4f}")

print("\n=== Edge-case oracles ===")
ols = ols_fit(x, y)
at_zero = en_fit(x, y, 0.5, 0.0, tol=1e-12)
print(f"  lambda=0 vs OLS, max coefficient gap: "
      f"{np.abs(at_zero.coefficients - ols.coefficients).max():.2e}")
lam = 4.0
ridge = en_fit(x, y, 0.0, lam, tol=1e-12)
closed = np.linalg.solve(x.T @ x + lam * np.eye(p), x.T @ (y - y.mean()))
print(f"  alpha=0 vs closed-form ridge at lambda={lam}: "
      f"{np.abs(ridge.coefficients - closed).max():.2e}")

print("\n=== Cross-validated selection ===")
cv = en_cv(x, y, alpha_grid=(0.2, 0.5, 1.0), k=5, seed=11, n_lambda=30, lambda_ratio=1e-3)
print(f"  chosen alpha={cv.chosen_alpha}  lambda={cv.chosen_lambda:.4f}")
final = en_fit(x, y, cv.chosen_alpha, cv.chosen_lambda,
               feature_names=std.columns)
print(f"  selected features: {final.selected_features}")
print(f"  true support: col_2, col_9, col_17")

"""Walk through fitting all four estimators on one multicollinear dataset.

Generates a single-common-factor design whose columns are almost collinear,
fits the logistic model by IRLS, and compares the ML coefficients with the
three shrinkage/projection alternatives under rule-selected k, d and r.
"""

import numpy as np

from liulogit import (
    Dataset,
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    choose_d,
    choose_k,
    generate_design,
    generate_response,
    irls_fit,
    newhouse_oman_beta,
    pclr_estimate,
    pcltl_estimate,
    point_estimate,
    select_components,
    spectral_decompose,
)

rng = np.random.default_rng(7)

# heavily correlated design: pairwise correlation 0.98^2 ~ 0.96
n, p, rho = 400, 5, 0.98
X = generate_design(n, p, rho, rng)
beta_true = newhouse_oman_beta(X)
y = generate_response(X, beta_true, rng)

print(f"design: n={n}, p={p}, pairwise correlation ~ {rho**2:.3f}")
print("true coefficients:", np.round(beta_true, 4))

fit = irls_fit(Dataset(X, y))
print(f"\nIRLS converged in {fit.iterations} iterations "
      f"(final step {fit.final_step_norm:.1e})")

decomp = spectral_decompose(X, fit.v_diag)
print("eigenvalues of X'VX:", np.round(decomp.lambdas, 4))
print(f"condition number: {decomp.lambdas[0] / decomp.lambdas[-1]:.1f}")

# component count by cumulative eigenvalue share, then the k and d rules
r = select_components(decomp.lambdas, 0.75)
d = choose_d(decomp.lambdas)
k, clamped = choose_k(decomp.lambdas, decomp.T.T @ fit.beta, d)
params = ShrinkageParams(k=k, d=d, k_source="rule", d_source="rule")
print(f"\nselected r={r}, d={d:.4f}, k={k:.4f}" + (" (clamped)" if clamped else ""))

# every estimator reuses decomp, so X'VX is decomposed once
split = decomp.split(r)
estimates = {
    "ML": point_estimate(fit, X, EstimatorSpec(EstimatorKind.ML), decomp),
    "LTL": point_estimate(fit, X, EstimatorSpec(EstimatorKind.LTL, params=params), decomp),
    "PCLR": pclr_estimate(fit, X, split),
    "PCLTL": pcltl_estimate(fit, X, split, params),
}

print(f"\n{'estimator':<8}{'coefficients':<48}{'||b - beta||':>12}")
for name, estimate in estimates.items():
    err = np.linalg.norm(estimate - beta_true)
    print(f"{name:<8}{np.array2string(np.round(estimate, 3)):<48}{err:>12.4f}")

print("\nThe ML fit is unstable along the small-eigenvalue directions; the")
print("shrinkage estimators trade a little bias for a large variance cut.")

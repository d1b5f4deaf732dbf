"""Compare estimators through their asymptotic mean-squared-error matrices.

Builds a synthetic eigensystem, evaluates the closed-form error matrix of
every estimator, and checks each printed dominance condition against the
direct eigenvalue test of the matrix difference.
"""

import numpy as np

from liulogit import (
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    SpectralDecomposition,
    asymptotic_msem,
    psd_dominates,
    theorem_3_1_condition,
    theorem_3_2_condition,
    theorem_3_3_condition,
)

rng = np.random.default_rng(11)

# an ill-conditioned 4-dimensional information matrix
q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
decomp = SpectralDecomposition(T=q, lambdas=np.array([9.0, 1.2, 0.2, 0.02]))
split = decomp.split(2)
params = ShrinkageParams(k=0.6, d=0.1)

# a coefficient vector mostly inside the retained subspace
beta = 0.9 * decomp.T[:, 0] + 0.1 * decomp.T[:, 3]

print("eigenvalues:", decomp.lambdas, " retained r =", split.r)
print(f"k = {params.k}, d = {params.d}, beta mixes axes 1 and 4\n")

reports = {
    kind: asymptotic_msem(spec, decomp, beta, "true_beta")
    for kind, spec in [
        (EstimatorKind.ML, EstimatorSpec(EstimatorKind.ML)),
        (EstimatorKind.LTL, EstimatorSpec(EstimatorKind.LTL, params=params)),
        (EstimatorKind.PCLR, EstimatorSpec(EstimatorKind.PCLR, r=split.r)),
        (EstimatorKind.PCLTL, EstimatorSpec(EstimatorKind.PCLTL, params=params, r=split.r)),
    ]
}
print(f"{'estimator':<8}{'scalar MSE (trace)':>20}{'||bias||':>12}")
for kind, report in reports.items():
    print(f"{kind.display_name:<8}{report.smse:>20.4f}"
          f"{np.linalg.norm(report.bias):>12.4f}")

print("\ndominance checks (closed-form condition vs direct eigenvalue test):")
v31 = theorem_3_1_condition(beta, split, params)
print(f"  vs ML   : condition value {v31.condition_value:.4f} <= 1 ? "
      f"{v31.holds}, oracle agrees: {v31.psd_oracle_agrees}")
v32 = theorem_3_2_condition(beta, split, params)
print(f"  vs PCLR : ||retained part of beta|| = {v32.condition_value:.4f}, "
      f"zero suffices for superiority -> {v32.holds}, "
      f"oracle agrees: {v32.psd_oracle_agrees}")
v33 = theorem_3_3_condition(beta, split, params)
print(f"  vs LTL  : ||discarded part of beta|| = {v33.condition_value:.4f}, "
      f"zero suffices for superiority -> {v33.holds}, "
      f"oracle agrees: {v33.psd_oracle_agrees}")

direct = psd_dominates(reports[EstimatorKind.ML].msem,
                       reports[EstimatorKind.PCLTL].msem)
print(f"\ndirect test, ML msem - PCLTL msem: smallest eigenvalue "
      f"{direct.condition_value:.6f} -> PCLTL dominates: {direct.holds}")

# moving beta fully into the retained span flips the LTL comparison
beta_in = split.t_r @ (split.t_r.T @ beta)
v33_in = theorem_3_3_condition(beta_in, split, params)
print(f"with beta projected into the retained span, vs LTL: {v33_in.holds} "
      f"(oracle agrees: {v33_in.psd_oracle_agrees})")

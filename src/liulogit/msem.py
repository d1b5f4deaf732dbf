"""Asymptotic bias, covariance and mean-squared-error-matrix analysis.

An estimator T diag(g) T' b_ml with filter factors g
(``estimators.filter_factors``) has asymptotic covariance
``T diag(g^2/lambda) T'``, bias ``T diag(g - 1) T' beta`` and error
matrix ``MSEM = Cov + bias bias'``, whose trace is the scalar MSE.
Estimator A beats estimator B under the matrix criterion when
``MSEM(B) - MSEM(A)`` is nonnegative definite.  Every closed-form
dominance verdict below records a direct eigenvalue test of that
difference, because the conditions of Theorems 3.2 and 3.3 are
sufficient, not necessary: a "does not hold" verdict can sit beside a
difference that is still nonnegative definite.  ``theorem_condition``
gives the verdict of whichever theorem covers a (challenger, incumbent)
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    ComponentSplit,
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    SpectralDecomposition,
)

__all__ = [
    "MsemReport",
    "DominanceVerdict",
    "pcltl_bias",
    "pcltl_covariance",
    "asymptotic_msem",
    "smse",
    "psd_dominates",
    "theorem_3_1_condition",
    "theorem_3_2_condition",
    "theorem_3_3_condition",
    "theorem_condition",
]

# relative floor for "is this symmetric matrix nonnegative definite"
PSD_TOL = 1e-8

# absolute threshold standing in for exact-zero vector conditions
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class MsemReport:
    """Bias vector, covariance, error matrix and its trace for one estimator."""

    estimator: EstimatorSpec
    bias: np.ndarray
    covariance: np.ndarray
    msem: np.ndarray
    smse: float
    beta_source: str

    def __post_init__(self):
        if self.beta_source not in ("true_beta", "plug_in_mle"):
            raise ValueError(f"unknown beta_source {self.beta_source!r}")


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one dominance check.

    ``condition_value`` is the scalar (or vector-norm) the closed-form
    condition compares; for the direct test it is the smallest eigenvalue
    of the symmetrized matrix difference.  ``psd_oracle_agrees`` is set
    when a closed-form verdict was cross-checked against the direct test.
    ``holds`` is None when the theorem's preconditions were violated.
    """

    theorem: str
    condition_value: float
    holds: bool | None
    psd_oracle_agrees: bool | None = None
    precondition_ok: bool = True


def pcltl_bias(beta, split: ComponentSplit, params: ShrinkageParams) -> np.ndarray:
    """Asymptotic bias (-T_tail T_tail' - (d+k) T_r (L_r+kI)^{-1} T_r') beta."""
    spec = EstimatorSpec.of(EstimatorKind.PCLTL, params, split.r)
    return asymptotic_msem(spec, split.decomposition, beta).bias


def pcltl_covariance(split: ComponentSplit, params: ShrinkageParams) -> np.ndarray:
    """Asymptotic covariance, diagonal (l-d)^2 / (l (l+k)^2) on retained axes."""
    spec = EstimatorSpec.of(EstimatorKind.PCLTL, params, split.r)
    return asymptotic_msem(spec, split.decomposition, np.zeros(split.p)).covariance


def asymptotic_msem(
    spec: EstimatorSpec,
    decomp: SpectralDecomposition,
    beta,
    beta_source: str = "plug_in_mle",
) -> MsemReport:
    """Closed-form asymptotic MSEM report for one estimator.

    ``beta`` is the coefficient vector the bias formulas are evaluated at:
    the true coefficients in simulation settings, the plugged-in ML fit in
    data analysis.  ``beta_source`` records which one was supplied.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (decomp.p,):
        raise ValueError("beta length must match the decomposition dimension")
    T, lam = decomp.T, decomp.lambdas
    g = spec.factors(lam)
    cov = (T * (g**2 / lam)) @ T.T
    bias = T @ ((g - 1.0) * (T.T @ beta))
    msem = cov + np.outer(bias, bias)
    return MsemReport(
        estimator=spec,
        bias=bias,
        covariance=cov,
        msem=msem,
        smse=float(np.trace(msem)),
        beta_source=beta_source,
    )


def smse(report: MsemReport) -> float:
    """Scalar mean squared error, the trace of the error matrix."""
    return float(np.trace(report.msem))


def psd_dominates(msem_a, msem_b, strict: bool = False) -> DominanceVerdict:
    """Direct test that ``msem_a - msem_b`` is nonnegative definite.

    A true verdict means the estimator behind ``msem_b`` is at least as
    good as the one behind ``msem_a`` under the matrix criterion: the
    smallest eigenvalue of the difference is at least ``-PSD_TOL`` times
    its scale.  With ``strict=True`` it must clear ``+PSD_TOL`` times the
    scale instead, so knife-edge differences count as not dominating.
    """
    A = np.asarray(msem_a, dtype=float)
    B = np.asarray(msem_b, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrices must be square and of equal shape")
    diff = A - B
    diff = 0.5 * (diff + diff.T)
    eigs = np.linalg.eigvalsh(diff)
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    smallest = float(eigs[0]) if eigs.size else 0.0
    if strict:
        holds = bool(smallest > PSD_TOL * scale)
    else:
        holds = bool(smallest >= -PSD_TOL * scale)
    return DominanceVerdict(
        theorem="direct_psd",
        condition_value=smallest,
        holds=holds,
    )


def _oracle_agreement(holds: bool, msem_incumbent, msem_challenger) -> bool:
    """Direction-matched comparison of a closed-form verdict with the oracle.

    A superiority claim must be confirmed by the tolerance-relaxed test; a
    non-superiority claim must be confirmed by the strict test failing.
    Matching the tolerance direction to the claim keeps exact-arithmetic
    boundary cases (differences that are singular rather than indefinite)
    from being scored as disagreements.
    """
    if holds:
        return bool(psd_dominates(msem_incumbent, msem_challenger).holds)
    return not psd_dominates(msem_incumbent, msem_challenger, strict=True).holds


def _checked_verdict(theorem, value, holds, incumbent, beta, split, params):
    """A closed-form verdict of PCLTL against ``incumbent``, oracle-checked."""
    incumbent_msem, pcltl_msem = (
        asymptotic_msem(
            EstimatorSpec.of(kind, params, split.r), split.decomposition, beta
        ).msem
        for kind in (incumbent, EstimatorKind.PCLTL)
    )
    agrees = _oracle_agreement(holds, incumbent_msem, pcltl_msem)
    return DominanceVerdict(theorem, value, holds, psd_oracle_agrees=agrees)


def theorem_3_1_condition(
    beta,
    split: ComponentSplit,
    params: ShrinkageParams,
) -> DominanceVerdict:
    """Scalar condition for PCLTL to beat ML, requiring d < k and d + k > 0.

    The retained term weights each squared eigen-coordinate of beta by
    (k+d)^2 / (2(k+d) + (k^2-d^2)/lambda); the discarded term weights by
    the tail eigenvalues.  The direct eigenvalue test of the actual MSEM
    difference is always computed and its agreement with the scalar
    condition recorded, so any disagreement is observable data.
    """
    k, d = params.k, params.d
    if not (d < k and d + k > 0.0):
        return DominanceVerdict(
            theorem="T3_1",
            condition_value=float("nan"),
            holds=None,
            precondition_ok=False,
        )
    beta = np.asarray(beta, dtype=float)
    alpha = split.decomposition.T.T @ beta
    alpha_r = alpha[: split.r]
    alpha_tail = alpha[split.r :]
    retained = np.sum(
        (k + d) ** 2 * alpha_r**2 / (2.0 * (k + d) + (k**2 - d**2) / split.lambdas_r)
    )
    discarded = np.sum(split.lambdas_tail * alpha_tail**2)
    value = float(retained + discarded)
    return _checked_verdict(
        "T3_1", value, value <= 1.0, EstimatorKind.ML, beta, split, params
    )


def theorem_3_2_condition(
    beta,
    split: ComponentSplit,
    params: ShrinkageParams,
) -> DominanceVerdict:
    """PCLTL beats PCLR when beta has no retained-space component.

    The condition is sufficient, not necessary: the MSEM difference can be
    singular yet nonnegative definite with a retained component present.
    With T = I, lambda = (4, 2, 0.5), r = 2, k = 1, d = 0.2 and
    beta = (0.3, 0, 0) the closed form says no while ``psd_dominates``
    finds the difference PSD (eigenvalues 0, 0.100, 0.320).  The claim
    concerns proper splits (r < p); at r = p the projection estimator
    coincides with the full ML fit and shrinkage can dominate it outright,
    so only the recorded oracle is informative there.
    """
    beta = np.asarray(beta, dtype=float)
    value = float(np.max(np.abs(split.t_r.T @ beta)))
    return _checked_verdict(
        "T3_2", value, value <= ZERO_TOL, EstimatorKind.PCLR, beta, split, params
    )


def theorem_3_3_condition(
    beta,
    split: ComponentSplit,
    params: ShrinkageParams,
) -> DominanceVerdict:
    """PCLTL beats LTL when beta has no discarded-space component.

    Sufficient, not necessary, as in ``theorem_3_2_condition``: in its
    example, beta = (0, 0, 0.05) makes the difference PSD with eigenvalues
    (0, 0, 0.079).
    """
    beta = np.asarray(beta, dtype=float)
    tail = split.t_tail.T @ beta
    value = float(np.max(np.abs(tail))) if tail.size else 0.0
    return _checked_verdict(
        "T3_3", value, value <= ZERO_TOL, EstimatorKind.LTL, beta, split, params
    )


# Theorems 3.1-3.3 compare PCLTL with its three special cases.  Each entry
# calls its theorem by the module-level name at call time, so a wrapper
# bound to that name (as span tracing binds one) sees the call.
_PAIR_THEOREMS = {
    (EstimatorKind.PCLTL, EstimatorKind.ML): lambda beta, split, params: (
        theorem_3_1_condition(beta, split, params)
    ),
    (EstimatorKind.PCLTL, EstimatorKind.PCLR): lambda beta, split, params: (
        theorem_3_2_condition(beta, split, params)
    ),
    (EstimatorKind.PCLTL, EstimatorKind.LTL): lambda beta, split, params: (
        theorem_3_3_condition(beta, split, params)
    ),
}


def theorem_condition(
    challenger: EstimatorKind, incumbent: EstimatorKind, beta, split, params
) -> DominanceVerdict | None:
    """The pair's theorem verdict, or None when no theorem covers the pair."""
    theorem = _PAIR_THEOREMS.get((challenger, incumbent))
    return None if theorem is None else theorem(beta, split, params)

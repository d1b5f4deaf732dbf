"""Asymptotic bias, covariance and mean-squared-error-matrix analysis.

An estimator T diag(g) T' b_ml with filter factors g
(``estimators.filter_factors``) has, in eigen-coordinates, asymptotic
covariance ``diag(g^2/lambda)`` and bias ``u = (g - 1) T' beta``, so its
error matrix is ``MSEM = T (diag(g^2/lambda) + u u') T'``, whose trace
is the scalar MSE.  Estimator A beats estimator B under the matrix
criterion when ``MSEM(B) - MSEM(A)``, ``T (D + u u' - w w') T'`` with D
diagonal, is nonnegative definite.  Every closed-form dominance verdict
below records a direct eigenvalue test of that difference, because the
conditions of Theorems 3.2 and 3.3 are sufficient, not necessary: a
"does not hold" verdict can sit beside a difference that is still
nonnegative definite.  ``theorem_condition`` gives the verdict of
whichever theorem covers a (challenger, incumbent) pair; a T3.1 verdict
whose precondition fails carries no condition value and no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .estimators import (
    ComponentSplit,
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    SpectralDecomposition,
)
from .model import _as_beta

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


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one dominance check.

    ``condition_value`` is the scalar (or vector-norm) the closed-form
    condition compares; for the direct test it is the smallest eigenvalue
    of the symmetrized matrix difference.  ``psd_oracle_agrees`` is set
    when a closed-form verdict was cross-checked against the direct test.
    ``condition_value`` and ``holds`` are None when the theorem's
    preconditions were violated, which ``precondition_ok`` reports.
    """

    theorem: str
    condition_value: float | None
    holds: bool | None
    psd_oracle_agrees: bool | None = None

    @property
    def precondition_ok(self) -> bool:
        return self.holds is not None


def pcltl_bias(beta, split: ComponentSplit, params: ShrinkageParams) -> np.ndarray:
    """Asymptotic bias (-T_tail T_tail' - (d+k) T_r (L_r+kI)^{-1} T_r') beta."""
    spec = EstimatorSpec.of(EstimatorKind.PCLTL, params, split.r)
    return asymptotic_msem(spec, split.decomposition, beta).bias


def pcltl_covariance(split: ComponentSplit, params: ShrinkageParams) -> np.ndarray:
    """Asymptotic covariance, diagonal (l-d)^2 / (l (l+k)^2) on retained axes."""
    spec = EstimatorSpec.of(EstimatorKind.PCLTL, params, split.r)
    return asymptotic_msem(spec, split.decomposition, np.zeros(split.p)).covariance


def _error_terms(spec: EstimatorSpec, decomp: SpectralDecomposition, beta):
    """Eigen-coordinate variances g^2/lambda and bias u = (g - 1) T' beta."""
    g = spec.factors(decomp.lambdas)
    return g**2 / decomp.lambdas, (g - 1.0) * (decomp.T.T @ beta)


def asymptotic_msem(
    spec: EstimatorSpec,
    decomp: SpectralDecomposition,
    beta,
) -> MsemReport:
    """Closed-form asymptotic MSEM report for one estimator.

    ``beta`` is the coefficient vector the bias formulas are evaluated at:
    the true coefficients in simulation settings, the plugged-in ML fit in
    data analysis.  The caller records which (``compare``: ``beta_source``).
    An MSEM that overflows (a huge d or beta) raises ``DecompositionError``
    naming the estimator, and no RuntimeWarning.
    """
    beta = _as_beta(beta, (decomp.p,))
    with np.errstate(over="ignore", invalid="ignore"):
        variances, u = _error_terms(spec, decomp, beta)
        cov = (decomp.T * variances) @ decomp.T.T
        bias = decomp.T @ u
        msem = cov + np.outer(bias, bias)
    if not np.all(np.isfinite(msem)):
        raise DecompositionError(f"the MSEM of {spec.kind.display_name} is not finite")
    return MsemReport(
        estimator=spec,
        bias=bias,
        covariance=cov,
        msem=msem,
        smse=float(np.trace(msem)),
    )


def smse(report: MsemReport) -> float:
    """Scalar mean squared error, the trace of the error matrix."""
    return report.smse


def _smallest_eigenvalue(sym) -> tuple[float, float]:
    """Smallest eigenvalue of a symmetric matrix, and its largest magnitude."""
    eigs = np.linalg.eigvalsh(sym)
    return (float(eigs[0]), float(np.max(np.abs(eigs)))) if eigs.size else (0.0, 0.0)


def psd_dominates(msem_a, msem_b) -> DominanceVerdict:
    """Direct test that ``msem_a - msem_b`` is nonnegative definite.

    A true verdict means the estimator behind ``msem_b`` is at least as
    good as the one behind ``msem_a`` under the matrix criterion: the
    difference's smallest eigenvalue is at least ``-PSD_TOL`` times its scale.
    """
    A = np.asarray(msem_a, dtype=float)
    B = np.asarray(msem_b, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrices must be square and of equal shape")
    diff = A - B
    smallest, scale = _smallest_eigenvalue(0.5 * (diff + diff.T))
    return DominanceVerdict("direct_psd", smallest, bool(smallest >= -PSD_TOL * scale))


def _checked_verdict(theorem, value, holds, incumbent, beta, split, params):
    """A closed-form verdict of PCLTL against ``incumbent``, oracle-checked.

    The oracle takes the eigenvalues of MSEM(incumbent) - MSEM(PCLTL) as
    those of ``D + u u' - w w'``, since T is orthogonal.  A superiority
    claim must reach ``-PSD_TOL`` times their scale, a denial must not
    exceed ``+PSD_TOL`` times it, so a singular (not indefinite)
    difference is not scored as a disagreement.
    """
    (var_inc, u), (var_pcltl, w) = (
        _error_terms(EstimatorSpec.of(kind, params, split.r), split.decomposition, beta)
        for kind in (incumbent, EstimatorKind.PCLTL)
    )
    smallest, scale = _smallest_eigenvalue(
        np.diag(var_inc - var_pcltl) + np.outer(u, u) - np.outer(w, w)
    )
    agrees = smallest >= -PSD_TOL * scale if holds else smallest <= PSD_TOL * scale
    return DominanceVerdict(theorem, value, holds, agrees)


def _span_verdict(theorem, basis, incumbent, beta, split, params):
    """PCLTL against ``incumbent`` when beta has no component on ``basis``."""
    beta = _as_beta(beta, (split.p,))
    value = float(np.max(np.abs(basis.T @ beta), initial=0.0))
    return _checked_verdict(
        theorem, value, value <= ZERO_TOL, incumbent, beta, split, params
    )


def theorem_3_1_condition(
    beta,
    split: ComponentSplit,
    params: ShrinkageParams,
) -> DominanceVerdict:
    """Scalar condition for PCLTL to beat ML, requiring d < k and d + k > 0.

    The retained term weights each squared eigen-coordinate of beta by
    (k+d) / (2 + (k-d)/lambda), the published (k+d)^2 / (2(k+d) +
    (k^2-d^2)/lambda) divided through by k + d > 0, as k^2 - d^2 =
    (k+d)(k-d); squaring neither k nor d, it does not overflow at a large
    finite k.  The discarded term weights by the tail eigenvalues.  The
    direct eigenvalue test of the actual MSEM difference is always computed
    and its agreement with the scalar condition recorded, so any
    disagreement is observable data.
    """
    beta = _as_beta(beta, (split.p,))
    k, d = params.k, params.d
    if not (d < k and d + k > 0.0):
        return DominanceVerdict("T3_1", condition_value=None, holds=None)
    alpha = split.decomposition.T.T @ beta
    alpha_r = alpha[: split.r]
    alpha_tail = alpha[split.r :]
    retained = np.sum((k + d) * alpha_r**2 / (2.0 + (k - d) / split.lambdas_r))
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
    return _span_verdict("T3_2", split.t_r, EstimatorKind.PCLR, beta, split, params)


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
    return _span_verdict("T3_3", split.t_tail, EstimatorKind.LTL, beta, split, params)


def theorem_condition(
    challenger: EstimatorKind, incumbent: EstimatorKind, beta, split, params
) -> DominanceVerdict | None:
    """The pair's theorem verdict, or None when no theorem covers the pair.

    Theorems 3.1-3.3 compare PCLTL with its three special cases.  The
    table is built at call time, so a wrapper bound to a theorem's
    module-level name (as span tracing binds one) sees the call.
    """
    if challenger is not EstimatorKind.PCLTL:
        return None
    theorem = {
        EstimatorKind.ML: theorem_3_1_condition,
        EstimatorKind.PCLR: theorem_3_2_condition,
        EstimatorKind.LTL: theorem_3_3_condition,
    }.get(incumbent)
    return None if theorem is None else theorem(beta, split, params)

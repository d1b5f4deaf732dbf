"""Shrinkage and principal-component estimators for the logistic model.

All four estimators are one spectral filter of the maximum-likelihood
coefficients b_ml, the IRLS fixed point ``fit.beta``.  With the weights V
of the converged fit and X'VX = T diag(lambda) T' (``T`` orthonormal,
``lambda`` descending),

    estimate = T diag(g) T' b_ml

where ``filter_factors`` gives g on the r leading axes and the p - r
dropped ones:

    estimator   retained axes          dropped axes
    ML          1                      (r = p)
    LTL         (lambda-d)/(lambda+k)  (r = p)
    PCLR        1                      0
    PCLTL       (lambda-d)/(lambda+k)  0

with biasing parameters k > 0 and d: ``EstimatorKind.shrinks`` and
``EstimatorKind.truncates`` say which of the two filters an estimator applies.
PCLTL contains the other three as the special cases r = p, k -> 0 with
d = 0, and both at once.  The asymptotic error matrices in ``msem`` are
built from the same factors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError
from .model import BatchFit, LogisticFit, stacked_gram

__all__ = [
    "SpectralDecomposition",
    "ComponentSplit",
    "ShrinkageParams",
    "EstimatorKind",
    "EstimatorSpec",
    "KSelection",
    "BatchDecomposition",
    "spectral_decompose",
    "spectral_decompose_batch",
    "select_components",
    "mle_estimate",
    "ltl_estimate",
    "pclr_estimate",
    "pcltl_estimate",
    "choose_d",
    "choose_k",
    "choose_k_batch",
    "select_parameters",
    "filter_factors",
    "point_estimate",
    "batch_estimates",
]

# floor applied to squared ML eigencoordinates inside the k rule; the
# arithmetic-mean formula is undefined at alpha_j = 0
ALPHA_FLOOR = 1e-8

# smallest admissible k when the arithmetic-mean rule turns out nonpositive
K_MIN = 1e-4


@dataclass(frozen=True)
class SpectralDecomposition:
    """Descending eigenpairs of the weighted cross-product matrix X'VX.

    Columns of ``T`` are sign-fixed so the largest-magnitude entry of each
    eigenvector is positive; ties in eigenvalues keep LAPACK's order.
    """

    T: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        if lam.shape != (T.shape[0],):
            raise ValueError("lambdas length must match T")
        if np.any(np.diff(lam) > 0):
            raise ValueError("lambdas must be sorted descending")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "lambdas", lam)

    @property
    def p(self) -> int:
        return self.lambdas.shape[0]

    def split(self, r: int) -> "ComponentSplit":
        return ComponentSplit(self, r)

    def reconstruct(self) -> np.ndarray:
        """T diag(lambda) T', the matrix that was decomposed."""
        return (self.T * self.lambdas) @ self.T.T


@dataclass(frozen=True)
class ComponentSplit:
    """A spectral decomposition cut after the r leading components."""

    decomposition: SpectralDecomposition
    r: int

    def __post_init__(self):
        if not (1 <= self.r <= self.decomposition.p):
            raise ValueError(f"r must lie in [1, {self.decomposition.p}], got {self.r}")

    @property
    def p(self) -> int:
        return self.decomposition.p

    @property
    def t_r(self) -> np.ndarray:
        return self.decomposition.T[:, : self.r]

    @property
    def lambdas_r(self) -> np.ndarray:
        return self.decomposition.lambdas[: self.r]

    @property
    def t_tail(self) -> np.ndarray:
        return self.decomposition.T[:, self.r :]

    @property
    def lambdas_tail(self) -> np.ndarray:
        return self.decomposition.lambdas[self.r :]


@dataclass(frozen=True)
class ShrinkageParams:
    """Biasing parameters k > 0 and d, with provenance per parameter."""

    k: float
    d: float
    k_source: str = "user"
    d_source: str = "user"

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ValueError("k must be positive")
        if not np.isfinite(self.d):
            raise ValueError("d must be finite")
        for source in (self.k_source, self.d_source):
            if source not in ("user", "rule"):
                raise ValueError(f"unknown provenance {source!r}")


class EstimatorKind(enum.Enum):
    ML = "ml"
    LTL = "ltl"
    PCLR = "pclr"
    PCLTL = "pcltl"

    @property
    def display_name(self) -> str:
        return {"ml": "MLE", "ltl": "LTL", "pclr": "PCLR", "pcltl": "PCLTL"}[self.value]

    @property
    def shrinks(self) -> bool:
        """Whether the retained axes are shrunk by k and d (LTL, PCLTL)."""
        return self in (EstimatorKind.LTL, EstimatorKind.PCLTL)

    @property
    def truncates(self) -> bool:
        """Whether only the r leading axes are kept (PCLR, PCLTL)."""
        return self in (EstimatorKind.PCLR, EstimatorKind.PCLTL)


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to evaluate, with its required inputs attached."""

    kind: EstimatorKind
    params: ShrinkageParams | None = None
    r: int | None = None

    def __post_init__(self):
        name = self.kind.display_name
        for needed, value, field in (
            (self.kind.shrinks, self.params, "params"),
            (self.kind.truncates, self.r, "r"),
        ):
            if needed != (value is not None):
                raise ValueError(
                    f"{name} requires {field}" if needed else f"{name} takes no {field}"
                )
        if self.r is not None and self.r < 1:
            raise ValueError("r must be at least 1")

    @classmethod
    def of(cls, kind: EstimatorKind, params=None, r=None) -> "EstimatorSpec":
        """The spec of ``kind``, keeping only the inputs that ``kind`` reads."""
        return cls(kind, params if kind.shrinks else None, r if kind.truncates else None)

    def factors(self, lambdas) -> np.ndarray:
        """``filter_factors`` of this estimator at its own r, k and d."""
        k, d = (self.params.k, self.params.d) if self.params else (None, None)
        return filter_factors(self.kind, lambdas, self.r, k, d)


class KSelection(NamedTuple):
    value: float
    clamped: bool


class BatchDecomposition(NamedTuple):
    """Descending, sign-fixed eigenpairs of a stack of X'VX matrices.

    ``T`` is (b, p, p) and ``lambdas`` (b, p); row 0 of a one-row stack is
    what ``spectral_decompose`` returns.  ``positive_definite`` is False
    for the rows where ``spectral_decompose`` raises
    ``DecompositionError``; the eigenvalues of a non-finite X'VX are NaN.
    """

    T: np.ndarray
    lambdas: np.ndarray
    positive_definite: np.ndarray


def spectral_decompose(X, v_diag) -> SpectralDecomposition:
    """Eigendecompose X'VX into descending, sign-fixed eigenpairs.

    The one-row case of ``spectral_decompose_batch``.
    """
    row = spectral_decompose_batch(X, np.asarray(v_diag, dtype=float)[None])
    smallest = float(row.lambdas[0, -1])
    if np.isnan(smallest):
        raise DecompositionError("X'VX contains non-finite entries")
    if not row.positive_definite[0]:
        raise DecompositionError(
            f"X'VX not positive definite (smallest eigenvalue {smallest:.3e})",
            smallest_eigenvalue=smallest,
        )
    return SpectralDecomposition(T=row.T[0], lambdas=row.lambdas[0])


def spectral_decompose_batch(X, v_rows) -> BatchDecomposition:
    """Descending, sign-fixed eigenpairs of X'VX for every weight row of v_rows.

    The package's one eigendecomposition: X'VX is formed by
    ``stacked_gram`` for each row of v_rows (b, n) and all rows share one
    stacked ``eigh``.
    """
    A = stacked_gram(np.asarray(X, dtype=float), np.asarray(v_rows, dtype=float))
    A = 0.5 * (A + A.swapaxes(-1, -2))
    finite = np.all(np.isfinite(A), axis=(-2, -1))
    # non-finite rows are decomposed as the identity, then lose their
    # eigenvalues
    A[~finite] = np.eye(A.shape[-1])
    lam, vec = np.linalg.eigh(A)
    # descending, ties in LAPACK's order; each eigenvector's largest-magnitude
    # entry made positive
    order = np.argsort(-lam, axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=-1)
    vec = np.take_along_axis(vec, order[..., None, :], axis=-1)
    anchor = np.argmax(np.abs(vec), axis=-2)
    vec = vec * np.sign(np.take_along_axis(vec, anchor[..., None, :], axis=-2))
    lam[~finite] = np.nan
    return BatchDecomposition(T=vec, lambdas=lam, positive_definite=lam[:, -1] > 0.0)


def select_components(lambdas, ptv_threshold: float):
    """Smallest r whose leading eigenvalue share reaches the threshold.

    ``lambdas`` may carry leading batch axes; r is then an integer array.
    """
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam <= 0.0) or np.any(np.diff(lam, axis=-1) > 0):
        raise ValueError("lambdas must be positive and sorted descending")
    if not (0.0 < ptv_threshold <= 1.0):
        raise ValueError("ptv_threshold must lie in (0, 1]")
    shares = np.cumsum(lam, axis=-1) / np.sum(lam, axis=-1, keepdims=True)
    # shares ascend, so the count below the threshold is its left insertion point
    r = np.count_nonzero(shares < ptv_threshold, axis=-1) + 1
    return int(r) if r.ndim == 0 else r


def filter_factors(kind: EstimatorKind, lambdas, r=None, k=None, d=None) -> np.ndarray:
    """Filter factors g of one estimator: its estimate is T diag(g) T' b_ml.

    ``lambdas`` (..., p) are the descending eigenvalues of X'VX.  ``r``,
    ``k`` and ``d`` are scalars or arrays of the leading batch shape; k and
    d are read only when ``kind.shrinks``, r only when ``kind.truncates``.
    """
    lam = np.asarray(lambdas, dtype=float)
    g = np.ones_like(lam)
    if kind.shrinks:
        k = np.asarray(k, dtype=float)[..., None]
        d = np.asarray(d, dtype=float)[..., None]
        g = (lam - d) / (lam + k)
    if kind.truncates:
        p = lam.shape[-1]
        r = np.asarray(r)
        if np.any((r < 1) | (r > p)):
            raise ValueError(f"r must lie in [1, {p}], got {r}")
        g = np.where(np.arange(p) < r[..., None], g, 0.0)
    return g


def _apply_filter(T, g, b) -> np.ndarray:
    """T diag(g) T' b over any leading batch axes."""
    coords = g * (T.swapaxes(-1, -2) @ b[..., None])[..., 0]
    return (T @ coords[..., None])[..., 0]


def point_estimate(
    fit: LogisticFit,
    X,
    spec: EstimatorSpec,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """The estimate T diag(g) T' b_ml of ``spec`` for one converged fit.

    ``decomp`` is the eigendecomposition of X'VX at ``fit.v_diag``; when it
    is not given it is computed from ``X``, so callers that evaluate
    several estimators on one fit pass it to decompose once.
    """
    if not fit.converged:
        raise ValueError("estimator requires a converged fit")
    if decomp is None:
        decomp = spectral_decompose(X, fit.v_diag)
    return _apply_filter(decomp.T, spec.factors(decomp.lambdas), fit.beta)


def mle_estimate(fit: LogisticFit, X) -> np.ndarray:
    """ML coefficients: the filter with g = 1 applied to ``fit.beta``."""
    return point_estimate(fit, X, EstimatorSpec(EstimatorKind.ML))


def ltl_estimate(fit: LogisticFit, X, params: ShrinkageParams) -> np.ndarray:
    """Liu-type coefficients (X'VX + kI)^{-1} (X'VX - dI) b_ml."""
    return point_estimate(fit, X, EstimatorSpec(EstimatorKind.LTL, params=params))


def pclr_estimate(fit: LogisticFit, X, split: ComponentSplit) -> np.ndarray:
    """Principal-component coefficients T_r T_r' b_ml."""
    spec = EstimatorSpec(EstimatorKind.PCLR, r=split.r)
    return point_estimate(fit, X, spec, split.decomposition)


def pcltl_estimate(
    fit: LogisticFit, X, split: ComponentSplit, params: ShrinkageParams
) -> np.ndarray:
    """Retained-subspace Liu-type coefficients T_r (L_r+kI)^{-1} (L_r-dI) T_r' b_ml."""
    spec = EstimatorSpec(EstimatorKind.PCLTL, params=params, r=split.r)
    return point_estimate(fit, X, spec, split.decomposition)


def choose_d(lambdas):
    """Rule-based d = min_j lambda_j/(1+lambda_j) / 2, always in (0, 1/2).

    ``lambdas`` may carry leading batch axes; d is then an array.
    """
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("lambdas must be positive")
    d = 0.5 * np.min(lam / (1.0 + lam), axis=-1)
    return float(d) if d.ndim == 0 else d


def choose_k(lambdas, alpha_hat, d: float) -> KSelection:
    """Arithmetic-mean k rule over eigencoordinates of the ML fit.

    k = mean_j (lambda_j - d*(1 + lambda_j*alpha_j^2)) / (lambda_j*alpha_j^2),
    with |alpha_j| floored at ``ALPHA_FLOOR`` to avoid division blow-up.  A
    nonpositive result is clamped to ``K_MIN`` and flagged.
    ``choose_k_batch`` applies the same rule to many fits at once.
    """
    value, clamped = choose_k_batch(lambdas, alpha_hat, d)
    return KSelection(float(value), bool(clamped))


def choose_k_batch(lambdas, alpha_hat, d) -> KSelection:
    """``choose_k`` over leading batch axes of lambdas, alpha_hat and d.

    Both fields of the result are arrays of the batch shape.
    """
    lam = np.asarray(lambdas, dtype=float)
    alpha = np.asarray(alpha_hat, dtype=float)
    if lam.shape != alpha.shape:
        raise ValueError("lambdas and alpha_hat must have equal length")
    if np.any(lam <= 0.0):
        raise ValueError("lambdas must be positive")
    d = np.asarray(d, dtype=float)[..., None]
    alpha_sq = np.maximum(alpha**2, ALPHA_FLOOR**2)
    k = np.mean((lam - d * (1.0 + lam * alpha_sq)) / (lam * alpha_sq), axis=-1)
    clamped = (k <= 0.0) | ~np.isfinite(k)
    return KSelection(np.where(clamped, K_MIN, k), clamped)


def select_parameters(
    decomp, beta, ptv_threshold: float, *, r=None, k=None, d=None, min_components=1
):
    """r, k and d for one fit or a stack, each by its rule unless given.

    r is ``select_components`` floored at ``min_components`` and capped at
    p, d is ``choose_d``, and k is ``choose_k_batch`` at that d and the ML
    eigencoordinates T'beta of ``beta`` (..., p).  ``decomp`` is a
    ``SpectralDecomposition`` or a ``BatchDecomposition``.  Returns (r, k,
    d, k_clamped) broadcast to its batch shape; a given k is never clamped.
    """
    lam = decomp.lambdas
    p = lam.shape[-1]
    if r is None:
        r = np.clip(select_components(lam, ptv_threshold), min_components, p)
    elif not 1 <= r <= p:
        raise ValueError(f"r must lie in [1, {p}]")
    if d is None:
        d = choose_d(lam)
    clamped = False
    if k is None:
        alpha = (decomp.T.swapaxes(-1, -2) @ np.asarray(beta)[..., None])[..., 0]
        k, clamped = choose_k_batch(lam, alpha, d)
    return tuple(np.broadcast_to(value, lam.shape[:-1]) for value in (r, k, d, clamped))


def batch_estimates(fit: BatchFit, decomp: BatchDecomposition, r, k, d) -> dict:
    """The four estimators for a stack of converged fits, row by row.

    Row i is ``point_estimate`` for that row's fit and eigendecomposition,
    component count ``r[i]`` and parameters ``k[i]``, ``d[i]``; ``decomp``
    already carries every X'VX, so no design matrix is needed.
    """
    return {
        kind: _apply_filter(
            decomp.T, filter_factors(kind, decomp.lambdas, r, k, d), fit.beta
        )
        for kind in EstimatorKind
    }

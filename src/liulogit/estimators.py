"""Shrinkage and principal-component estimators for the logistic model.

All estimators are one-shot plug-ins evaluated at the weights ``V`` and
working response ``z`` of a converged maximum-likelihood fit:

    ML     (X'VX)^{-1} X'Vz
    LTL    (X'VX + kI)^{-1} (X'Vz - d*b_ml)                    k > 0
    PCLR   T_r (T_r'X'VX T_r)^{-1} T_r'X'Vz  =  T_r T_r' b_ml
    PCLTL  T_r (L_r + kI)^{-1} (L_r - dI) L_r^{-1} T_r'X'Vz

with ``T`` the orthonormal eigenvectors of X'VX and ``L = diag(lambda)``
its descending eigenvalues.  PCLTL contains the other three as the special
cases r = p, k -> 0 / d = 0, and both at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, SingularSystemError
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


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to evaluate, with its required inputs attached."""

    kind: EstimatorKind
    params: ShrinkageParams | None = None
    r: int | None = None

    def __post_init__(self):
        needs_params = self.kind in (EstimatorKind.LTL, EstimatorKind.PCLTL)
        if needs_params != (self.params is not None):
            raise ValueError(
                f"{self.kind.display_name} requires params"
                if needs_params
                else f"{self.kind.display_name} takes no params"
            )
        needs_r = self.kind in (EstimatorKind.PCLR, EstimatorKind.PCLTL)
        if needs_r != (self.r is not None):
            raise ValueError(
                f"{self.kind.display_name} requires r"
                if needs_r
                else f"{self.kind.display_name} takes no r"
            )
        if self.r is not None and self.r < 1:
            raise ValueError("r must be at least 1")


class KSelection(NamedTuple):
    value: float
    clamped: bool


class BatchDecomposition(NamedTuple):
    """Descending, sign-fixed eigenpairs of a stack of X'VX matrices.

    ``T`` is (b, p, p) and ``lambdas`` (b, p), row for row what
    ``spectral_decompose`` returns; ``positive_definite`` is False for the
    rows where ``spectral_decompose`` raises ``DecompositionError``.
    """

    T: np.ndarray
    lambdas: np.ndarray
    positive_definite: np.ndarray


def _descending_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of one symmetric matrix or a stack of them (last two axes).

    Eigenvalues come out descending, ties in LAPACK's order; each
    eigenvector's largest-magnitude entry is made positive.
    """
    lam, vec = np.linalg.eigh(A)
    order = np.argsort(-lam, axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=-1)
    vec = np.take_along_axis(vec, order[..., None, :], axis=-1)
    anchor = np.argmax(np.abs(vec), axis=-2)
    flip = np.sign(np.take_along_axis(vec, anchor[..., None, :], axis=-2))
    return lam, vec * flip


def spectral_decompose(X, v_diag) -> SpectralDecomposition:
    """Eigendecompose X'VX into descending, sign-fixed eigenpairs."""
    X = np.asarray(X, dtype=float)
    v = np.asarray(v_diag, dtype=float)
    A = (X * v[:, None]).T @ X
    A = 0.5 * (A + A.T)
    if not np.all(np.isfinite(A)):
        raise DecompositionError("X'VX contains non-finite entries")
    lam, vec = _descending_eigh(A)
    if lam[-1] <= 0.0:
        raise DecompositionError(
            f"X'VX not positive definite (smallest eigenvalue {lam[-1]:.3e})",
            smallest_eigenvalue=float(lam[-1]),
        )
    return SpectralDecomposition(T=vec, lambdas=lam)


def spectral_decompose_batch(X, v_rows) -> BatchDecomposition:
    """``spectral_decompose`` for every weight row of v_rows (b, n) at once.

    X'VX is formed by ``stacked_gram`` and all rows share one stacked
    ``eigh``.
    """
    A = stacked_gram(np.asarray(X, dtype=float), np.asarray(v_rows, dtype=float))
    A = 0.5 * (A + A.swapaxes(-1, -2))
    finite = np.all(np.isfinite(A), axis=(-2, -1))
    # non-finite rows are decomposed as the identity and then flagged
    A[~finite] = np.eye(X.shape[1])
    lam, vec = _descending_eigh(A)
    return BatchDecomposition(
        T=vec, lambdas=lam, positive_definite=finite & (lam[:, -1] > 0.0)
    )


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


def _weighted_products(fit: LogisticFit, X) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    gram = (X * fit.v_diag[:, None]).T @ X
    rhs = X.T @ (fit.v_diag * fit.z)
    return gram, rhs


def _require_converged(fit: LogisticFit):
    if not fit.converged:
        raise ValueError("estimator requires a converged fit")


def mle_estimate(fit: LogisticFit, X) -> np.ndarray:
    """Closed-form ML coefficients (X'VX)^{-1} X'Vz at the fit's V and z."""
    _require_converged(fit)
    gram, rhs = _weighted_products(fit, X)
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("X'VX singular in ML closed form") from exc


def ltl_estimate(fit: LogisticFit, X, params: ShrinkageParams) -> np.ndarray:
    """Liu-type coefficients (X'VX + kI)^{-1} (X'Vz - d*b_ml)."""
    _require_converged(fit)
    gram, rhs = _weighted_products(fit, X)
    shifted = gram + params.k * np.eye(gram.shape[0])
    return np.linalg.solve(shifted, rhs - params.d * fit.beta)


def pclr_estimate(fit: LogisticFit, X, split: ComponentSplit) -> np.ndarray:
    """Principal-component coefficients T_r (T_r'X'VX T_r)^{-1} T_r'X'Vz.

    The r-by-r inner matrix is diagonal in the eigenbasis, so the solve
    reduces to an eigenvalue division.
    """
    _require_converged(fit)
    _, rhs = _weighted_products(fit, X)
    coords = (split.t_r.T @ rhs) / split.lambdas_r
    return split.t_r @ coords


def pcltl_estimate(
    fit: LogisticFit,
    X,
    split: ComponentSplit,
    params: ShrinkageParams,
    method: str = "eigen",
) -> np.ndarray:
    """Liu-type shrinkage applied inside the retained component subspace.

    ``method="eigen"`` divides by the diagonal reduced system directly;
    ``method="matrix"`` evaluates the defining dense-matrix expression.
    Both paths agree to floating-point roundoff.
    """
    _require_converged(fit)
    gram, rhs = _weighted_products(fit, X)
    t_r = split.t_r
    if method == "eigen":
        lam = split.lambdas_r
        coords = (lam - params.d) / ((lam + params.k) * lam) * (t_r.T @ rhs)
        return t_r @ coords
    if method == "matrix":
        reduced = t_r.T @ gram @ t_r
        eye = np.eye(split.r)
        inner = np.linalg.solve(reduced, t_r.T @ rhs)
        inner = (reduced - params.d * eye) @ inner
        return t_r @ np.linalg.solve(reduced + params.k * eye, inner)
    raise ValueError(f"unknown method {method!r}")


def choose_d(lambdas):
    """Rule-based d = min_j lambda_j/(1+lambda_j) / 2, always in (0, 1/2).

    ``lambdas`` may carry leading batch axes; d is then an array.
    """
    lam = np.asarray(lambdas, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("lambdas must be positive")
    d = 0.5 * np.min(lam / (1.0 + lam), axis=-1)
    return float(d) if d.ndim == 0 else d


def choose_k(lambdas, alpha_hat, d: float, floor: float = ALPHA_FLOOR) -> KSelection:
    """Arithmetic-mean k rule over eigencoordinates of the ML fit.

    k = mean_j (lambda_j - d*(1 + lambda_j*alpha_j^2)) / (lambda_j*alpha_j^2),
    with |alpha_j| floored to avoid division blow-up.  A nonpositive result
    is clamped to ``K_MIN`` and flagged.  ``choose_k_batch`` applies the
    same rule to many fits at once.
    """
    value, clamped = choose_k_batch(lambdas, alpha_hat, d, floor)
    return KSelection(float(value), bool(clamped))


def choose_k_batch(lambdas, alpha_hat, d, floor: float = ALPHA_FLOOR) -> KSelection:
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
    alpha_sq = np.maximum(alpha**2, floor**2)
    k = np.mean((lam - d * (1.0 + lam * alpha_sq)) / (lam * alpha_sq), axis=-1)
    clamped = (k <= 0.0) | ~np.isfinite(k)
    return KSelection(np.where(clamped, K_MIN, k), clamped)


def point_estimate(fit: LogisticFit, X, spec: EstimatorSpec) -> np.ndarray:
    """Dispatch a single EstimatorSpec to the matching estimator."""
    if spec.kind is EstimatorKind.ML:
        return mle_estimate(fit, X)
    if spec.kind is EstimatorKind.LTL:
        return ltl_estimate(fit, X, spec.params)
    decomp = spectral_decompose(X, fit.v_diag)
    split = decomp.split(spec.r)
    if spec.kind is EstimatorKind.PCLR:
        return pclr_estimate(fit, X, split)
    if spec.kind is EstimatorKind.PCLTL:
        return pcltl_estimate(fit, X, split, spec.params)
    raise ValueError(f"unknown estimator kind {spec.kind!r}")


def batch_estimates(
    fit: BatchFit, X, decomp: BatchDecomposition, r, k, d
) -> dict:
    """The four estimators for a stack of converged fits, row by row.

    Row i matches ML = ``fit.beta``, ``ltl_estimate``, ``pclr_estimate`` and
    ``pcltl_estimate`` for that row's fit, eigendecomposition, component
    count ``r[i]`` and parameters ``k[i]``, ``d[i]``, to roundoff.  Each is
    a filter on the eigen-coordinates c = T'X'Vz, using
    (X'VX + kI)^{-1} = T diag(1/(lambda+k)) T':

        LTL    T diag(1/(lambda+k)) (c - d T'b_ml)
        PCLR   T diag(1/lambda on the r leading axes, 0 after) c
        PCLTL  T diag((lambda-d)/((lambda+k) lambda) on the r leading axes) c
    """
    X = np.asarray(X, dtype=float)
    T, lam = decomp.T, decomp.lambdas
    Tt = T.swapaxes(-1, -2)
    rhs = np.matmul(X.T, (fit.v_diag * fit.z)[..., None])
    coords = (Tt @ rhs)[..., 0]
    alpha = (Tt @ fit.beta[..., None])[..., 0]
    k = np.asarray(k, dtype=float)[:, None]
    d = np.asarray(d, dtype=float)[:, None]
    retained = np.arange(lam.shape[-1]) < np.asarray(r)[:, None]

    def back(filtered):
        return (T @ filtered[..., None])[..., 0]

    return {
        EstimatorKind.ML: fit.beta,
        EstimatorKind.LTL: back((coords - d * alpha) / (lam + k)),
        EstimatorKind.PCLR: back(np.where(retained, coords / lam, 0.0)),
        EstimatorKind.PCLTL: back(
            np.where(retained, (lam - d) / ((lam + k) * lam) * coords, 0.0)
        ),
    }

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

from .errors import DecompositionError, SingularSystemError
from .model import (
    BatchFit,
    LogisticFit,
    _as_array,
    _as_beta,
    _as_count,
    _design_map,
    _refuse_singular,
    irls_fit_batch,
)

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

    ``T`` is (..., p, p) and ``lambdas`` (..., p) over any leading batch
    axes.  Columns of ``T`` are sign-fixed so the largest-magnitude entry
    of each eigenvector is positive; ties keep LAPACK's order.
    """

    T: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        if T.ndim < 2 or T.shape[-2] != T.shape[-1]:
            raise ValueError("T must be square")
        lam = _as_array(self.lambdas, "lambdas", T.shape[:-1])
        if np.any(np.diff(lam, axis=-1) > 0):
            raise ValueError("lambdas must be sorted descending")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "lambdas", lam)

    @property
    def p(self) -> int:
        return self.lambdas.shape[-1]

    @property
    def positive_definite(self):
        """Per system: lambda_min > 10 p eps lambda_max, a scale-relative test.

        A smaller lambda_min is rounding, not evidence of a positive definite
        X'VX: it is what a rank-deficient X'VX (collinear columns) or one
        conditioned beyond 1/(10 p eps) (badly scaled columns) decomposes
        to.  A repeated column's X'VX has decomposed to lambda_min up to
        about 3.3 eps lambda_max (at p = 2) with the packed product, and up
        to 3.6 eps lambda_max, never above 0.74 p eps lambda_max, with the
        dense one.  False for the NaNs of a non-finite X'VX.
        """
        lam = self.lambdas
        return lam[..., -1] > 10 * self.p * np.finfo(float).eps * lam[..., 0]

    def select(self, rows) -> "SpectralDecomposition":
        """The systems of the given rows (index, index array or boolean mask)."""
        return SpectralDecomposition(self.T[rows], self.lambdas[rows])

    def split(self, r: int) -> "ComponentSplit":
        return ComponentSplit(self, r)

    def reconstruct(self) -> np.ndarray:
        """T diag(lambda) T', the matrix that was decomposed."""
        return (self.T * self.lambdas[..., None, :]) @ self.T.swapaxes(-1, -2)


@dataclass(frozen=True)
class ComponentSplit:
    """A spectral decomposition cut after the r leading components."""

    decomposition: SpectralDecomposition
    r: int

    def __post_init__(self):
        # one r for every system of a stack: the slices [..., :r] take a scalar
        if np.ndim(_as_count(self.r, "r", 1, self.decomposition.p)):
            raise ValueError(f"r must be one integer, got {self.r!r}")

    @property
    def p(self) -> int:
        return self.decomposition.p

    @property
    def t_r(self) -> np.ndarray:
        return self.decomposition.T[..., : self.r]

    @property
    def lambdas_r(self) -> np.ndarray:
        return self.decomposition.lambdas[..., : self.r]

    @property
    def t_tail(self) -> np.ndarray:
        return self.decomposition.T[..., self.r :]

    @property
    def lambdas_tail(self) -> np.ndarray:
        return self.decomposition.lambdas[..., self.r :]


@dataclass(frozen=True)
class ShrinkageParams:
    """Biasing parameters k > 0 and d; the caller records where each came from."""

    k: float
    d: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0.0):
            raise ValueError("k must be positive")
        if not np.isfinite(self.d):
            raise ValueError("d must be finite")


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
        if self.r is not None:
            _as_count(self.r, "r", 1)

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


BatchDecomposition = SpectralDecomposition


def spectral_decompose(X, v_diag) -> SpectralDecomposition:
    """Eigendecompose X'VX into descending, sign-fixed eigenpairs.

    The one-row case of ``spectral_decompose_batch``.
    """
    gram = _design_map(X)
    row = spectral_decompose_batch(gram, _as_array(v_diag, "v_diag", gram.X.shape[:1])[None])
    _refuse_indefinite(row, 0)
    return row.select(0)


def _refuse_indefinite(decomp: SpectralDecomposition, row: int):
    """Raise ``DecompositionError`` unless the row's X'VX is positive definite."""
    largest, smallest = float(decomp.lambdas[row, 0]), float(decomp.lambdas[row, -1])
    if np.isnan(smallest):
        raise DecompositionError("X'VX contains non-finite entries")
    if not decomp.positive_definite[row]:
        raise DecompositionError(
            f"X'VX numerically singular (smallest eigenvalue {smallest:.3e}, "
            f"largest {largest:.3e}): collinear or badly scaled columns",
            smallest_eigenvalue=smallest,
        )


def spectral_decompose_batch(X, v_rows) -> SpectralDecomposition:
    """Descending, sign-fixed eigenpairs of X'VX for every weight row of v_rows.

    The package's one eigendecomposition: X'VX is formed, exactly
    symmetric, by X's ``_GramMap`` for each row of v_rows (b, n) and all
    rows share one stacked ``eigh``.  X may be a design's map, built once
    for all its weights; a plain X is checked as a design and gets a map of
    its own.
    """
    gram = _design_map(X)
    A = gram(_as_array(v_rows, "v_rows", (None, gram.X.shape[0])))
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
    return SpectralDecomposition(T=vec, lambdas=lam)


def _check_ptv(ptv_threshold: float):
    if not (0.0 < ptv_threshold <= 1.0):
        raise ValueError("ptv_threshold must lie in (0, 1]")


def _check_given(p: int, ptv_threshold: float, r=None, k=None, d=None):
    """The one check of given parameters: ptv (even if unread), r, k, d, in that order."""
    _check_ptv(ptv_threshold)
    if r is not None:
        _as_count(r, "r", 1, p)
    ShrinkageParams(K_MIN if k is None else k, 0.0 if d is None else d)


def _check_lambdas(lambdas, descending=False) -> np.ndarray:
    """``lambdas`` as floats, all positive (NaN is not) and, if asked, descending."""
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(lam > 0.0) or descending and np.any(np.diff(lam, axis=-1) > 0):
        order = " and sorted descending" if descending else ""
        raise ValueError(f"lambdas must be positive{order}")
    return lam


def select_components(lambdas, ptv_threshold: float):
    """Smallest r whose leading eigenvalue share reaches the threshold.

    Each share is a running sum over the last one, so the p-th share is
    exactly 1 and r <= p for every threshold in (0, 1].  ``lambdas`` may
    carry leading batch axes; r is then an integer array.
    """
    lam = _check_lambdas(lambdas, descending=True)
    _check_ptv(ptv_threshold)
    shares = np.cumsum(lam, axis=-1)
    shares /= shares[..., -1:]
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
        r = np.asarray(_as_count(r, "r", 1, p))
        g = np.where(np.arange(p) < r[..., None], g, 0.0)
    return g


def _apply_filters(T, factors, b) -> list:
    """T diag(g) T' b for every g of ``factors``, forming T'b once (any batch axes)."""
    alpha = (T.swapaxes(-1, -2) @ b[..., None])[..., 0]
    return [(T @ (g * alpha)[..., None])[..., 0] for g in factors]


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
    beta = _as_beta(fit.beta, (decomp.p,))
    return _apply_filters(decomp.T, [spec.factors(decomp.lambdas)], beta)[0]


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
    lam = _check_lambdas(lambdas)
    d = 0.5 * np.min(lam / (1.0 + lam), axis=-1)
    return float(d) if d.ndim == 0 else d


def choose_k(lambdas, alpha_hat, d) -> KSelection:
    """Arithmetic-mean k rule over eigencoordinates of the ML fit.

    k = mean_j (lambda_j - d*(1 + lambda_j*alpha_j^2)) / (lambda_j*alpha_j^2),
    with |alpha_j| floored at ``ALPHA_FLOOR`` to avoid division blow-up.  A
    nonpositive or overflowed k is clamped to ``K_MIN`` and flagged, with no
    warning.  ``lambdas``, ``alpha_hat`` and ``d`` may carry leading batch axes;
    both fields are then arrays of the batch shape, else a float and a bool.
    """
    lam = _check_lambdas(lambdas)
    alpha = _as_array(alpha_hat, "alpha_hat", lam.shape)
    d = np.asarray(d, dtype=float)[..., None]
    alpha_sq = np.maximum(alpha**2, ALPHA_FLOOR**2)
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.mean((lam - d * (1.0 + lam * alpha_sq)) / (lam * alpha_sq), axis=-1)
    clamped = (k <= 0.0) | ~np.isfinite(k)
    k = np.where(clamped, K_MIN, k)
    return KSelection(float(k), bool(clamped)) if k.ndim == 0 else KSelection(k, clamped)


choose_k_batch = choose_k


def select_parameters(
    decomp, beta, ptv_threshold: float, *, r=None, k=None, d=None, min_components=1
):
    """r, k and d for one fit or a stack, each by its rule unless given.

    r is ``select_components`` floored at ``min_components`` and capped at
    p, d is ``choose_d``, and k is ``choose_k`` at that d and the ML
    eigencoordinates T'beta of ``beta``, finite and of the lambdas' shape;
    ``_check_given`` refuses a bad given value as ``fit`` does.  Returns (r, k, d, k_clamped)
    broadcast to the batch shape of ``decomp``; a given k is never clamped.
    """
    lam = decomp.lambdas
    p = lam.shape[-1]
    _check_given(p, ptv_threshold, r, k, d)
    _as_count(min_components, "min_components", 1)
    beta = _as_beta(beta, lam.shape)
    if r is None:
        r = np.clip(select_components(lam, ptv_threshold), min_components, p)
    if d is None:
        d = choose_d(lam)
    clamped = False
    if k is None:
        alpha = (decomp.T.swapaxes(-1, -2) @ beta[..., None])[..., 0]
        k, clamped = choose_k(lam, alpha, d)
    return tuple(np.broadcast_to(value, lam.shape[:-1]) for value in (r, k, d, clamped))


def batch_estimates(fit: BatchFit, decomp: SpectralDecomposition, r, k, d) -> dict:
    """The four estimators for a stack of converged fits, row by row.

    Row i is ``point_estimate`` for that row's fit and eigendecomposition,
    component count ``r[i]`` and parameters ``k[i]``, ``d[i]``; ``decomp``
    already carries every X'VX, so no design matrix is needed.  It is the
    estimate step of ``_estimate_block``.  An estimate that overflows is
    left inf or NaN, with no RuntimeWarning, for the caller to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        factors = [filter_factors(kind, decomp.lambdas, r, k, d) for kind in EstimatorKind]
        return dict(zip(EstimatorKind, _apply_filters(decomp.T, factors, fit.beta)))


@dataclass(frozen=True)
class _Block:
    """``_estimate_block``'s result; ``rule`` (r, k, d, k_clamped) and ``estimates``
    (by ``EstimatorKind``) are dicts of arrays over the kept rows only."""

    fit: BatchFit
    decomp: SpectralDecomposition
    reason: np.ndarray
    rule: dict
    estimates: dict

    @property
    def kept(self) -> np.ndarray:
        return self.reason == 0


def _drop_reason(fit: BatchFit, decomp: SpectralDecomposition) -> np.ndarray:
    """Per row the first reason met, the one home of the keep rule and its order: 0 kept,
    1 singular Newton system, 2 not converged, 3 non-finite X'VX, 4 numerically singular."""
    nonfinite = np.isnan(decomp.lambdas[:, -1])
    conditions = [fit.singular, ~fit.converged, nonfinite, ~decomp.positive_definite]
    return np.select(conditions, [1, 2, 3, 4])


def _estimate_block(X, Y, config, ptv, *, r=None, k=None, d=None, min_components=1):
    """The package's one estimation step, for the 0/1 responses Y (b, n) on X.

    IRLS and the decomposition share X's one ``_GramMap`` (X may be a design's
    map; a plain X gets one).  Every row gets a ``_drop_reason``, and the r, k
    and d rules (at ``ptv``, ``min_components`` and any given r, k, d) and the
    estimators run on the kept rows, possibly none; ``_refuse_row`` raises why
    another was dropped.  Returns a ``_Block``.  Each row gets the bits it
    would get alone, so ``simulate_cell`` passes a block and ``fit`` and
    ``compare`` ``y[None]``.
    """
    gram = _design_map(X)
    # a given ptv, r, k or d is refused before IRLS runs
    _check_given(gram.X.shape[1], ptv, r, k, d)
    fit = irls_fit_batch(gram, Y, config)
    decomp = spectral_decompose_batch(gram, fit.v_diag)
    reason = _drop_reason(fit, decomp)
    fit_kept, decomp_kept = fit.select(reason == 0), decomp.select(reason == 0)
    rule = dict(zip(("r", "k", "d", "k_clamped"), select_parameters(
        decomp_kept, fit_kept.beta, ptv, r=r, k=k, d=d, min_components=min_components
    )))
    estimates = batch_estimates(fit_kept, decomp_kept, rule["r"], rule["k"], rule["d"])
    return _Block(fit, decomp, reason, rule, estimates)


def _refuse_row(block: _Block, row: int):
    """Raise the error for ``row``'s drop reason, picked by its code alone (none if kept);
    its message is ``model._refuse_singular``'s, the one below or ``_refuse_indefinite``'s."""
    if block.reason[row] == 1:
        _refuse_singular(block.fit, row)
    if block.reason[row] == 2:
        raise SingularSystemError(
            f"IRLS did not converge in {int(block.fit.iterations[row])} iterations "
            f"(final step {float(block.fit.final_step_norm[row]):.3e})"
        )
    if block.reason[row] >= 3:
        _refuse_indefinite(block.decomp, row)

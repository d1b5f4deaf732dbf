"""Binary logistic regression model and its IRLS maximum-likelihood fit.

Everything downstream (shrinkage estimators, error-matrix analysis, the
simulation harness) consumes the fitted coefficients and the Bernoulli
weights V of ``X'VX`` produced here, so this module is the single place where
probabilities, Bernoulli weights and the fitting loop are defined.  Every
probability in the package is ``logistic``, a plain numpy 1/(1+exp(-x)).
The loop is written once, in ``irls_fit_batch``, for a stack of responses
that share one design; ``irls_fit`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SingularSystemError

__all__ = [
    "Dataset",
    "FitConfig",
    "LogisticFit",
    "logistic",
    "predict_probabilities",
    "log_likelihood",
    "weight_diagonal",
    "working_response",
    "irls_fit",
    "BatchFit",
    "irls_fit_batch",
]

# step-halving schedule of the IRLS loop: trial scales 1, 1/2, ..., 1/1024,
# each accepted when the log-likelihood drops by no more than
# LOGLIK_SLACK * (1 + |loglik|) (summation roundoff)
HALVING_TRIES = 11
LOGLIK_SLACK = 1e-11


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"design matrix must be 2-d, got shape {X.shape}")
    return X


def _as_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    return v


def _as_count(value, name: str, low: int, high: float = np.inf):
    """``value`` if it is an integer in [low, high], the package's one check of a count:
    a Python int of any size, a numpy integer or an integer array, never a bool."""
    python_int = isinstance(value, int) and not isinstance(value, bool)
    v = value if python_int else np.asarray(value)  # a bool's array is of kind "b"
    if not ((python_int or v.dtype.kind in "iu") and np.all((low <= v) & (v <= high))):
        bounds = f">= {low}" if high == np.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _as_design(X) -> np.ndarray:
    X = _as_matrix(X)
    if not np.all(np.isfinite(X)):
        raise ValueError("design matrix contains non-finite entries")
    n, p = X.shape
    if not (n >= p >= 1):
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    return X


def _check_binary(y: np.ndarray):
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("response entries must be exactly 0 or 1")


@dataclass(frozen=True)
class Dataset:
    """An n-by-p real design matrix paired with a 0/1 response vector."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        y = _as_vector(self.y, "y")
        X = _as_design(self.X)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"response length {y.shape[0]} != row count {X.shape[0]}")
        _check_binary(y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitConfig:
    """Tuning knobs for the IRLS loop."""

    tolerance: float = 1e-6
    max_iterations: int = 100
    probability_clip: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        _as_count(self.max_iterations, "max_iterations", 1)
        if not (0.0 < self.probability_clip < 0.5):
            raise ValueError("probability_clip must lie in (0, 1/2)")


@dataclass(frozen=True)
class LogisticFit:
    """Converged (or stalled) IRLS state.

    ``v_diag`` holds the Bernoulli variances pi*(1-pi) at the final
    coefficients and ``z`` the working response, so that
    ``beta = (X'VX)^{-1} X'Vz`` reproduces ``beta`` at convergence.
    ``loglik_trace`` records the log-likelihood after each accepted step.
    """

    beta: np.ndarray
    v_diag: np.ndarray
    z: np.ndarray
    iterations: int
    converged: bool
    final_step_norm: float
    loglik_trace: tuple = field(default=())

    def __post_init__(self):
        v = np.asarray(self.v_diag, dtype=float)
        if v.size and not (np.all(v > 0.0) and np.all(v <= 0.25 + 1e-15)):
            raise ValueError("weights must lie in (0, 1/4]")


def logistic(x) -> np.ndarray:
    """The logistic function 1/(1+exp(-x)), elementwise.

    For x below about -709, exp(-x) overflows to inf and the result is
    exactly 0, its correct rounded value, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _clipped_logistic(eta: np.ndarray, clip: float) -> np.ndarray:
    pi = logistic(eta)
    return np.clip(pi, clip, 1.0 - clip, out=pi)


def _linear_predictor(X, beta) -> np.ndarray:
    X = _as_matrix(X)
    beta = _as_vector(beta, "beta")
    if X.shape[1] != beta.shape[0]:
        raise ValueError(
            f"X has {X.shape[1]} columns but beta has length {beta.shape[0]}"
        )
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite entries")
    return X @ beta


def predict_probabilities(X, beta, clip: float = FitConfig.probability_clip) -> np.ndarray:
    """Success probabilities logistic(X b), clipped to [clip, 1-clip]."""
    return _clipped_logistic(_linear_predictor(X, beta), clip)


def log_likelihood(y, pi) -> float:
    """Bernoulli log-likelihood sum(y*log(pi) + (1-y)*log(1-pi))."""
    y = _as_vector(y, "y")
    pi = _as_vector(pi, "pi")
    if y.shape != pi.shape:
        raise ValueError("y and pi must have equal length")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return float(np.sum(y * np.log(pi) + (1.0 - y) * np.log1p(-pi)))


def weight_diagonal(pi) -> np.ndarray:
    """Bernoulli variances pi*(1-pi); each entry lies in (0, 1/4]."""
    pi = _as_vector(pi, "pi")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return pi * (1.0 - pi)


def working_response(X, beta, y, clip: float = FitConfig.probability_clip) -> np.ndarray:
    """Linearized response z = x'b + (y - pi)/(pi*(1-pi)) at clipped pi."""
    eta = _linear_predictor(X, beta)
    y = _as_vector(y, "y")
    pi = _clipped_logistic(eta, clip)
    return eta + (y - pi) / (pi * (1.0 - pi))


def _stable_loglik(eta: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sum(y*eta - log(1+exp(eta))) over the last axis, with
    # log(1+exp(eta)) = max(eta, 0) + log1p(exp(-|eta|)): exp never overflows
    soft = np.exp(-np.abs(eta))
    np.log1p(soft, out=soft)
    soft += np.maximum(eta, 0.0)
    return np.sum(y * eta - soft, axis=-1)


def irls_fit(data: Dataset, config: FitConfig = FitConfig()) -> LogisticFit:
    """Fit the maximum-likelihood coefficients by IRLS with step-halving.

    Row 0 of ``irls_fit_batch``, which documents the loop, with its trace
    stripped of the NaN padding and its working response ``z`` added.

    Raises
    ------
    SingularSystemError
        If ``X'VX`` is singular at some iterate (severe collinearity or
        complete separation).
    """
    batch = irls_fit_batch(data.X, data.y[None], config)
    _refuse_singular(batch, 0)
    trace = batch.loglik_trace[0]
    return LogisticFit(
        beta=batch.beta[0],
        v_diag=batch.v_diag[0],
        z=working_response(data.X, batch.beta[0], data.y, config.probability_clip),
        iterations=int(batch.iterations[0]),
        converged=bool(batch.converged[0]),
        final_step_norm=float(batch.final_step_norm[0]),
        loglik_trace=tuple(trace[~np.isnan(trace)].tolist()),
    )


@dataclass(frozen=True)
class BatchFit:
    """IRLS outcomes for a stack of responses that share one design matrix.

    ``irls_fit`` is the one-row case: its ``LogisticFit`` is row 0 of
    ``irls_fit_batch(X, y[None])``, plus its working response ``z``, which
    the batch does not form.  Per row: ``beta`` (b, p) and ``v_diag`` (b, n)
    at the final iterate, ``iterations``, ``converged`` and
    ``final_step_norm``, the max-norm of the last step taken (of the
    rejected full step when step-halving failed).  ``loglik_trace``
    (b, max_iterations + 1) holds the log-likelihood at the start and after
    each accepted step, NaN after the row's last entry, so a row's last
    entry is the log-likelihood at its ``beta``.
    ``singular`` marks the rows whose Newton system was singular or gave a
    non-finite step; they keep the iterate reached before the failed solve
    and are never converged.
    """

    beta: np.ndarray
    v_diag: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    singular: np.ndarray
    final_step_norm: np.ndarray
    loglik_trace: np.ndarray

    def select(self, rows) -> "BatchFit":
        """The fits of the given rows (index, index array or boolean mask)."""
        return BatchFit(*(getattr(self, f.name)[rows] for f in fields(self)))


def _refuse_singular(batch: BatchFit, row: int):
    """Raise ``SingularSystemError`` if the row met a singular Newton system."""
    if batch.singular[row]:
        iterations = int(batch.iterations[row])
        raise SingularSystemError(
            f"X'VX singular or IRLS step non-finite at iteration {iterations}",
            iterations,
        )


# byte budget for the packed column products K of X's rows: a design whose K
# fits gets _GramMap's packed product, a larger one its dense product
GRAM_CHUNK_BYTES = 1 << 20


def _gram_chunk_rows(p: int) -> int:
    # the most rows of X whose p(p+1)/2 packed column products fit the budget
    return max(1, GRAM_CHUNK_BYTES // (4 * p * (p + 1)))


class _GramMap:
    """v_rows (b, n) -> X'VX (b, p, p) for one design X, built once per X.

    It holds what X alone decides and is the one route from X to X'VX (to
    X'X in ``newhouse_oman_beta``): each caller takes a design's map or
    builds one.  X's shape chooses the product, and no product mixes two
    weight rows, so each row's bits do not depend on the other rows or on
    which call formed them.  When the packed column products K,
    x_ij x_il (j <= l), of all n rows fit ``GRAM_CHUNK_BYTES`` (every study
    design), the p(p+1)/2 entries on and above the diagonal are one
    matrix-vector product K v per weight row, K's rows and K v's entries
    both in the order of the map's index pair ``np.triu_indices(p)``.  A
    larger X keeps a contiguous copy XT of X' instead, and each weight row
    is one dense product (X' diag(v)) X; K is not built.  The upper
    triangle is mirrored, so the result is exactly symmetric.
    """

    def __init__(self, X: np.ndarray):
        n, p = X.shape
        self.X, self.K, self.XT = X, None, None
        self.rows, self.cols = np.triu_indices(p)
        if n <= _gram_chunk_rows(p):
            # K fills the front of one GRAM_CHUNK_BYTES block, held as long as
            # the map: freeing a block that size raises glibc malloc's mmap
            # threshold above the IRLS temporaries, which then stay on the heap
            # instead of faulting in anew on each use (BENCH_design_gram.json)
            m = self.rows.size
            self.K = np.empty(GRAM_CHUNK_BYTES // 8)[: m * n].reshape(m, n)
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(X.T[self.rows], X.T[self.cols], out=self.K)
        else:
            self.XT = np.ascontiguousarray(X.T)

    def __call__(self, v_rows: np.ndarray) -> np.ndarray:
        rows, cols = self.rows, self.cols
        p = self.X.shape[1]
        gram = np.empty((v_rows.shape[0], p, p))
        # inf/nan entries are for the callers to report, not a RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            if self.K is not None:
                gram[:, rows, cols] = np.matmul(self.K, v_rows[..., None])[..., 0]
            else:
                for v, g in zip(v_rows, gram):
                    np.matmul(self.XT * v, self.X, out=g)
        gram[:, cols, rows] = gram[:, rows, cols]
        return gram


def _design_map(X, validate=lambda X: np.asarray(X, dtype=float)) -> _GramMap:
    # X itself when it is a design's _GramMap, else a map of validate(X)
    return X if isinstance(X, _GramMap) else _GramMap(validate(X))


def _newton_steps(hessian: np.ndarray, score: np.ndarray):
    """Solve each system of a stack; flag rows singular or non-finite."""
    try:
        steps = np.linalg.solve(hessian, score[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular system fails the stacked call: solve row by row
        steps = np.full_like(score, np.nan)
        for i in range(score.shape[0]):
            try:
                steps[i] = np.linalg.solve(hessian[i], score[i])
            except np.linalg.LinAlgError:
                pass
    return steps, ~np.all(np.isfinite(steps), axis=-1)


def _even_stride(rows: np.ndarray) -> np.ndarray:
    """``rows`` (b, m) itself for even m, else a copy whose rows lie m + 1 floats
    apart, so every row starts 16-byte aligned, as row 0 does: OpenBLAS's
    Prescott kernel rounds a dot product differently off that boundary."""
    if rows.shape[1] % 2 == 0:
        return rows
    padded = np.empty((rows.shape[0], rows.shape[1] + 1))[:, :-1]
    padded[...] = rows
    return padded


def irls_fit_batch(X, Y, config: FitConfig = FitConfig()) -> BatchFit:
    """Fit every row of the 0/1 response matrix Y by IRLS with step-halving.

    This is the package's one IRLS loop; ``irls_fit`` is its one-row case.
    Each row starts at beta = 0 and takes Newton steps
    ``(X'VX)^{-1} X'(y - pi)``, each accepted by one rule: the step is
    halved up to 10 times until the log-likelihood drops by no more than
    summation roundoff, except that a full step whose max-norm is at most
    ``config.tolerance`` is taken unconditionally.  The row stops
    unconverged when no halving is accepted, and converges when the
    accepted step is within the tolerance.  Every accepted step, the last
    included, adds its log-likelihood to the trace.  Rows leave the active
    set as they converge, stall or meet a singular system, which is
    flagged in ``singular``.  Every matrix product takes one row: a
    matrix-vector product with X, or one of ``_GramMap``'s products,
    chosen by X's shape alone, and every row it reads of length n starts
    16-byte aligned, as a lone row does (``_even_stride``).  So no BLAS
    call grows with the number of rows or sees a row at another alignment,
    and each row's arithmetic is independent of the others.  X may be a
    design's ``_GramMap``; a plain X gets one for all its steps.
    """
    gram = _design_map(X, _as_design)
    X = gram.X
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != X.shape[0]:
        raise ValueError(f"Y must have shape (b, {X.shape[0]}), got {Y.shape}")
    _check_binary(Y)
    clip = config.probability_clip
    tolerance = config.tolerance

    beta = np.zeros((Y.shape[0], X.shape[1]))
    eta = np.zeros(Y.shape)  # X beta at beta = 0
    # column t holds the log-likelihood after iteration t; an active row
    # accepted a step at every iteration so far
    trace = np.full((Y.shape[0], config.max_iterations + 1), np.nan)
    trace[:, 0] = _stable_loglik(eta, Y)
    final_step_norm = np.full(Y.shape[0], np.inf)
    iterations = np.zeros(Y.shape[0], dtype=int)
    converged = np.zeros(Y.shape[0], dtype=bool)
    singular = np.zeros(Y.shape[0], dtype=bool)
    active = np.arange(Y.shape[0])

    for iteration in range(1, config.max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        pi = _even_stride(_clipped_logistic(eta[active], clip))
        residual = _even_stride(Y[active])
        residual -= pi
        pi *= 1.0 - pi  # the Bernoulli weights v, in place
        score = np.matmul(X.T, residual[..., None])[..., 0]
        step, bad = _newton_steps(gram(pi), score)
        singular[active[bad]] = True

        # step-halving: never accept a likelihood decrease beyond summation
        # roundoff (the slack keeps tight tolerances from stalling at the
        # optimum on floating-point noise); a sub-tolerance step means the
        # row already sits at the optimum, so its floor is -inf and the full
        # step is taken unconditionally
        rows, step = active[~bad], step[~bad]
        step_norm = np.max(np.abs(step), axis=-1)
        start = trace[rows, iteration - 1]
        floor = start - LOGLIK_SLACK * (1.0 + np.abs(start))
        floor[step_norm <= tolerance] = -np.inf
        # pending rows share one halving count, and keep beta at their last iterate
        pending = np.arange(rows.size)
        for halvings in range(HALVING_TRIES):
            if pending.size == 0:
                break
            scale = 0.5**halvings
            candidate = beta[rows[pending]] + scale * step[pending]
            cand_eta = np.matmul(X, candidate[..., None])[..., 0]
            cand_loglik = _stable_loglik(cand_eta, Y[rows[pending]])
            ok = cand_loglik >= floor[pending]
            taken = rows[pending[ok]]
            beta[taken] = candidate[ok]
            eta[taken] = cand_eta[ok]
            trace[taken, iteration] = cand_loglik[ok]
            step_norm[pending[ok]] *= scale
            pending = pending[~ok]

        # rows whose halving failed stop here, unconverged, and report the
        # norm of their rejected full step
        accepted = np.ones(rows.size, dtype=bool)
        accepted[pending] = False
        final_step_norm[rows] = step_norm
        small = accepted & (step_norm <= tolerance)
        converged[rows[small]] = True
        active = rows[accepted & ~small]

    # eta holds X beta at every row's final iterate
    v = _even_stride(_clipped_logistic(eta, clip))
    v *= 1.0 - v  # the Bernoulli weights pi*(1-pi)
    return BatchFit(
        beta=beta,
        v_diag=v,
        iterations=iterations,
        converged=converged,
        singular=singular,
        final_step_norm=final_step_norm,
        loglik_trace=trace,
    )

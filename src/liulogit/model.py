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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
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


def predict_probabilities(X, beta, clip: float = 1e-10) -> np.ndarray:
    """Success probabilities logistic(X b), clipped to [clip, 1-clip]."""
    X = _as_matrix(X)
    beta = _as_vector(beta, "beta")
    if X.shape[1] != beta.shape[0]:
        raise ValueError(
            f"X has {X.shape[1]} columns but beta has length {beta.shape[0]}"
        )
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite entries")
    return _clipped_logistic(X @ beta, clip)


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


def working_response(X, beta, y, clip: float = 1e-10) -> np.ndarray:
    """Linearized response z = x'b + (y - pi)/(pi*(1-pi)) at clipped pi."""
    X = _as_matrix(X)
    beta = _as_vector(beta, "beta")
    y = _as_vector(y, "y")
    pi = predict_probabilities(X, beta, clip=clip)
    return X @ beta + (y - pi) / (pi * (1.0 - pi))


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
    iterations = int(batch.iterations[0])
    if batch.singular[0]:
        raise SingularSystemError(
            f"X'VX singular or IRLS step non-finite at iteration {iterations}",
            iterations,
        )
    trace = batch.loglik_trace[0]
    return LogisticFit(
        beta=batch.beta[0],
        v_diag=batch.v_diag[0],
        z=working_response(data.X, batch.beta[0], data.y, config.probability_clip),
        iterations=iterations,
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
        """The fits of the given rows (index array or boolean mask)."""
        return BatchFit(*(getattr(self, f.name)[rows] for f in fields(self)))


# byte budget for the (rows, p, n) temporary of one stacked X'VX product
GRAM_CHUNK_BYTES = 1 << 18


def stacked_gram(X: np.ndarray, v_rows: np.ndarray) -> np.ndarray:
    """X'VX for each weight row of v_rows (b, n), as a (b, p, p) stack.

    Each matrix is its own (p x n)(n x p) product.  Rows go through in chunks whose scaled
    copy of X' fits ``GRAM_CHUNK_BYTES`` (one row per chunk when a single
    row needs more), so the temporary does not grow with the row count.
    """
    n, p = X.shape
    gram = np.empty((v_rows.shape[0], p, p))
    chunk = max(1, GRAM_CHUNK_BYTES // (8 * n * p))
    for lo in range(0, v_rows.shape[0], chunk):
        hi = lo + chunk
        np.matmul(X.T[None] * v_rows[lo:hi, None, :], X, out=gram[lo:hi])
    return gram


def _stacked_xb(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    # X @ beta for each row of B, one matrix-vector product per row
    return np.matmul(X, B[..., None])[..., 0]


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


def _newton_system(X: np.ndarray, eta: np.ndarray, Y: np.ndarray, rows, clip: float):
    """X'VX and the score X'(y - pi) of each given row, at its eta."""
    pi = _clipped_logistic(eta[rows], clip)
    residual = Y[rows]
    residual -= pi
    pi *= 1.0 - pi  # the Bernoulli weights v, in place
    score = np.matmul(X.T, residual[..., None])[..., 0]
    return stacked_gram(X, pi), score


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
    flagged in ``singular``.  Every matrix product is one row's product
    with X, so no BLAS call grows with the number of rows and each row's
    arithmetic is independent of the others.
    """
    X = _as_design(X)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != X.shape[0]:
        raise ValueError(f"Y must have shape (b, {X.shape[0]}), got {Y.shape}")
    _check_binary(Y)
    clip = config.probability_clip
    tolerance = config.tolerance

    beta = np.zeros((Y.shape[0], X.shape[1]))
    eta = _stacked_xb(X, beta)
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
        hessian, score = _newton_system(X, eta, Y, active, clip)
        step, bad = _newton_steps(hessian, score)
        singular[active[bad]] = True

        # step-halving: never accept a likelihood decrease beyond summation
        # roundoff (the slack keeps tight tolerances from stalling at the
        # optimum on floating-point noise); a sub-tolerance step means the
        # row already sits at the optimum, so its floor is -inf and the full
        # step is taken unconditionally
        rows, step = active[~bad], step[~bad]
        step_norm = np.max(np.abs(step), axis=-1)
        base, start = beta[rows], trace[rows, iteration - 1]
        floor = start - LOGLIK_SLACK * (1.0 + np.abs(start))
        floor[step_norm <= tolerance] = -np.inf
        scale = np.ones(rows.size)
        accepted = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        for _ in range(HALVING_TRIES):
            if pending.size == 0:
                break
            candidate = base[pending] + scale[pending, None] * step[pending]
            cand_eta = _stacked_xb(X, candidate)
            cand_loglik = _stable_loglik(cand_eta, Y[rows[pending]])
            ok = cand_loglik >= floor[pending]
            taken = rows[pending[ok]]
            beta[taken] = candidate[ok]
            eta[taken] = cand_eta[ok]
            trace[taken, iteration] = cand_loglik[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            scale[pending] *= 0.5

        # rows whose halving failed stop here, unconverged, and report the
        # norm of their rejected full step
        step_norm[accepted] *= scale[accepted]
        final_step_norm[rows] = step_norm
        small = accepted & (step_norm <= tolerance)
        converged[rows[small]] = True
        active = rows[accepted & ~small]

    # eta holds X beta at every row's final iterate
    v = _clipped_logistic(eta, clip)
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

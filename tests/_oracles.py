"""Independent oracles for the package's one IRLS loop and one eigendecomposition.

``scalar_irls`` is the one-response IRLS loop with step-halving, written
as a plain Python loop with its own schedule constants; the package fits
every response through the replication-batched ``irls_fit_batch``.
``dense_decompose`` forms X'VX densely and eigendecomposes it with one
``eigh``, ordering and sign-fixing the eigenpairs column by column.
Neither calls the package code it checks.
"""

import numpy as np

from liulogit import (
    DecompositionError,
    LogisticFit,
    SingularSystemError,
    SpectralDecomposition,
)

# trial step scales 1, 1/2, ..., 1/1024, and the accepted log-likelihood
# drop LOGLIK_SLACK * (1 + |loglik|)
HALVING_TRIES = 11
LOGLIK_SLACK = 1e-11


def expit(x):
    # written out rather than scipy.special.expit: a final step of ~1e-11 is
    # compared at rtol 1e-10, which needs the package's numpy exp, ulp for ulp
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def loglik(X, beta, y):
    eta = X @ beta
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def scalar_irls(X, y, config) -> tuple[LogisticFit, bool]:
    """IRLS for one response: Newton steps from beta = 0 with step-halving.

    A sub-tolerance step is taken unconditionally and converges the fit;
    a longer step is halved until the log-likelihood drops by no more than
    the slack, and the fit stops unconverged when no halving is accepted.
    Returns the fit and whether it ended on a sub-tolerance step.  Raises
    ``SingularSystemError`` with the iteration of a singular or non-finite
    Newton step.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    clip = config.probability_clip
    beta = np.zeros(X.shape[1])
    current = loglik(X, beta, y)
    trace = [current]
    converged = False
    step_norm = np.inf
    iterations = 0
    sub_tolerance_end = False

    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        pi = np.clip(expit(X @ beta), clip, 1.0 - clip)
        v = pi * (1.0 - pi)
        hessian = (X * v[:, None]).T @ X
        score = X.T @ (y - pi)
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("singular X'VX", iteration) from exc
        if not np.all(np.isfinite(step)):
            raise SingularSystemError("non-finite step", iteration)

        step_norm = float(np.max(np.abs(step)))
        if step_norm <= config.tolerance:
            beta = beta + step
            current = loglik(X, beta, y)
            trace.append(current)
            converged = sub_tolerance_end = True
            break

        slack = LOGLIK_SLACK * (1.0 + abs(current))
        scale = 1.0
        accepted = False
        for _ in range(HALVING_TRIES):
            candidate = beta + scale * step
            cand_loglik = loglik(X, candidate, y)
            if cand_loglik >= current - slack:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break

        beta = candidate
        current = cand_loglik
        trace.append(current)
        step_norm = float(np.max(np.abs(scale * step)))
        if step_norm <= config.tolerance:
            converged = True
            break

    pi = np.clip(expit(X @ beta), clip, 1.0 - clip)
    v = pi * (1.0 - pi)
    fit = LogisticFit(
        beta=beta,
        v_diag=v,
        z=X @ beta + (y - pi) / v,
        iterations=iterations,
        converged=converged,
        final_step_norm=step_norm,
        loglik_trace=tuple(trace),
    )
    return fit, sub_tolerance_end


def dense_decompose(X, v) -> SpectralDecomposition:
    """Descending, sign-fixed eigenpairs of the dense (X * v)' X.

    Equal eigenvalues keep ``eigh``'s order; each eigenvector's
    largest-magnitude entry is made positive.  Raises
    ``DecompositionError`` when X'VX is non-finite or not positive definite.
    """
    X = np.asarray(X, dtype=float)
    A = (X * np.asarray(v, dtype=float)[:, None]).T @ X
    A = 0.5 * (A + A.T)
    if not np.all(np.isfinite(A)):
        raise DecompositionError("non-finite X'VX")
    lam, vec = np.linalg.eigh(A)
    order = np.argsort(-lam, kind="stable")
    lam, vec = lam[order], vec[:, order]
    for j in range(vec.shape[1]):
        if vec[np.argmax(np.abs(vec[:, j])), j] < 0.0:
            vec[:, j] = -vec[:, j]
    if lam[-1] <= 0.0:
        raise DecompositionError("X'VX not positive definite", float(lam[-1]))
    return SpectralDecomposition(T=vec, lambdas=lam)

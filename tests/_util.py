"""Shared test helpers: data generators and tightly converged fits."""

import numpy as np

from liulogit import Dataset, FitConfig, SpectralDecomposition, irls_fit, model

TIGHT = FitConfig(tolerance=1e-10, max_iterations=200)


def correlated_design(n, p, rho, rng):
    z = rng.standard_normal((n, p + 1))
    return np.sqrt(1.0 - rho**2) * z[:, :p] + rho * z[:, [p]]


def newton_rounding(X, v):
    """p eps cond(X'VX): the relative change of a Newton step that rounding
    in X'VX can cause, at the weights v."""
    lam = np.linalg.eigvalsh((X * v[:, None]).T @ X)
    assert lam[0] > 0.0, f"X'VX is not positive definite: {lam}"
    return X.shape[1] * np.finfo(float).eps * lam[-1] / lam[0]


def gram_chunk_budget(n, p, chunks):
    """A ``GRAM_CHUNK_BYTES`` that sums an n x p X'VX over ``chunks`` chunks
    of X's rows."""
    return 8 * (p * (p + 1) // 2) * -(-n // chunks)


def count_gram_maps(monkeypatch):
    """Record the shape of X for every ``_GramMap`` built from now on."""
    built = []
    init = model._GramMap.__init__

    def counting(self, X):
        built.append(X.shape)
        init(self, X)

    monkeypatch.setattr(model._GramMap, "__init__", counting)
    return built


def random_decomposition(p, rng, lam_range=(0.05, 8.0)):
    """Synthetic descending eigensystem with a random orthogonal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    lam = np.sort(rng.uniform(*lam_range, size=p))[::-1]
    return SpectralDecomposition(T=q, lambdas=lam)


def random_dataset(n, p, rng, rho=0.4, beta_scale=0.8):
    """A well-conditioned logistic dataset with moderate signal."""
    X = correlated_design(n, p, rho, rng)
    beta = beta_scale * rng.standard_normal(p) / np.sqrt(p)
    pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
    y = (rng.random(n) < pi).astype(float)
    return Dataset(X=X, y=y), beta


def duplicated_column_data(seed, n_range=(50, 1500), p_range=(2, 5)):
    """A logistic dataset (n and p drawn within the inclusive ranges) whose
    design repeats a column."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    p = int(rng.integers(p_range[0], p_range[1] + 1))
    X = rng.standard_normal((n, p))
    X[:, rng.integers(1, p)] = X[:, 0]
    beta = rng.standard_normal(p) / np.sqrt(p)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
    return Dataset(X=X, y=y)


def repeated_column_weights(seed):
    """A design (n 50-3000, p 2-4) whose second column repeats the first,
    and the (3, n) logistic weights of three linear predictors on it."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(50, 3001)), int(rng.integers(2, 5))
    X = rng.standard_normal((n, p))
    X[:, 1] = X[:, 0]
    eta = X @ rng.standard_normal(p) * np.array([[0.2], [1.0], [3.0]])
    pi = 1.0 / (1.0 + np.exp(-eta))
    return X, pi * (1.0 - pi)


def tight_fit(dataset):
    fit = irls_fit(dataset, TIGHT)
    assert fit.converged, "helper expects convergence on well-conditioned data"
    return fit

"""Monte Carlo study of the four estimators under multicollinearity.

Protocol per cell (one combination of n, p, rho): draw a single-common-factor
design once, fix the unit-norm coefficient vector to the leading eigenvector
of X'X, then repeatedly redraw the Bernoulli response, refit, reselect the
component count and biasing parameters from that replication's fit, and
accumulate squared estimation error against the generating coefficients.

Design columns are rescaled to a common Euclidean norm by default, which
makes X'VX (and therefore every selection rule and error magnitude)
scale-free in n; the bundled reference MSE tables were produced under that
convention, and raw unscaled columns remain available via
``design_scaling="raw"``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import CellFailedError
from .estimators import (
    BatchDecomposition,
    EstimatorKind,
    batch_estimates,
    select_parameters,
    spectral_decompose_batch,
)
from .model import irls_fit_batch, logistic

__all__ = [
    "SimulationConfig",
    "CellResult",
    "CellFailure",
    "StudyGrid",
    "DESIGN_COLUMN_NORM",
    "REPLICATION_BLOCK",
    "components_for_p",
    "generate_design",
    "scale_columns",
    "newhouse_oman_beta",
    "generate_response",
    "cell_design",
    "simulate_cell",
    "study_configs",
    "run_cells",
    "run_study",
    "derive_cell_seed",
    "ptv_for_p",
]

# common column norm for the scale-free design convention (norm^2 = 8)
DESIGN_COLUMN_NORM = 2.0 * math.sqrt(2.0)

# replications fitted together: enough to spread the per-step Python
# dispatch thin, while a cell's working memory stays a few
# (REPLICATION_BLOCK, n) arrays whatever its replication count
REPLICATION_BLOCK = 64

ESTIMATOR_ORDER = tuple(EstimatorKind)


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation cell."""

    n: int
    p: int
    rho: float
    replications: int = 2000
    seed: int = 0
    ptv_threshold: float = 0.75
    design_scaling: str = "fixed_norm"
    min_components: int = 2
    components: int | None = None

    def __post_init__(self):
        if not (self.n > self.p >= 2):
            raise ValueError(f"need n > p >= 2, got n={self.n}, p={self.p}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (0.0 < self.ptv_threshold <= 1.0):
            raise ValueError("ptv_threshold must lie in (0, 1]")
        if self.design_scaling not in ("fixed_norm", "raw"):
            raise ValueError(f"unknown design_scaling {self.design_scaling!r}")
        if self.min_components < 1:
            raise ValueError("min_components must be at least 1")
        if self.components is not None and not (1 <= self.components <= self.p):
            raise ValueError(f"components must lie in [1, {self.p}]")


@dataclass(frozen=True)
class CellResult:
    """Per-estimator simulated MSE plus selection diagnostics for one cell."""

    config: SimulationConfig
    mse: dict
    divergent_replications: int
    mean_r: float
    mean_k: float
    mean_d: float
    estimates: dict | None = None

    @property
    def converged_replications(self) -> int:
        return self.config.replications - self.divergent_replications

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "p": self.config.p,
            "rho": self.config.rho,
            "replications": self.config.replications,
            "seed": self.config.seed,
            "ptv_threshold": self.config.ptv_threshold,
            "components": self.config.components,
            "mse": {kind.value: self.mse[kind] for kind in ESTIMATOR_ORDER},
            "divergent_replications": self.divergent_replications,
            "mean_r": self.mean_r,
            "mean_k": self.mean_k,
            "mean_d": self.mean_d,
        }


@dataclass(frozen=True)
class StudyGrid:
    """Cartesian grid of cell coordinates, enumerated p-major.

    Each list is nonempty and names each value once, so no two cells
    share their coordinates.
    """

    p_values: tuple = (4, 6, 8, 12)
    n_values: tuple = (200, 500, 1000)
    rho_values: tuple = (0.8, 0.9, 0.99, 0.999)

    def __post_init__(self):
        for name in ("p_values", "n_values", "rho_values"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be nonempty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]!r} more than once")
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.p_values) * len(self.n_values) * len(self.rho_values)


def ptv_for_p(p: int) -> float:
    """Total-variability threshold used by the reference study per p."""
    return 0.83 if p == 6 else 0.75


def components_for_p(p: int) -> int:
    """Retained component count the study grid fixes per p.

    The common-factor design concentrates nearly all variability on one
    axis at high correlation, so a share-threshold rule collapses to a
    single component there and the count would swing with rho.  The grid
    pins a rho-stable count per p instead, keeping the component-dropping
    estimators distinct from both the single-axis projection and the full
    fit in every cell.
    """
    return min(p - 1, -(-p // 4) + 2)


def generate_design(n: int, q: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Single-common-factor design x_ij = sqrt(1-rho^2) z_ij + rho z_{i,q+1}.

    The z draws are i.i.d. standard normal with the last column shared by
    every covariate, so pairwise column correlations converge to rho^2.
    """
    z = rng.standard_normal((n, q + 1))
    return np.sqrt(1.0 - rho**2) * z[:, :q] + rho * z[:, [q]]


def scale_columns(X, column_norm: float) -> np.ndarray:
    """Rescale every column to the given Euclidean norm."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("cannot rescale a zero column")
    return X * (column_norm / norms)


def newhouse_oman_beta(X) -> np.ndarray:
    """Unit-norm eigenvector of X'X for its largest eigenvalue, sign-fixed."""
    X = np.asarray(X, dtype=float)
    gram = X.T @ X
    lam, vec = np.linalg.eigh(gram)
    if lam[0] <= 1e-12 * lam[-1]:
        raise ValueError("design is rank deficient")
    # ties on the largest eigenvalue resolve to the earliest LAPACK index
    top = vec[:, int(np.argsort(-lam, kind="stable")[0])]
    beta = top / np.linalg.norm(top)
    return beta * np.sign(beta[np.argmax(np.abs(beta))])


def generate_response(X, beta, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws with success probabilities logistic(X beta)."""
    X = np.asarray(X, dtype=float)
    pi = logistic(X @ np.asarray(beta, dtype=float))
    return (rng.random(X.shape[0]) < pi).astype(float)


def _cell_rng(config: SimulationConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(config.seed))


def _build_design(config: SimulationConfig, rng) -> tuple[np.ndarray, np.ndarray]:
    X = generate_design(config.n, config.p, config.rho, rng)
    if config.design_scaling == "fixed_norm":
        X = scale_columns(X, DESIGN_COLUMN_NORM)
    return X, newhouse_oman_beta(X)


def cell_design(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (X, beta) pair a cell fixes across its replications."""
    return _build_design(config, _cell_rng(config))


def simulate_cell(config: SimulationConfig, keep_estimates: bool = False) -> CellResult:
    """Run one cell and return simulated MSE per estimator.

    Each replication redraws the response, fits by IRLS, selects r, k and
    d with ``select_parameters`` (r pinned to ``config.components`` when
    set, else the total-variability rule floored at
    ``config.min_components``) from that replication's eigenvalues and ML
    eigencoordinates, and accumulates squared error ||estimate - beta||^2.
    Replications whose fit diverges or whose weighted cross-product is
    numerically indefinite are dropped from the MSE denominator and counted.

    Replications run in blocks of ``REPLICATION_BLOCK`` that share the
    design: one ``rng.random((block, n))`` draw (the same stream as that
    many successive ``generate_response`` calls), one ``irls_fit_batch``,
    one ``spectral_decompose_batch`` and the rules and estimators over the
    block's rows.  No row's IRLS arithmetic depends on the other rows, so
    a replication's fit is what ``irls_fit``, the one-row case, gives for
    it, and cell results depend on neither the process nor the worker
    count.

    Raises
    ------
    CellFailedError
        If every replication diverged.
    """
    rng = _cell_rng(config)
    X, beta = _build_design(config, rng)
    pi = logistic(X @ beta)

    sums = {kind: 0.0 for kind in ESTIMATOR_ORDER}
    stored = {kind: [] for kind in ESTIMATOR_ORDER} if keep_estimates else None
    divergent = 0
    r_total = 0.0
    k_total = 0.0
    d_total = 0.0

    for start in range(0, config.replications, REPLICATION_BLOCK):
        size = min(REPLICATION_BLOCK, config.replications - start)
        Y = (rng.random((size, config.n)) < pi).astype(float)
        fit = irls_fit_batch(X, Y)
        decomp = spectral_decompose_batch(X, fit.v_diag)
        kept = fit.converged & decomp.positive_definite
        divergent += size - int(np.count_nonzero(kept))
        if not kept.any():
            continue
        fit = fit.select(kept)
        decomp = BatchDecomposition(*(part[kept] for part in decomp))
        r, k, d, _ = select_parameters(
            decomp, fit.beta, config.ptv_threshold,
            r=config.components, min_components=config.min_components,
        )

        estimates = batch_estimates(fit, decomp, r, k, d)
        for kind, estimate in estimates.items():
            sums[kind] += float(np.sum((estimate - beta) ** 2))
            if keep_estimates:
                stored[kind].append(estimate)
        r_total += float(np.sum(r))
        k_total += float(np.sum(k))
        d_total += float(np.sum(d))

    converged = config.replications - divergent
    if converged == 0:
        raise CellFailedError(
            f"all {config.replications} replications diverged "
            f"(n={config.n}, p={config.p}, rho={config.rho})",
            n=config.n,
            p=config.p,
            rho=config.rho,
        )

    return CellResult(
        config=config,
        mse={kind: sums[kind] / converged for kind in ESTIMATOR_ORDER},
        divergent_replications=divergent,
        mean_r=r_total / converged,
        mean_k=k_total / converged,
        mean_d=d_total / converged,
        estimates=(
            {kind: np.concatenate(stored[kind]) for kind in ESTIMATOR_ORDER}
            if keep_estimates
            else None
        ),
    )


def derive_cell_seed(master_seed: int, cell_index: int) -> int:
    """Deterministic 64-bit per-cell seed, independent across cells.

    Uses numpy's SeedSequence spawn-key mixing: the cell index is folded
    into the master entropy, so any runner that enumerates the same grid
    order reproduces the same streams regardless of scheduling.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def study_configs(grid: StudyGrid, base: SimulationConfig) -> list[SimulationConfig]:
    """Expand a grid into per-cell configs with derived seeds and PTV rules.

    ``base`` supplies replications, the component settings and the
    design-scaling convention; its seed acts as the study's master seed.
    Cells are ordered p-major, then n, then rho, matching the reference
    table layout.  Under the fixed-norm convention each cell pins the
    rho-stable component count from ``components_for_p``; the raw mode
    leaves selection to the per-replication share rule.  An explicit
    ``base.components`` overrides both.
    """
    configs = []
    index = 0
    for p in grid.p_values:
        for n in grid.n_values:
            for rho in grid.rho_values:
                configs.append(
                    replace(
                        base,
                        n=n,
                        p=p,
                        rho=rho,
                        seed=derive_cell_seed(base.seed, index),
                        ptv_threshold=ptv_for_p(p),
                        components=(
                            base.components
                            if base.components is not None
                            else (
                                components_for_p(p)
                                if base.design_scaling == "fixed_norm"
                                else None
                            )
                        ),
                    )
                )
                index += 1
    return configs


@dataclass(frozen=True)
class CellFailure:
    """A cell in which every replication diverged, with the reason."""

    config: SimulationConfig
    error: str

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "p": self.config.p,
            "rho": self.config.rho,
            "error": self.error,
        }


def _cell_outcome(config: SimulationConfig) -> CellResult | CellFailure:
    try:
        return simulate_cell(config)
    except CellFailedError as exc:
        return CellFailure(config, str(exc))


def run_cells(
    configs: list[SimulationConfig],
    workers: int | None = None,
) -> list[CellResult | CellFailure]:
    """Simulate every cell, optionally across processes, keeping failures.

    Outcomes arrive in input order either way; parallel and serial runs are
    bit-identical because each cell owns an independently derived stream.
    A failed cell yields a ``CellFailure`` in its place instead of stopping
    the run.
    """
    # a forked pool starts all its workers at once: no more than there are cells
    workers = min(workers or 1, len(configs))
    if workers <= 1:
        return [_cell_outcome(config) for config in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell_outcome, configs))


def run_study(
    grid: StudyGrid,
    base: SimulationConfig,
    workers: int | None = None,
) -> list[CellResult]:
    """Simulate every cell of the grid, optionally across processes.

    Results arrive in grid order either way; parallel and serial runs are
    bit-identical because each cell owns an independently derived stream.
    The first failed cell in grid order raises ``CellFailedError`` with
    its coordinates.
    """
    results = run_cells(study_configs(grid, base), workers)
    for outcome in results:
        if isinstance(outcome, CellFailure):
            config = outcome.config
            raise CellFailedError(
                outcome.error, n=config.n, p=config.p, rho=config.rho
            )
    return results

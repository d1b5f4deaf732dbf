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
from dataclasses import dataclass, replace

import numpy as np

from .errors import CellFailedError
from .estimators import (
    EstimatorKind,
    _check_ptv,
    _estimate_block,
    spectral_decompose_batch,
)
from .model import FitConfig, _as_count, _design_map, _GramMap, logistic

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

# the column conventions a cell's design may take
_DESIGN_SCALINGS = ("fixed_norm", "raw")


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
        _as_count(self.n, "n", _as_count(self.p, "p", 2) + 1)  # n > p >= 2
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        _as_count(self.replications, "replications", 1)
        _as_count(self.seed, "seed", 0)
        _check_ptv(self.ptv_threshold)
        if self.design_scaling not in _DESIGN_SCALINGS:
            raise ValueError(f"unknown design_scaling {self.design_scaling!r}")
        _as_count(self.min_components, "min_components", 1)
        if self.components is not None:
            _as_count(self.components, "components", 1, self.p)


@dataclass(frozen=True)
class CellResult:
    """Per-estimator simulated MSE plus selection diagnostics for one cell."""

    config: SimulationConfig
    mse: dict
    divergent_replications: int
    mean_r: float
    mean_k: float
    mean_d: float

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
            "mse": {kind.value: self.mse[kind] for kind in EstimatorKind},
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
    """Unit leading eigenvector of X'X, from the package's one decomposition.

    That is ``spectral_decompose_batch`` at unit weights, with its order
    and sign rules; an X'X that is not ``positive_definite`` is refused.
    X may be a design's ``_GramMap`` or a plain X, with the same bits.
    """
    gram = _design_map(X)
    decomp = spectral_decompose_batch(gram, np.ones((1, gram.X.shape[0])))
    if not decomp.positive_definite[0]:
        raise ValueError("design is rank deficient")
    return decomp.T[0, :, 0]


def generate_response(X, beta, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draws with success probabilities logistic(X beta)."""
    X = np.asarray(X, dtype=float)
    pi = logistic(X @ np.asarray(beta, dtype=float))
    return (rng.random(X.shape[0]) < pi).astype(float)


def _build_design(config: SimulationConfig, rng) -> tuple[_GramMap, np.ndarray]:
    X = generate_design(config.n, config.p, config.rho, rng)
    if config.design_scaling == "fixed_norm":
        X = scale_columns(X, DESIGN_COLUMN_NORM)
    gram = _GramMap(X)
    return gram, newhouse_oman_beta(gram)


def cell_design(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray]:
    """The (X, beta) pair a cell fixes across its replications."""
    gram, beta = _build_design(config, np.random.default_rng(config.seed))
    return gram.X, beta


def _cell_failed(config: SimulationConfig, reason: str) -> CellFailedError:
    n, p, rho = config.n, config.p, config.rho
    return CellFailedError(f"{reason} (n={n}, p={p}, rho={rho})", n=n, p=p, rho=rho)


def simulate_cell(config: SimulationConfig) -> CellResult:
    """Run one cell and return simulated MSE per estimator.

    Replications run in blocks of ``REPLICATION_BLOCK``: one
    ``rng.random((block, n))`` draw (the same stream as that many
    successive ``generate_response`` calls) and one ``_estimate_block``
    over the cell's ``_GramMap``, which beta is read through too, with r
    pinned to ``config.components`` when set, else the total-variability
    rule floored at ``config.min_components``.  Each block's sums of the
    kept replications' ||estimate - beta||^2, r, k and d are added in block
    order and divided once by the kept count; the others are dropped and
    counted.  Results depend on neither the process nor the workers.

    Raises
    ------
    CellFailedError
        If the design is refused (``newhouse_oman_beta``'s ``ValueError``)
        or every replication diverged.
    """
    rng = np.random.default_rng(config.seed)
    try:
        gram, beta = _build_design(config, rng)
    except ValueError as exc:
        raise _cell_failed(config, str(exc)) from exc
    pi = logistic(gram.X @ beta)

    # one accumulator keyed by name: each block's sums, added in block order
    totals = dict.fromkeys([*EstimatorKind, "r", "k", "d"], 0.0)
    divergent = 0

    for start in range(0, config.replications, REPLICATION_BLOCK):
        size = min(REPLICATION_BLOCK, config.replications - start)
        Y = (rng.random((size, config.n)) < pi).astype(float)
        block = _estimate_block(
            gram, Y, FitConfig(), config.ptv_threshold,
            r=config.components, min_components=config.min_components,
        )
        divergent += int(np.count_nonzero(block.reason))
        squared = {kind: (estimate - beta) ** 2 for kind, estimate in block.estimates.items()}
        rows = {**block.rule, **squared}
        for name in totals:
            totals[name] += float(np.sum(rows[name]))

    converged = config.replications - divergent
    if converged == 0:
        raise _cell_failed(config, f"all {config.replications} replications diverged")

    mean = {name: total / converged for name, total in totals.items()}
    return CellResult(
        config=config,
        mse={kind: mean[kind] for kind in EstimatorKind},
        divergent_replications=divergent,
        mean_r=mean["r"], mean_k=mean["k"], mean_d=mean["d"],
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
    Its ``ptv_threshold`` is not used: every cell takes ``ptv_for_p(p)``.
    Cells are ordered p-major, then n, then rho, matching the reference
    table layout.  Under the fixed-norm convention each cell pins the
    rho-stable component count from ``components_for_p``; the raw mode
    leaves selection to the per-replication share rule.  An explicit
    ``base.components`` overrides both.
    """
    pinned = base.components is None and base.design_scaling == "fixed_norm"
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
                        components=components_for_p(p) if pinned else base.components,
                    )
                )
                index += 1
    return configs


@dataclass(frozen=True)
class CellFailure:
    """A cell that gave no result, with the reason."""

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
    # imported here, so that serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell_outcome, configs))


def run_study(
    grid: StudyGrid,
    base: SimulationConfig,
    workers: int | None = None,
) -> list[CellResult]:
    """Simulate every cell of the grid, optionally across processes.

    Cells are the configs of ``study_configs``, so each runs at the
    threshold ``ptv_for_p(p)`` whatever ``base.ptv_threshold`` says.
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

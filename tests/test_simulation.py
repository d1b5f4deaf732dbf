import numpy as np
import pytest

from liulogit import (
    DESIGN_COLUMN_NORM,
    CellFailedError,
    CellFailure,
    CellResult,
    DecompositionError,
    EstimatorKind,
    EstimatorSpec,
    FitConfig,
    ShrinkageParams,
    SimulationConfig,
    SingularSystemError,
    StudyGrid,
    cell_design,
    choose_d,
    choose_k,
    components_for_p,
    derive_cell_seed,
    generate_design,
    generate_response,
    newhouse_oman_beta,
    pclr_estimate,
    pcltl_estimate,
    point_estimate,
    ptv_for_p,
    run_cells,
    run_study,
    scale_columns,
    select_components,
    simulate_cell,
    study_configs,
)
from liulogit import simulation
from liulogit.simulation import (
    ESTIMATOR_ORDER,
    REPLICATION_BLOCK,
    _build_design,
    _cell_rng,
)

from _oracles import dense_decompose, scalar_irls

SMALL_CELL = SimulationConfig(n=150, p=4, rho=0.9, replications=40, seed=2024)

# partial-divergence fixtures: tiny n drops some replications, not all
PARTIAL_RAW = SimulationConfig(
    n=15, p=4, rho=0.9, replications=60, seed=7,
    min_components=1, components=None, design_scaling="raw",
)
PARTIAL_FIXED = SimulationConfig(
    n=15, p=4, rho=0.9, replications=60, seed=7,
    min_components=1, components=None,
)


def reference_cell(config, keep_estimates=False):
    """The per-replication cell loop: one scalar IRLS fit per replication.

    Oracle for the block-batched ``simulate_cell``: same draws, same rules,
    built from the scalar IRLS loop and dense eigendecomposition of
    ``_oracles`` and the scalar estimators on that decomposition.
    """
    rng = _cell_rng(config)
    X, beta = _build_design(config, rng)
    sums = {kind: 0.0 for kind in ESTIMATOR_ORDER}
    stored = {kind: [] for kind in ESTIMATOR_ORDER}
    divergent = 0
    r_total = k_total = d_total = 0.0
    for _ in range(config.replications):
        y = generate_response(X, beta, rng)
        try:
            fit = scalar_irls(X, y, FitConfig())
        except SingularSystemError:
            divergent += 1
            continue
        if not fit.converged:
            divergent += 1
            continue
        try:
            decomp = dense_decompose(X, fit.v_diag)
        except DecompositionError:
            divergent += 1
            continue
        if config.components is not None:
            r = config.components
        else:
            r = min(
                max(
                    select_components(decomp.lambdas, config.ptv_threshold),
                    config.min_components,
                ),
                config.p,
            )
        split = decomp.split(r)
        d = choose_d(decomp.lambdas)
        k, _ = choose_k(decomp.lambdas, decomp.T.T @ fit.beta, d)
        params = ShrinkageParams(k=k, d=d, k_source="rule", d_source="rule")
        estimates = {
            EstimatorKind.ML: fit.beta,
            EstimatorKind.LTL: point_estimate(
                fit, X, EstimatorSpec(EstimatorKind.LTL, params=params), decomp
            ),
            EstimatorKind.PCLR: pclr_estimate(fit, X, split),
            EstimatorKind.PCLTL: pcltl_estimate(fit, X, split, params),
        }
        for kind, estimate in estimates.items():
            sums[kind] += float(np.sum((estimate - beta) ** 2))
            stored[kind].append(estimate)
        r_total += r
        k_total += k
        d_total += d
    converged = config.replications - divergent
    return CellResult(
        config=config,
        mse={kind: sums[kind] / converged for kind in ESTIMATOR_ORDER},
        divergent_replications=divergent,
        mean_r=r_total / converged,
        mean_k=k_total / converged,
        mean_d=d_total / converged,
        estimates=(
            {kind: np.asarray(stored[kind]) for kind in ESTIMATOR_ORDER}
            if keep_estimates
            else None
        ),
    )


def assert_matches_reference(config):
    batched = simulate_cell(config, keep_estimates=True)
    reference = reference_cell(config, keep_estimates=True)
    assert batched.divergent_replications == reference.divergent_replications
    assert batched.mean_r == reference.mean_r
    for kind in ESTIMATOR_ORDER:
        assert batched.mse[kind] == pytest.approx(reference.mse[kind], rel=1e-8, abs=0)
        got, want = batched.estimates[kind], reference.estimates[kind]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10, kind
    assert batched.mean_k == pytest.approx(reference.mean_k, rel=1e-8, abs=0)
    assert batched.mean_d == pytest.approx(reference.mean_d, rel=1e-8, abs=0)
    return batched


class TestGenerateDesign:
    def test_zero_correlation_passes_noise_through(self):
        rng = np.random.default_rng(60)
        X = generate_design(50, 3, 0.0, rng)
        z = np.random.default_rng(60).standard_normal((50, 4))
        assert np.array_equal(X, z[:, :3])

    def test_pairwise_correlation_converges_to_rho_squared(self):
        rng = np.random.default_rng(61)
        rho = 0.999
        X = generate_design(100_000, 4, rho, rng)
        corr = np.corrcoef(X, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - rho**2) < 0.01)

    def test_correlation_convergence_rate(self):
        # sample correlations sit within ~3 sigma of rho^2 at n = 1e5
        rng = np.random.default_rng(62)
        rho = 0.9
        n = 100_000
        X = generate_design(n, 4, rho, rng)
        corr = np.corrcoef(X, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        band = 3.0 * (1.0 - rho**4) / np.sqrt(n)
        assert np.all(np.abs(off - rho**2) < band)

    def test_determinism(self):
        a = generate_design(30, 3, 0.8, np.random.default_rng(7))
        b = generate_design(30, 3, 0.8, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestScaleColumns:
    def test_norms_hit_target(self):
        rng = np.random.default_rng(63)
        X = scale_columns(rng.standard_normal((40, 3)), DESIGN_COLUMN_NORM)
        assert np.allclose(np.linalg.norm(X, axis=0), DESIGN_COLUMN_NORM)

    def test_rejects_zero_column(self):
        with pytest.raises(ValueError):
            scale_columns(np.zeros((5, 2)), 1.0)


class TestNewhouseOmanBeta:
    def test_diagonal_gram(self):
        X = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(newhouse_oman_beta(X), [1.0, 0.0])

    def test_unit_norm(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            X = rng.standard_normal((30, 4))
            beta = newhouse_oman_beta(X)
            assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)

    def test_power_iteration_oracle_and_equicorrelation_direction(self):
        rng = np.random.default_rng(65)
        X = generate_design(2000, 4, 0.95, rng)
        beta = newhouse_oman_beta(X)
        # independent power iteration on X'X
        G = X.T @ X
        v = np.ones(4) / 2.0
        for _ in range(500):
            v = G @ v
            v /= np.linalg.norm(v)
        assert min(np.linalg.norm(beta - v), np.linalg.norm(beta + v)) < 1e-8
        # strong common factor pulls beta toward the all-equal direction
        assert np.all(np.abs(beta - 0.5) < 0.05)

    def test_rank_deficient_rejected(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(ValueError):
            newhouse_oman_beta(X)


class TestGenerateResponse:
    def test_balanced_at_zero_beta(self):
        rng = np.random.default_rng(66)
        n = 4000
        y = generate_response(np.ones((n, 2)), np.zeros(2), rng)
        assert abs(y.mean() - 0.5) < 3.0 * np.sqrt(0.25 / n)

    def test_saturated_probabilities(self):
        rng = np.random.default_rng(67)
        y = generate_response(np.full((100, 1), 50.0), np.array([1.0]), rng)
        assert np.all(y == 1.0)

    def test_determinism(self):
        X = np.random.default_rng(1).standard_normal((50, 2))
        a = generate_response(X, np.array([0.5, -0.2]), np.random.default_rng(9))
        b = generate_response(X, np.array([0.5, -0.2]), np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestSimulateCell:
    def test_zero_error_when_estimate_equals_truth(self):
        # Eq-style accumulation: plugging the generating coefficients into
        # the stored-estimate pass must give exactly zero
        result = simulate_cell(SMALL_CELL, keep_estimates=True)
        _, beta = cell_design(SMALL_CELL)
        forced = np.tile(beta, (result.converged_replications, 1))
        assert np.sum((forced - beta) ** 2) / result.converged_replications == 0.0

    def test_two_pass_accumulation_oracle(self):
        result = simulate_cell(SMALL_CELL, keep_estimates=True)
        _, beta = cell_design(SMALL_CELL)
        m = result.converged_replications
        for kind in EstimatorKind:
            stored = result.estimates[kind]
            assert stored.shape == (m, SMALL_CELL.p)
            recomputed = float(np.sum((stored - beta) ** 2) / m)
            assert recomputed == pytest.approx(result.mse[kind], abs=1e-10)

    def test_determinism(self):
        a = simulate_cell(SMALL_CELL)
        b = simulate_cell(SMALL_CELL)
        for kind in EstimatorKind:
            assert a.mse[kind] == b.mse[kind]
        assert a.mean_k == b.mean_k

    def test_diagnostics_ranges(self):
        result = simulate_cell(SMALL_CELL)
        assert result.divergent_replications < SMALL_CELL.replications
        assert SMALL_CELL.min_components <= result.mean_r <= SMALL_CELL.p
        assert result.mean_k > 0.0
        assert 0.0 < result.mean_d < 0.5
        assert all(v >= 0.0 for v in result.mse.values())

    def test_raw_scaling_mode_runs(self):
        config = SimulationConfig(
            n=150, p=3, rho=0.7, replications=20, seed=5, design_scaling="raw"
        )
        result = simulate_cell(config)
        assert result.mse[EstimatorKind.ML] > 0.0

    def test_mle_mse_tracks_asymptotic_trace(self):
        # simulated ML error vs the average inverse-information trace
        config = SimulationConfig(n=1000, p=4, rho=0.8, replications=200, seed=11)
        result = simulate_cell(config)
        X, beta = cell_design(config)
        rng = np.random.default_rng(999)
        traces = []
        for _ in range(50):
            y = generate_response(X, beta, rng)
            from liulogit import Dataset, irls_fit, spectral_decompose

            fit = irls_fit(Dataset(X, y))
            decomp = spectral_decompose(X, fit.v_diag)
            traces.append(np.sum(1.0 / decomp.lambdas))
        assert result.mse[EstimatorKind.ML] == pytest.approx(
            float(np.mean(traces)), rel=0.2
        )


class TestBatchedCellOracle:
    def test_small_cell(self):
        assert_matches_reference(SMALL_CELL)

    @pytest.mark.parametrize("p", [4, 6, 8, 12])
    def test_one_cell_per_p(self, p):
        config = SimulationConfig(
            n=200, p=p, rho=0.99, replications=30, seed=100 + p,
            ptv_threshold=ptv_for_p(p), components=components_for_p(p),
        )
        assert_matches_reference(config)

    def test_more_replications_than_one_block(self):
        config = SimulationConfig(n=120, p=4, rho=0.9, replications=150, seed=3)
        assert config.replications > 2 * REPLICATION_BLOCK
        assert_matches_reference(config)

    def test_partial_divergence_raw_scaling(self):
        # raw mode also runs the per-replication component rule
        result = assert_matches_reference(PARTIAL_RAW)
        assert result.divergent_replications == 13

    def test_partial_divergence_fixed_norm(self):
        result = assert_matches_reference(PARTIAL_FIXED)
        assert result.divergent_replications == 12


class TestStudyGrid:
    def test_default_grid_size(self):
        assert len(StudyGrid()) == 48

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("p_values", (4, 6, 4), "p_values lists 4 more than once"),
            ("n_values", (200, 200), "n_values lists 200 more than once"),
            ("rho_values", (0.8, 0.9, 0.9), "rho_values lists 0.9 more than once"),
        ],
    )
    def test_repeated_value_rejected(self, field, values, message):
        with pytest.raises(ValueError) as err:
            StudyGrid(**{field: values})
        assert str(err.value) == message

    def test_ptv_rule(self):
        assert ptv_for_p(6) == 0.83
        for p in (4, 8, 12):
            assert ptv_for_p(p) == 0.75

    def test_config_expansion(self):
        grid = StudyGrid(p_values=(4, 6), n_values=(100,), rho_values=(0.8, 0.9))
        base = SimulationConfig(n=100, p=4, rho=0.8, replications=10, seed=77)
        configs = study_configs(grid, base)
        assert len(configs) == 4
        assert [c.p for c in configs] == [4, 4, 6, 6]
        assert configs[0].ptv_threshold == 0.75
        assert configs[2].ptv_threshold == 0.83
        assert len({c.seed for c in configs}) == 4

    def test_cell_seeds_stable(self):
        assert derive_cell_seed(123, 0) == derive_cell_seed(123, 0)
        assert derive_cell_seed(123, 0) != derive_cell_seed(123, 1)
        assert derive_cell_seed(123, 5) != derive_cell_seed(124, 5)


class TestRunStudy:
    GRID = StudyGrid(p_values=(3, 4), n_values=(120,), rho_values=(0.8, 0.9))
    BASE = SimulationConfig(n=120, p=3, rho=0.8, replications=25, seed=31415)

    def test_serial_matches_parallel(self):
        serial = run_study(self.GRID, self.BASE)
        parallel = run_study(self.GRID, self.BASE, workers=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.config == b.config
            for kind in EstimatorKind:
                assert a.mse[kind] == b.mse[kind]

    def test_rerun_identical(self):
        first = run_study(self.GRID, self.BASE)
        second = run_study(self.GRID, self.BASE)
        for a, b in zip(first, second):
            assert a.mse == b.mse


class TestRunCells:
    # every replication of the second cell diverges at n = 3
    GRID = StudyGrid(p_values=(2,), n_values=(3,), rho_values=(0.5, 0.6))
    BASE = SimulationConfig(n=3, p=2, rho=0.5, replications=4, seed=3)

    def test_failure_reported_in_place(self):
        configs = study_configs(self.GRID, self.BASE)
        serial = run_cells(configs)
        parallel = run_cells(configs, workers=2)
        for outcomes in (serial, parallel):
            assert isinstance(outcomes[0], CellResult)
            assert isinstance(outcomes[1], CellFailure)
            assert outcomes[1].config == configs[1]
            assert "all 4 replications diverged" in outcomes[1].error
        assert serial[0].mse == parallel[0].mse
        assert serial[1] == parallel[1]
        assert serial[1].to_dict() == {
            "n": 3, "p": 2, "rho": 0.6, "error": serial[1].error,
        }

    @pytest.mark.parametrize("cells, pool_size", [(2, 2), (1, None)])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, cells,
                                                  pool_size):
        started = []

        class StandIn:
            # records the pool size and runs the cells in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", StandIn)
        configs = study_configs(self.GRID, self.BASE)[:cells]
        outcomes = run_cells(configs, workers=5000)
        assert started == ([] if pool_size is None else [pool_size])
        assert outcomes == run_cells(configs)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_run_study_raises_with_coordinates(self, workers):
        with pytest.raises(CellFailedError) as err:
            run_study(self.GRID, self.BASE, workers=workers)
        assert (err.value.n, err.value.p, err.value.rho) == (3, 2, 0.6)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=4, p=4, rho=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(n=100, p=4, rho=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(n=100, p=4, rho=0.5, replications=0)
        with pytest.raises(ValueError):
            SimulationConfig(n=100, p=4, rho=0.5, design_scaling="other")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError) as err:
            SimulationConfig(n=100, p=4, rho=0.5, seed=-1)
        assert str(err.value) == "seed must be a non-negative integer, got -1"
        SimulationConfig(n=100, p=4, rho=0.5, seed=0)

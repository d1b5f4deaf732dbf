import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

import liulogit
from liulogit import (
    BatchFit,
    DecompositionError,
    EstimatorKind,
    EstimatorSpec,
    FitConfig,
    LogisticFit,
    ShrinkageParams,
    SimulationConfig,
    SingularSystemError,
    SpectralDecomposition,
    batch_estimates,
    choose_d,
    choose_k,
    choose_k_batch,
    filter_factors,
    ltl_estimate,
    mle_estimate,
    pclr_estimate,
    pcltl_estimate,
    point_estimate,
    select_components,
    select_parameters,
    simulate_cell,
    spectral_decompose,
    spectral_decompose_batch,
)
from liulogit import estimators, model, simulation
from liulogit.model import Dataset, irls_fit, irls_fit_batch

from _oracles import dense_decompose
from _util import (
    correlated_design,
    duplicated_column_data,
    gram_chunk_budget,
    random_dataset,
    repeated_column_weights,
    tight_fit,
)


def synthetic_fit(beta, v_diag, z):
    """LogisticFit built by hand for purely algebraic checks."""
    return LogisticFit(
        beta=np.asarray(beta, dtype=float),
        v_diag=np.asarray(v_diag, dtype=float),
        z=np.asarray(z, dtype=float),
        iterations=1,
        converged=True,
        final_step_norm=0.0,
    )


def spd_instance(p, rng, n=50):
    """A converged fit on random data plus its decomposition."""
    dataset, _ = random_dataset(n, p, rng)
    fit = tight_fit(dataset)
    decomp = spectral_decompose(dataset.X, fit.v_diag)
    return dataset, fit, decomp


class TestSpectralDecompose:
    def test_identity_matrix(self):
        X = np.eye(3)
        decomp = spectral_decompose(X, np.full(3, 0.25))
        assert np.allclose(decomp.lambdas, 0.25)
        assert np.allclose(np.abs(decomp.T), np.eye(3))

    def test_diagonal_ordering_and_signs(self):
        X = np.diag([4.0, 1.0])
        decomp = spectral_decompose(X, np.full(2, 0.25))
        assert np.allclose(decomp.lambdas, [4.0, 0.25])
        assert np.allclose(decomp.T, np.eye(2))

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A = rng.standard_normal((5, 5))
            A = A @ A.T + 5.0 * np.eye(5)
            X = np.linalg.cholesky(A).T
            decomp = spectral_decompose(X, np.ones(5))
            err = np.linalg.norm(decomp.reconstruct() - A) / np.linalg.norm(A)
            assert err < 1e-8

    def test_orthonormality(self):
        rng = np.random.default_rng(12)
        _, _, decomp = spd_instance(6, rng)
        assert np.max(np.abs(decomp.T.T @ decomp.T - np.eye(6))) < 1e-10

    def test_reports_nonpd(self):
        X = np.ones((4, 2))  # rank one
        with pytest.raises(DecompositionError) as err:
            spectral_decompose(X, np.full(4, 0.25))
        assert err.value.smallest_eigenvalue <= 0.0

    @pytest.mark.parametrize("chunks", (1, 3))
    @pytest.mark.parametrize(
        "seed, n_range, p_range",
        [(seed, (50, 1500), (2, 5)) for seed in range(24)]
        + [(seed, (20_000, 100_000), (2, 10)) for seed in range(24, 36)],
    )
    def test_duplicated_column_is_never_a_usable_fit(self, seed, n_range, p_range,
                                                     chunks, monkeypatch):
        # rounding in the packed X'VX can leave a positive smallest
        # eigenvalue: measured over 91 000 repeated-column designs (n 50 to
        # 100 000, p 2 to 12, one chunk and 2 to 8), it reached 3.3 eps
        # lambda_max at p = 2, 0.17 of what positive_definite asks for
        data = duplicated_column_data(seed, n_range, p_range)
        if chunks > 1:
            budget = gram_chunk_budget(*data.X.shape, chunks)
            monkeypatch.setattr(model, "GRAM_CHUNK_BYTES", budget)
        try:
            fit = irls_fit(data)
        except SingularSystemError:
            return
        with pytest.raises(DecompositionError, match="numerically singular"):
            spectral_decompose(data.X, fit.v_diag)

    @pytest.mark.parametrize("seed", (1620, 4949, 12112, 19733))
    def test_repeated_column_rounding_is_not_positive_definite(self, seed):
        # designs whose packed X'VX decomposed to a lambda_min between
        # 1.2 p eps and 1.7 p eps lambda_max with OpenBLAS 0.3.31
        X, V = repeated_column_weights(seed)
        assert not spectral_decompose_batch(X, V).positive_definite.any()

    def test_singular_message_names_both_eigenvalues(self):
        X = np.column_stack([np.arange(1.0, 5.0), np.arange(1.0, 5.0)])
        with pytest.raises(DecompositionError) as err:
            spectral_decompose(X, np.full(4, 0.25))
        smallest, largest = err.value.smallest_eigenvalue, 2 * 0.25 * 30.0
        assert str(err.value) == (
            f"X'VX numerically singular (smallest eigenvalue {smallest:.3e}, "
            f"largest {largest:.3e}): collinear or badly scaled columns"
        )

    def test_reports_nonfinite(self):
        v = np.full(4, 0.25)
        v[2] = np.inf
        with pytest.raises(DecompositionError, match="non-finite entries"):
            spectral_decompose(np.eye(4) + 1.0, v)

    @pytest.mark.parametrize(
        "n, p, weight, scale",
        [
            # one infinite weight: the product's sums can meet inf - inf
            (500, 6, np.inf, 1.0),
            # the same in the dense product of a larger design
            (20_000, 6, np.inf, 1.0),
            # a column whose squares overflow
            (100, 3, 0.25, 1e200),
            # finite X'VX entries whose symmetrized sum overflows
            (100, 3, 0.25, 2.2e153),
        ],
        ids=["inf-weight", "inf-weight-chunked", "overflow-1e200", "overflow-2.2e153"],
    )
    def test_nonfinite_is_an_error_not_a_warning(self, n, p, weight, scale):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, p))
        X[:, 1] *= scale
        v = rng.random(n)
        v[n // 2] = weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecompositionError, match="non-finite entries"):
                spectral_decompose(X, v)


class TestSelectComponents:
    def test_exact_boundary(self):
        assert select_components(np.array([3.0, 1.0]), 0.75) == 1

    def test_flat_spectrum(self):
        assert select_components(np.ones(4), 0.75) == 3

    def test_always_at_least_one(self):
        assert select_components(np.array([10.0, 0.1]), 0.01) == 1

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lam = np.sort(rng.uniform(0.01, 5.0, size=rng.integers(2, 9)))[::-1]
            threshold = rng.uniform(0.05, 1.0)
            r = select_components(lam, threshold)
            shares = np.cumsum(lam) / lam.sum()
            assert shares[r - 1] >= threshold
            assert r == 1 or shares[r - 2] < threshold

    @staticmethod
    def descending_spectra(rng, p, rows=1000):
        return np.sort(rng.uniform(0.01, 5.0, size=(rows, p)), axis=1)[:, ::-1]

    def test_full_share_keeps_every_component(self):
        rng = np.random.default_rng(16)
        for p in range(2, 41):
            lam = self.descending_spectra(rng, p)
            np.testing.assert_array_equal(select_components(lam, 1.0), p)
            for row in lam[:200]:
                assert select_components(row, 1.0) == p

    def test_never_more_than_p_just_below_one(self):
        rng = np.random.default_rng(17)
        threshold = np.nextafter(1.0, 0.0)
        for p in range(2, 41):
            r = select_components(self.descending_spectra(rng, p), threshold)
            assert r.max() <= p

    def test_full_share_splits_a_fit(self):
        for seed in range(8):
            dataset, _ = random_dataset(300, 12, np.random.default_rng(seed))
            fit = tight_fit(dataset)
            decomp = spectral_decompose(dataset.X, fit.v_diag)
            split = decomp.split(select_components(decomp.lambdas, 1.0))
            assert split.r == 12

    def test_high_correlation_design_keeps_one(self):
        rng = np.random.default_rng(14)
        dataset, _ = random_dataset(400, 4, rng, rho=0.99, beta_scale=0.3)
        fit = tight_fit(dataset)
        decomp = spectral_decompose(dataset.X, fit.v_diag)
        assert select_components(decomp.lambdas, 0.75) == 1


class TestMleEstimate:
    def test_intercept_only(self):
        data = Dataset(X=np.ones((8, 1)), y=np.array([1.0, 0.0] * 4))
        fit = tight_fit(data)
        assert mle_estimate(fit, data.X)[0] == pytest.approx(0.0, abs=1e-10)

    def test_matches_irls_fixed_point(self):
        rng = np.random.default_rng(15)
        dataset, _ = random_dataset(100, 4, rng)
        fit = irls_fit(dataset)
        assert np.max(np.abs(mle_estimate(fit, dataset.X) - fit.beta)) < 1e-8

    def test_matches_independent_maximizer(self):
        rng = np.random.default_rng(16)
        dataset, _ = random_dataset(50, 2, rng)
        fit = tight_fit(dataset)
        X, y = dataset.X, dataset.y

        def negloglik(b):
            eta = X @ b
            return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

        def grad(b):
            pi = 1.0 / (1.0 + np.exp(-(X @ b)))
            return X.T @ (pi - y)

        res = minimize(negloglik, np.zeros(2), jac=grad, method="BFGS",
                       options={"gtol": 1e-12})
        assert np.max(np.abs(mle_estimate(fit, X) - res.x)) < 1e-6


class TestLtlEstimate:
    def test_limit_reduces_to_ml(self):
        rng = np.random.default_rng(17)
        dataset, fit, _ = spd_instance(3, rng)
        params = ShrinkageParams(k=1e-12, d=0.0)
        assert np.max(np.abs(
            ltl_estimate(fit, dataset.X, params) - mle_estimate(fit, dataset.X)
        )) < 1e-6

    def test_one_dimensional_arithmetic(self):
        # X'VX = 2, X'Vz = 4, so b_ml = 2 and ltl(1,1) = (4 - 2)/3
        fit = synthetic_fit(beta=[2.0], v_diag=[0.25, 0.25], z=[4.0, 4.0])
        X = np.array([[2.0], [2.0]])
        est = ltl_estimate(fit, X, ShrinkageParams(k=1.0, d=1.0))
        assert est[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_spectral_form_equivalence(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            dataset, fit, decomp = spd_instance(4, rng)
            k, d = rng.uniform(0.1, 3.0), rng.uniform(-0.5, 0.5)
            direct = ltl_estimate(fit, dataset.X, ShrinkageParams(k=k, d=d))
            rhs = dataset.X.T @ (fit.v_diag * fit.z)
            lam, T = decomp.lambdas, decomp.T
            eigen = T @ ((lam - d) / ((lam + k) * lam) * (T.T @ rhs))
            assert np.max(np.abs(direct - eigen)) < 1e-10


class TestPclrEstimate:
    def test_full_rank_equals_ml(self):
        rng = np.random.default_rng(19)
        dataset, fit, decomp = spd_instance(4, rng)
        est = pclr_estimate(fit, dataset.X, decomp.split(4))
        assert np.max(np.abs(est - mle_estimate(fit, dataset.X))) < 1e-10

    def test_projection_kills_dropped_coordinate(self):
        # X'VX = diag(4, 1) with identity eigenvectors, b_ml = (1.5, -2)
        fit = synthetic_fit(
            beta=[1.5, -2.0], v_diag=[0.25] * 3, z=[6.0, -4.0, 0.0]
        )
        X = np.array([[4.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        decomp = spectral_decompose(X, fit.v_diag)
        est = pclr_estimate(fit, X, decomp.split(1))
        assert est[0] == pytest.approx(1.5, abs=1e-12)
        assert est[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_paper_forms_agree(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            dataset, fit, decomp = spd_instance(5, rng)
            r = int(rng.integers(1, 6))
            split = decomp.split(r)
            solve_form = pclr_estimate(fit, dataset.X, split)
            projector_form = split.t_r @ (split.t_r.T @ mle_estimate(fit, dataset.X))
            assert np.max(np.abs(solve_form - projector_form)) < 1e-10

    def test_output_in_retained_span(self):
        rng = np.random.default_rng(21)
        dataset, fit, decomp = spd_instance(5, rng)
        split = decomp.split(2)
        est = pclr_estimate(fit, dataset.X, split)
        assert np.max(np.abs(split.t_tail.T @ est)) < 1e-10


class TestPcltlEstimate:
    def test_reduces_to_pclr(self):
        rng = np.random.default_rng(22)
        dataset, fit, decomp = spd_instance(4, rng)
        split = decomp.split(2)
        params = ShrinkageParams(k=1e-10, d=0.0)
        assert np.max(np.abs(
            pcltl_estimate(fit, dataset.X, split, params)
            - pclr_estimate(fit, dataset.X, split)
        )) < 1e-6

    def test_full_rank_reduces_to_ltl(self):
        rng = np.random.default_rng(23)
        dataset, fit, decomp = spd_instance(4, rng)
        params = ShrinkageParams(k=0.7, d=0.2)
        assert np.max(np.abs(
            pcltl_estimate(fit, dataset.X, decomp.split(4), params)
            - ltl_estimate(fit, dataset.X, params)
        )) < 1e-10

    def test_full_reduction_chain_to_ml(self):
        rng = np.random.default_rng(24)
        dataset, fit, decomp = spd_instance(3, rng)
        params = ShrinkageParams(k=1e-10, d=0.0)
        assert np.max(np.abs(
            pcltl_estimate(fit, dataset.X, decomp.split(3), params)
            - mle_estimate(fit, dataset.X)
        )) < 1e-6

    def test_linear_map_of_pclr(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            dataset, fit, decomp = spd_instance(5, rng)
            r = int(rng.integers(1, 6))
            split = decomp.split(r)
            k, d = rng.uniform(0.1, 2.0), rng.uniform(-0.5, 0.5)
            params = ShrinkageParams(k=k, d=d)
            pcltl = pcltl_estimate(fit, dataset.X, split, params)
            lam_r = split.lambdas_r
            mapped = split.t_r @ (
                (lam_r - d) / (lam_r + k)
                * (split.t_r.T @ pclr_estimate(fit, dataset.X, split))
            )
            assert np.max(np.abs(pcltl - mapped)) < 1e-10

    def test_eigen_and_matrix_paths_agree(self):
        # oracle: the defining dense-matrix expression
        # T_r (R + kI)^{-1} (R - dI) R^{-1} T_r'X'Vz with R = T_r'X'VX T_r
        rng = np.random.default_rng(26)
        for p in (2, 4, 8):
            dataset, fit, decomp = spd_instance(p, rng, n=80)
            r = max(1, p - 1)
            split = decomp.split(r)
            params = ShrinkageParams(k=0.5, d=0.1)
            eigen = pcltl_estimate(fit, dataset.X, split, params)
            X, t_r = dataset.X, split.t_r
            gram = (X * fit.v_diag[:, None]).T @ X
            rhs = X.T @ (fit.v_diag * fit.z)
            reduced = t_r.T @ gram @ t_r
            eye = np.eye(r)
            inner = (reduced - params.d * eye) @ np.linalg.solve(reduced, t_r.T @ rhs)
            matrix = t_r @ np.linalg.solve(reduced + params.k * eye, inner)
            assert np.max(np.abs(eigen - matrix)) < 1e-10


class TestParameterRules:
    def test_choose_d_equal_eigenvalues(self):
        assert choose_d(np.array([1.0, 1.0])) == pytest.approx(0.25)

    def test_choose_d_min_over_shares(self):
        assert choose_d(np.array([4.0, 1.0])) == pytest.approx(0.25)

    def test_choose_d_small_eigenvalue(self):
        value = choose_d(np.array([9.0, 3.0, 0.01]))
        assert value == pytest.approx(0.5 * 0.01 / 1.01, abs=1e-12)

    def test_choose_d_range(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            lam = rng.uniform(1e-4, 100.0, size=5)
            assert 0.0 < choose_d(lam) < 0.5

    def test_choose_k_single_term(self):
        sel = choose_k(np.array([1.0]), np.array([1.0]), d=0.25)
        assert sel.value == pytest.approx(0.5)
        assert not sel.clamped

    def test_choose_k_two_terms(self):
        sel = choose_k(np.array([2.0, 1.0]), np.array([1.0, 1.0]), d=0.0)
        assert sel.value == pytest.approx(1.0)

    def test_choose_k_clamps_nonpositive(self):
        sel = choose_k(np.array([1.0, 1.0]), np.array([1.0, 1.0]), d=0.9)
        assert sel.clamped
        assert sel.value == 1e-4


UNCONVERGED = LogisticFit(
    beta=np.zeros(1), v_diag=np.array([0.25]), z=np.zeros(1), iterations=100,
    converged=False, final_step_norm=1.0,
)


class TestValidationMessages:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: SpectralDecomposition(np.ones((2, 3)), np.ones(2)),
                         "T must be square", id="decomposition-not-square"),
            pytest.param(lambda: SpectralDecomposition(np.eye(2), np.ones(3)),
                         "lambdas length must match T", id="decomposition-length"),
            pytest.param(lambda: SpectralDecomposition(np.eye(2), [1.0, 2.0]),
                         "lambdas must be sorted descending", id="decomposition-order"),
            pytest.param(lambda: SpectralDecomposition(np.stack([np.eye(2)] * 3),
                                                       np.ones((2, 2))),
                         "lambdas length must match T", id="stacked-decomposition-length"),
            pytest.param(lambda: SpectralDecomposition(np.stack([np.eye(2)] * 3),
                                                       [[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]]),
                         "lambdas must be sorted descending",
                         id="stacked-decomposition-order"),
            pytest.param(lambda: SpectralDecomposition(np.eye(2), [2.0, 1.0]).split(3),
                         "r must be an integer in [1, 2], got 3", id="split-r"),
            pytest.param(lambda: select_components([1.0, 0.0], 0.75),
                         "lambdas must be positive and sorted descending",
                         id="components-lambdas"),
            # NaN is not positive: no rule reads it as a share, a d or a clamped k
            pytest.param(lambda: select_components([3.0, np.nan, 1.0], 0.75),
                         "lambdas must be positive and sorted descending",
                         id="components-nan"),
            pytest.param(lambda: select_components([[3.0, 2.0], [np.nan, 1.0]], 0.75),
                         "lambdas must be positive and sorted descending",
                         id="stacked-components-nan"),
            pytest.param(lambda: select_components([2.0, 1.0], 1.5),
                         "ptv_threshold must lie in (0, 1]", id="components-ptv"),
            pytest.param(lambda: filter_factors(EstimatorKind.PCLR, [2.0, 1.0], r=3),
                         "r must be an integer in [1, 2], got 3", id="factors-r"),
            pytest.param(lambda: point_estimate(UNCONVERGED, np.ones((2, 1)),
                                                EstimatorSpec(EstimatorKind.ML)),
                         "estimator requires a converged fit", id="point-unconverged"),
            pytest.param(lambda: choose_d([1.0, 0.0]),
                         "lambdas must be positive", id="choose-d-lambdas"),
            pytest.param(lambda: choose_d([3.0, np.nan]),
                         "lambdas must be positive", id="choose-d-nan"),
            pytest.param(lambda: choose_k([1.0, -1.0], [1.0, 1.0], 0.1),
                         "lambdas must be positive", id="choose-k-lambdas"),
            pytest.param(lambda: choose_k([3.0, np.nan, 1.0], [1.0, 1.0, 1.0], 0.1),
                         "lambdas must be positive", id="choose-k-nan"),
            pytest.param(lambda: choose_k([1.0], [1.0, 1.0], 0.1),
                         "lambdas and alpha_hat must have equal length",
                         id="choose-k-length"),
        ],
    )
    def test_rejects_with_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestSpecsAndDispatch:
    def test_spec_validation(self):
        params = ShrinkageParams(k=1.0, d=0.0)
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.ML, params=params)
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.LTL)
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.PCLR)
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.PCLTL, params=params)

    @pytest.mark.parametrize(
        "kind, with_params, r, message",
        [
            (EstimatorKind.ML, True, None, "MLE takes no params"),
            (EstimatorKind.LTL, False, None, "LTL requires params"),
            (EstimatorKind.PCLR, False, None, "PCLR requires r"),
            (EstimatorKind.LTL, True, 2, "LTL takes no r"),
            (EstimatorKind.PCLR, False, 0, "r must be an integer >= 1, got 0"),
        ],
    )
    def test_spec_validation_messages(self, kind, with_params, r, message):
        params = ShrinkageParams(k=1.0, d=0.0) if with_params else None
        with pytest.raises(ValueError, match=f"^{message}$"):
            EstimatorSpec(kind, params=params, r=r)

    def test_kind_table(self):
        table = {kind: (kind.shrinks, kind.truncates) for kind in EstimatorKind}
        assert table == {
            EstimatorKind.ML: (False, False),
            EstimatorKind.LTL: (True, False),
            EstimatorKind.PCLR: (False, True),
            EstimatorKind.PCLTL: (True, True),
        }

    def test_spec_of_keeps_only_the_inputs_read(self):
        params = ShrinkageParams(k=1.0, d=0.0)
        assert [EstimatorSpec.of(kind, params, 2) for kind in EstimatorKind] == [
            EstimatorSpec(EstimatorKind.ML),
            EstimatorSpec(EstimatorKind.LTL, params=params),
            EstimatorSpec(EstimatorKind.PCLR, r=2),
            EstimatorSpec(EstimatorKind.PCLTL, params=params, r=2),
        ]
        with pytest.raises(ValueError, match="^PCLTL requires r$"):
            EstimatorSpec.of(EstimatorKind.PCLTL, params)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ShrinkageParams(k=0.0, d=0.0)
        with pytest.raises(ValueError):
            ShrinkageParams(k=1.0, d=np.inf)

    def test_point_estimate_dispatch(self):
        rng = np.random.default_rng(28)
        dataset, fit, decomp = spd_instance(3, rng)
        params = ShrinkageParams(k=0.5, d=0.1)
        split = decomp.split(2)
        cases = [
            (EstimatorSpec(EstimatorKind.ML), mle_estimate(fit, dataset.X)),
            (EstimatorSpec(EstimatorKind.LTL, params=params),
             ltl_estimate(fit, dataset.X, params)),
            (EstimatorSpec(EstimatorKind.PCLR, r=2),
             pclr_estimate(fit, dataset.X, split)),
            (EstimatorSpec(EstimatorKind.PCLTL, params=params, r=2),
             pcltl_estimate(fit, dataset.X, split, params)),
        ]
        for spec, expected in cases:
            assert np.allclose(point_estimate(fit, dataset.X, spec), expected)


def batched_instance(n, p, rho, rows, seed):
    """A design, its converged batched fits and their decomposition."""
    rng = np.random.default_rng(seed)
    X = correlated_design(n, p, rho, rng)
    pi = 1.0 / (1.0 + np.exp(-(X @ (rng.standard_normal(p) / np.sqrt(p)))))
    fit = irls_fit_batch(X, (rng.random((rows, n)) < pi).astype(float))
    assert fit.converged.all()
    return X, fit, spectral_decompose_batch(X, fit.v_diag)


def row_fit(fit: BatchFit, i):
    # the estimators read no working response, and a batch forms none
    return synthetic_fit(fit.beta[i], fit.v_diag[i], np.zeros_like(fit.v_diag[i]))


class TestBatchedSpectralCore:
    def test_decomposition_rows_match_scalar(self):
        X, fit, decomp = batched_instance(120, 5, 0.95, 12, seed=40)
        assert decomp.positive_definite.all()
        for i in range(12):
            want = dense_decompose(X, fit.v_diag[i])
            single = spectral_decompose(X, fit.v_diag[i])
            for lam, T in ((decomp.lambdas[i], decomp.T[i]), (single.lambdas, single.T)):
                assert np.max(np.abs(lam - want.lambdas)) <= 1e-12
                assert np.max(np.abs(T - want.T)) <= 1e-10

    def test_indefinite_and_nonfinite_rows_flagged(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((30, 3))
        v = np.full((3, 30), 0.2)
        v[1, :20] = -1.0  # indefinite X'VX
        v[2, 0] = np.inf
        decomp = spectral_decompose_batch(X, v)
        assert decomp.positive_definite.tolist() == [True, False, False]
        for row in (1, 2):
            with pytest.raises(DecompositionError):
                spectral_decompose(X, v[row])

    def test_rank_one_design_flagged(self):
        decomp = spectral_decompose_batch(np.ones((4, 2)), np.full((2, 4), 0.25))
        assert not decomp.positive_definite.any()

    def test_one_type_and_one_k_rule(self):
        for module in (liulogit, estimators):
            assert module.BatchDecomposition is SpectralDecomposition
            assert module.choose_k_batch is choose_k
        assert {"BatchDecomposition", "choose_k_batch"} <= set(estimators.__all__)

    def test_stacked_decomposition_and_row_selection(self):
        _, _, decomp = batched_instance(120, 4, 0.9, 6, seed=47)
        stacked = SpectralDecomposition(T=decomp.T, lambdas=decomp.lambdas)
        assert stacked.T.shape == (6, 4, 4) and stacked.p == 4
        mask = np.array([True, False, True, True, False, False])
        for rows in (mask, np.flatnonzero(mask), 2):
            picked = stacked.select(rows)
            assert isinstance(picked, SpectralDecomposition)
            assert np.array_equal(picked.T, decomp.T[rows])
            assert np.array_equal(picked.lambdas, decomp.lambdas[rows])
        assert stacked.select(2).split(2).t_r.shape == (4, 2)

    def test_positive_definite_reads_smallest_eigenvalue(self):
        lam = np.array([[2.0, 1.0], [np.nan, np.nan], [1.0, 0.0], [1.0, -1.0]])
        decomp = SpectralDecomposition(T=np.stack([np.eye(2)] * 4), lambdas=lam)
        assert decomp.positive_definite.tolist() == [True, False, False, False]
        assert decomp.select(0).positive_definite

    def test_stacked_reconstruct_is_each_row(self):
        X, fit, decomp = batched_instance(150, 5, 0.99, 8, seed=48)
        stacked = decomp.reconstruct()
        assert stacked.shape == (8, 5, 5)
        for i in range(8):
            T, lam = decomp.T[i], decomp.lambdas[i]
            want = T @ np.diag(lam) @ T.T
            assert np.max(np.abs(stacked[i] - want)) <= 1e-12 * lam[0]
            gram = X.T @ (fit.v_diag[i][:, None] * X)
            assert np.max(np.abs(stacked[i] - gram)) <= 1e-10 * lam[0]

    def test_choose_k_returns_by_input_rank(self):
        rng = np.random.default_rng(49)
        lam = np.sort(rng.uniform(0.01, 5.0, size=(12, 4)), axis=1)[:, ::-1]
        alpha = rng.standard_normal((12, 4))
        d = choose_d(lam) + np.where(np.arange(12) % 4 == 0, 0.9, 0.0)
        batch = choose_k(lam, alpha, d)
        assert batch.value.shape == batch.clamped.shape == (12,)
        assert batch.clamped.any() and not batch.clamped.all()
        for i in range(12):
            single = choose_k(lam[i], alpha[i], d[i])
            assert type(single.value) is float and type(single.clamped) is bool
            assert batch.value[i] == pytest.approx(single.value, rel=1e-12)
            assert batch.clamped[i] == single.clamped

    def test_rules_take_batch_axis(self):
        rng = np.random.default_rng(42)
        lam = np.sort(rng.uniform(0.01, 5.0, size=(30, 5)), axis=1)[:, ::-1]
        alpha = rng.standard_normal((30, 5)) * rng.uniform(0.0, 3.0, size=(30, 1))
        alpha[0] = 0.0  # floored eigencoordinates
        d = choose_d(lam)
        ks = choose_k_batch(lam, alpha, d + np.where(np.arange(30) % 3 == 0, 0.9, 0.0))
        r = select_components(lam, 0.6)
        assert ks.clamped.any() and not ks.clamped.all()
        for i in range(30):
            assert d[i] == choose_d(lam[i])
            d_i = d[i] + (0.9 if i % 3 == 0 else 0.0)
            single = choose_k(lam[i], alpha[i], d_i)
            assert ks.value[i] == pytest.approx(single.value, rel=1e-12)
            assert ks.clamped[i] == single.clamped
            assert r[i] == select_components(lam[i], 0.6)

    def test_estimates_match_scalar_estimators(self):
        X, fit, decomp = batched_instance(200, 6, 0.99, 10, seed=43)
        r = np.arange(10) % 6 + 1
        k = np.linspace(0.05, 3.0, 10)
        d = np.linspace(-0.2, 0.4, 10)
        estimates = batch_estimates(fit, decomp, r, k, d)
        for i in range(10):
            single = spectral_decompose(X, fit.v_diag[i])
            split = single.split(int(r[i]))
            params = ShrinkageParams(k=k[i], d=d[i])
            expected = {
                EstimatorKind.ML: fit.beta[i],
                EstimatorKind.LTL: ltl_estimate(row_fit(fit, i), X, params),
                EstimatorKind.PCLR: pclr_estimate(row_fit(fit, i), X, split),
                EstimatorKind.PCLTL: pcltl_estimate(row_fit(fit, i), X, split, params),
            }
            for kind, want in expected.items():
                assert np.max(np.abs(estimates[kind][i] - want)) <= 1e-10, kind


class TestSelectParameters:
    def test_rows_match_one_row_calls(self):
        X, fit, decomp = batched_instance(150, 5, 0.99, 12, seed=44)
        batch = select_parameters(decomp, fit.beta, 0.75)
        assert all(value.shape == (12,) for value in batch)
        for i in range(12):
            single = spectral_decompose(X, fit.v_diag[i])
            row = select_parameters(single, fit.beta[i], 0.75)
            assert all(value.shape == () for value in row)
            assert tuple(value[i] for value in batch) == tuple(row)
            r, k, d, clamped = row
            assert r == select_components(single.lambdas, 0.75)
            assert d == choose_d(single.lambdas)
            rule_k = choose_k(single.lambdas, single.T.T @ fit.beta[i], d)
            assert k == pytest.approx(rule_k.value, rel=1e-12)
            assert clamped == rule_k.clamped

    def test_given_r_reaches_every_row(self):
        _, fit, decomp = batched_instance(150, 5, 0.99, 6, seed=45)
        r = select_parameters(decomp, fit.beta, 0.75, r=2)[0]
        assert r.tolist() == [2] * 6

    @pytest.mark.parametrize("r", [0, 6])
    def test_given_r_outside_range_rejected(self, r):
        _, fit, decomp = batched_instance(150, 5, 0.99, 3, seed=45)
        with pytest.raises(ValueError, match=re.escape("r must be an integer in [1, 5]")):
            select_parameters(decomp, fit.beta, 0.75, r=r)

    def test_min_components_floors_then_caps(self):
        _, fit, decomp = batched_instance(150, 5, 0.99, 6, seed=46)
        rule_r = select_parameters(decomp, fit.beta, 0.5)[0]
        assert np.all(rule_r < 3)
        floored = select_parameters(decomp, fit.beta, 0.5, min_components=3)[0]
        assert floored.tolist() == [3] * 6
        capped = select_parameters(decomp, fit.beta, 0.5, min_components=9)[0]
        assert capped.tolist() == [5] * 6

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"k": 0.0}, "k must be positive"),
            ({"k": -1.0}, "k must be positive"),
            ({"k": np.inf}, "k must be positive"),
            ({"k": np.nan}, "k must be positive"),
            ({"d": np.nan}, "d must be finite"),
            ({"d": -np.inf}, "d must be finite"),
            # the order: ptv, r, k, d, as the fit command checks them
            ({"ptv_threshold": 2.0, "r": 0, "k": -1.0, "d": np.inf},
             "ptv_threshold must lie in (0, 1]"),
            ({"r": 0, "k": -1.0, "d": np.inf}, "r must be an integer in [1, 5], got 0"),
            ({"k": -1.0, "d": np.inf}, "k must be positive"),
        ],
    )
    def test_given_parameters_are_refused(self, given, message):
        _, fit, decomp = batched_instance(150, 5, 0.99, 3, seed=45)
        given = {"ptv_threshold": 0.75, **given}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_parameters(decomp, fit.beta, **given)

    def test_given_k_is_kept_unclamped(self):
        _, fit, decomp = batched_instance(150, 5, 0.99, 6, seed=47)
        # d above every eigenvalue drives the rule's k below zero
        big_d = 2.0 * float(decomp.lambdas.max())
        assert select_parameters(decomp, fit.beta, 0.75, d=big_d)[3].all()
        _, k, d, clamped = select_parameters(decomp, fit.beta, 0.75, k=0.7, d=big_d)
        assert k.tolist() == [0.7] * 6 and d.tolist() == [big_d] * 6
        assert not clamped.any()


def refusal_design():
    """A 120 x 3 logistic design, its response and its coefficients."""
    data, beta = random_dataset(120, 3, np.random.default_rng(5))
    return data.X, data.y, beta


def step_fit(X, Y):
    """The fits and decompositions of the estimation step on X."""
    block = estimators._estimate_block(X, Y, FitConfig(), 0.9)
    return block.fit, block.decomp


def refusal(fit, decomp, row):
    """The (type, message) ``_refuse_row`` raises for the row, or None."""
    reason = estimators._drop_reason(fit, decomp)
    try:
        estimators._refuse_row(estimators._Block(fit, decomp, reason, {}, {}), row)
    except (SingularSystemError, DecompositionError) as exc:
        return type(exc), str(exc)
    return None


def infinite_weight(X, y):
    # a synthetic stack: a converged fit whose X'VX meets an infinite weight
    fit = irls_fit_batch(X, y[None])
    v = fit.v_diag.copy()
    v[0, 0] = np.inf
    return fit, spectral_decompose_batch(X, v)


class TestRefuseRow:
    """Why the estimation step dropped a row: the error ``fit`` and
    ``compare`` print for it, one line each (see ``test_io_cli``)."""

    @pytest.mark.parametrize(
        "make, error, message",
        [
            # a zero column makes X'VX exactly singular at the first step
            pytest.param(
                lambda X, y: step_fit(X * [1.0, 1.0, 0.0], y[None]),
                SingularSystemError,
                "X'VX singular or IRLS step non-finite at iteration 1",
                id="singular-system",
            ),
            # y = 1[x1 > 0] is completely separated: the ML estimate diverges
            pytest.param(
                lambda X, y: step_fit(X, (X[:, [0]] > 0).T.astype(float)),
                SingularSystemError,
                "IRLS did not converge in 100 iterations (final step 1.208e+00)",
                id="not-converged",
            ),
            pytest.param(
                infinite_weight,
                DecompositionError,
                "X'VX contains non-finite entries",
                id="non-finite",
            ),
            # a column scaled by 1e8: IRLS converges and the final X'VX is
            # conditioned beyond 1/(10 p eps).  A repeated column (as in
            # test_io_cli) meets a singular Newton system instead on some
            # BLAS kernels.  The smallest eigenvalue is rounding, so the
            # expected line is formatted from this run's eigenvalues
            pytest.param(
                lambda X, y: step_fit(X * [1.0, 1.0, 1e8], y[None]),
                DecompositionError,
                "X'VX numerically singular (smallest eigenvalue {smallest:.3e}, "
                "largest {largest:.3e}): collinear or badly scaled columns",
                id="numerically-singular",
            ),
        ],
    )
    def test_each_reason(self, make, error, message):
        X, y, _ = refusal_design()
        fit, decomp = make(X, y)
        smallest, largest = decomp.lambdas[0, -1], decomp.lambdas[0, 0]
        message = message.format(smallest=smallest, largest=largest)
        assert refusal(fit, decomp, 0) == (error, message)

    def test_first_reason_wins(self):
        # a synthetic stack whose rows fail several reasons at once: row 0
        # all of them, row 1 all but the Newton system, row 2 only the
        # non-finite X'VX, row 3 only a rank-two X'VX, and row 4 none
        X, y, _ = refusal_design()
        fit = irls_fit_batch(X, np.tile(y, (5, 1)))
        assert fit.converged.all()
        fit = replace(
            fit,
            singular=np.array([True, False, False, False, False]),
            converged=np.array([False, False, True, True, True]),
            iterations=np.array([2, 100, 5, 5, 5]),
            final_step_norm=np.array([np.inf, 1.5, 0.0, 0.0, 0.0]),
        )
        v = fit.v_diag.copy()
        v[:3, 0] = np.inf
        v[3, 2:] = 0.0
        decomp = spectral_decompose_batch(X, v)
        assert [refusal(fit, decomp, row) for row in (0, 1, 2, 4)] == [
            (SingularSystemError, "X'VX singular or IRLS step non-finite at iteration 2"),
            (SingularSystemError,
             "IRLS did not converge in 100 iterations (final step 1.500e+00)"),
            (DecompositionError, "X'VX contains non-finite entries"),
            None,
        ]
        error, message = refusal(fit, decomp, 3)
        assert error is DecompositionError
        assert message.startswith("X'VX numerically singular (smallest eigenvalue ")

    def test_kept_exactly_when_nothing_is_raised(self):
        # one design, its ordinary responses interleaved with four that a
        # plane through the origin separates completely (X has no intercept)
        X, _, beta = refusal_design()
        rng = np.random.default_rng(6)
        pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
        ordinary = (rng.random((5, len(X))) < pi).astype(float)
        separated = np.array(
            [X[:, 0] > 0, X[:, 1] > 0, X[:, 2] < 0, X[:, 0] > X[:, 1]], dtype=float
        )
        Y = np.insert(ordinary, [0, 1, 3, 5], separated, axis=0)
        block = estimators._estimate_block(X, Y, FitConfig(), 0.9)
        fit, decomp, kept = block.fit, block.decomp, block.kept
        assert 0 < kept.sum() < len(Y)
        refused = [refusal(fit, decomp, row) is not None for row in range(len(Y))]
        assert kept.tolist() == [not row for row in refused]


class TestDropReason:
    """The one code per row that says why the estimation step dropped it:
    0 kept, 1 singular Newton system, 2 not converged, 3 non-finite X'VX,
    4 numerically singular; the first reason met wins."""

    def test_codes_of_a_synthetic_stack(self):
        # test_first_reason_wins' synthetic stack: row 0 fails every reason,
        # row 1 all but the Newton system, row 2 only the non-finite X'VX,
        # row 3 only a rank-two X'VX, and row 4 none
        X, y, _ = refusal_design()
        fit = irls_fit_batch(X, np.tile(y, (5, 1)))
        fit = replace(
            fit,
            singular=np.array([True, False, False, False, False]),
            converged=np.array([False, False, True, True, True]),
        )
        v = fit.v_diag.copy()
        v[:3, 0] = np.inf
        v[3, 2:] = 0.0
        decomp = spectral_decompose_batch(X, v)
        assert estimators._drop_reason(fit, decomp).tolist() == [1, 2, 3, 4, 0]

    def test_separated_rows_of_a_block(self):
        # test_kept_exactly_when_nothing_is_raised's block: five ordinary
        # responses with four completely separated ones interleaved
        X, _, beta = refusal_design()
        rng = np.random.default_rng(6)
        pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
        ordinary = (rng.random((5, len(X))) < pi).astype(float)
        separated = np.array(
            [X[:, 0] > 0, X[:, 1] > 0, X[:, 2] < 0, X[:, 0] > X[:, 1]], dtype=float
        )
        Y = np.insert(ordinary, [0, 1, 3, 5], separated, axis=0)
        block = estimators._estimate_block(X, Y, FitConfig(), 0.9)
        assert block.reason.tolist() == [2, 0, 2, 0, 0, 2, 0, 0, 2]
        # the rules and estimators ran on the five kept rows alone
        assert block.rule["r"].shape == block.estimates[EstimatorKind.ML].shape[:1] == (5,)

    def test_simulate_cell_counts_the_nonzero_codes(self, monkeypatch):
        # 60 replications of a 15 x 4 design are one block, and 12 of its
        # fits do not converge (with n = 15, many responses are separated)
        config = SimulationConfig(n=15, p=4, rho=0.9, replications=60, seed=7)
        blocks = []

        def recording(*args, **kwargs):
            blocks.append(estimators._estimate_block(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(simulation, "_estimate_block", recording)
        result = simulate_cell(config)
        assert len(blocks) == 1
        (block,) = blocks
        assert result.divergent_replications == np.count_nonzero(block.reason) == 12
        assert np.count_nonzero(block.kept) == config.replications - 12
        assert set(block.reason[~block.kept].tolist()) == {2}

    def test_cell_divides_the_block_sums_once(self, monkeypatch):
        # 70 replications are a block of 64 and one of 6; each CellResult
        # number is the blocks' sums, added in block order, over the kept count
        config = SimulationConfig(n=15, p=4, rho=0.9, replications=70, seed=8)
        blocks = []

        def recording(*args, **kwargs):
            blocks.append(estimators._estimate_block(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(simulation, "_estimate_block", recording)
        result = simulate_cell(config)
        assert [len(block.reason) for block in blocks] == [64, 6]
        _, beta = simulation.cell_design(config)
        totals = dict.fromkeys([*EstimatorKind, "r", "k", "d"], 0.0)
        for block in blocks:
            for kind in EstimatorKind:
                totals[kind] += float(np.sum((block.estimates[kind] - beta) ** 2))
            for name in ("r", "k", "d"):
                totals[name] += float(np.sum(block.rule[name]))
        kept = sum(int(np.count_nonzero(block.kept)) for block in blocks)
        assert 0 < kept < config.replications == kept + result.divergent_replications
        means = [result.mse[kind] for kind in EstimatorKind]
        means += [result.mean_r, result.mean_k, result.mean_d]
        expected = [total / kept for total in totals.values()]
        assert np.array(means).tobytes() == np.array(expected).tobytes()


COUNT_DECOMP = SpectralDecomposition(np.eye(3), [3.0, 2.0, 1.0])
COUNT_X = correlated_design(30, 3, 0.5, np.random.default_rng(3))
COUNT_Y = (np.random.default_rng(4).random((2, 30)) < 0.5).astype(float)
CELL = dict(n=100, p=4, rho=0.5)

# every count the library takes: its name, a call that passes it, a valid
# value and an integer out of range
COUNTS = {
    "select_parameters-r": (
        "r", lambda r: select_parameters(COUNT_DECOMP, np.ones(3), 0.75, r=r), 2, 4),
    "select_parameters-min_components": (
        "min_components",
        lambda m: select_parameters(COUNT_DECOMP, np.ones(3), 0.75, min_components=m), 2, 0),
    "estimate_block-r": (
        "r", lambda r: estimators._estimate_block(COUNT_X, COUNT_Y, FitConfig(), 0.75, r=r),
        2, 0),
    "ComponentSplit-r": ("r", lambda r: estimators.ComponentSplit(COUNT_DECOMP, r), 2, 4),
    "EstimatorSpec-r": ("r", lambda r: EstimatorSpec(EstimatorKind.PCLR, r=r), 2, 0),
    "filter_factors-r": (
        "r", lambda r: filter_factors(EstimatorKind.PCLTL, [3.0, 2.0, 1.0], r, 1.0, 0.0), 2, 4),
    "SimulationConfig-n": ("n", lambda n: SimulationConfig(**{**CELL, "n": n}), 5, 4),
    "SimulationConfig-p": ("p", lambda p: SimulationConfig(**{**CELL, "p": p}), 2, 1),
    "SimulationConfig-replications": (
        "replications", lambda m: SimulationConfig(replications=m, **CELL), 3, 0),
    "SimulationConfig-seed": ("seed", lambda s: SimulationConfig(seed=s, **CELL), 3, -1),
    "SimulationConfig-min_components": (
        "min_components", lambda m: SimulationConfig(min_components=m, **CELL), 3, 0),
    "SimulationConfig-components": (
        "components", lambda c: SimulationConfig(components=c, **CELL), 3, 5),
    "FitConfig-max_iterations": (
        "max_iterations", lambda m: FitConfig(max_iterations=m), 3, 0),
}


class TestCountContract:
    """Every count is checked by one helper: a Python or numpy integer in range
    passes, and a bool, a float (integral or not) or an integer out of range is
    refused with one ValueError that names the value."""

    @pytest.mark.parametrize("entry", list(COUNTS))
    @pytest.mark.parametrize(
        "bad", [2.5, True, np.float64(3.0), "out-of-range"],
        ids=["float", "bool", "numpy-float", "out-of-range"],
    )
    def test_refused_with_one_message(self, entry, bad):
        name, call, _, out_of_range = COUNTS[entry]
        value = out_of_range if isinstance(bad, str) else bad
        message = f"^{name} must be an integer (>= |in \\[).*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    @pytest.mark.parametrize("entry", list(COUNTS))
    def test_python_and_numpy_integers_pass(self, entry):
        _, call, valid, _ = COUNTS[entry]
        call(valid)
        call(np.int64(valid))

    def test_seed_of_any_size_passes(self):
        assert SimulationConfig(seed=2**64 + 1, **CELL).seed == 2**64 + 1

    def test_stacked_r_is_an_integer_array(self):
        lam = [[3.0, 2.0, 1.0]] * 2
        g = filter_factors(EstimatorKind.PCLR, lam, np.array([1, 3]))
        assert g.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        for r in (np.array([1.0, 3.0]), np.array([True, True]), np.array([0, 3])):
            with pytest.raises(ValueError, match="^r must be an integer in \\[1, 3\\], got"):
                filter_factors(EstimatorKind.PCLR, lam, r)


class TestInputsUntouched:
    """The estimation step never writes to its inputs: X, plain or as its
    ``_GramMap``, Y and the weight rows keep their bits.  Odd widths matter:
    ``model._even_stride`` copies an odd-width stack but returns an even-width
    one itself, so an in-place update of its result would reach the caller."""

    @pytest.mark.parametrize("n", [40, 41])
    @pytest.mark.parametrize("path", ["packed", "dense"])
    def test_inputs_keep_their_bits(self, monkeypatch, n, path):
        if path == "dense":
            monkeypatch.setattr(model, "GRAM_CHUNK_BYTES", gram_chunk_budget(n, 3, 2))
        rng = np.random.default_rng(n)
        X = correlated_design(n, 3, 0.9, rng)
        Y = (rng.random((6, n)) < 0.5).astype(float)
        gram = model._GramMap(X.copy())
        assert (gram.K is None) == (path == "dense")
        v = irls_fit_batch(X, Y).v_diag.copy()
        inputs = [X, Y, v, gram.X, gram.K if gram.XT is None else gram.XT]
        before = [a.tobytes() for a in inputs]
        for design in (X, gram):
            irls_fit_batch(design, Y)
            spectral_decompose_batch(design, v)
            estimators._estimate_block(design, Y, FitConfig(), 0.75)
            estimators._estimate_block(design, Y, FitConfig(), 0.75, r=2, k=1.0, d=0.1)
        assert [a.tobytes() for a in inputs] == before

import re

import numpy as np
import pytest
from scipy.optimize import minimize

from liulogit import (
    BatchFit,
    DecompositionError,
    EstimatorKind,
    EstimatorSpec,
    LogisticFit,
    ShrinkageParams,
    batch_estimates,
    choose_d,
    choose_k,
    choose_k_batch,
    ltl_estimate,
    mle_estimate,
    pclr_estimate,
    pcltl_estimate,
    point_estimate,
    select_components,
    select_parameters,
    spectral_decompose,
    spectral_decompose_batch,
)
from liulogit.model import Dataset, irls_fit, irls_fit_batch

from _oracles import dense_decompose
from _util import correlated_design, random_dataset, tight_fit


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

    def test_reports_nonfinite(self):
        v = np.full(4, 0.25)
        v[2] = np.inf
        with pytest.raises(DecompositionError, match="non-finite entries"):
            spectral_decompose(np.eye(4) + 1.0, v)


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
        with pytest.raises(ValueError, match=re.escape("r must lie in [1, 5]")):
            select_parameters(decomp, fit.beta, 0.75, r=r)

    def test_min_components_floors_then_caps(self):
        _, fit, decomp = batched_instance(150, 5, 0.99, 6, seed=46)
        rule_r = select_parameters(decomp, fit.beta, 0.5)[0]
        assert np.all(rule_r < 3)
        floored = select_parameters(decomp, fit.beta, 0.5, min_components=3)[0]
        assert floored.tolist() == [3] * 6
        capped = select_parameters(decomp, fit.beta, 0.5, min_components=9)[0]
        assert capped.tolist() == [5] * 6

    def test_given_k_is_kept_unclamped(self):
        _, fit, decomp = batched_instance(150, 5, 0.99, 6, seed=47)
        # d above every eigenvalue drives the rule's k below zero
        big_d = 2.0 * float(decomp.lambdas.max())
        assert select_parameters(decomp, fit.beta, 0.75, d=big_d)[3].all()
        _, k, d, clamped = select_parameters(decomp, fit.beta, 0.75, k=0.7, d=big_d)
        assert k.tolist() == [0.7] * 6 and d.tolist() == [big_d] * 6
        assert not clamped.any()

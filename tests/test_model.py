import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from liulogit import (
    Dataset,
    FitConfig,
    LogisticFit,
    SingularSystemError,
    irls_fit,
    irls_fit_batch,
    log_likelihood,
    logistic,
    predict_probabilities,
    spectral_decompose_batch,
    weight_diagonal,
    working_response,
)
from liulogit import model
from liulogit.model import _stable_loglik

from _oracles import scalar_irls
from _util import (
    correlated_design, count_gram_maps, newton_rounding, random_dataset, tight_fit,
)

LN3 = math.log(3.0)


class TestLogistic:
    """scipy's expit is the oracle for the package's one logistic."""

    def test_matches_scipy_expit(self):
        x = np.linspace(-800.0, 800.0, 400_001)
        np.testing.assert_allclose(logistic(x), expit(x), rtol=4e-16, atol=0)

    def test_saturates_exactly_without_warning(self):
        x = np.array([-np.inf, -1e4, -800.0, -746.0, 746.0, 800.0, 1e4, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi = logistic(x)
        assert np.array_equal(pi, [0.0] * 4 + [1.0] * 4)

    def test_logit_ln3_and_zero(self):
        assert logistic(np.array([0.0, LN3, -LN3])) == pytest.approx([0.5, 0.75, 0.25])


class TestStableLoglik:
    """The log1p form of sum(y*eta - log(1+exp(eta))) against np.logaddexp."""

    # each eta is its own one-term sum, so every element is compared
    ETA = np.linspace(-1000.0, 1000.0, 200_001)[:, None]

    def test_softplus_term_matches_logaddexp(self):
        # y = 0 leaves -log(1+exp(eta)); below the smallest normal float
        # (eta < -708) the values are subnormal and compared absolutely
        got = _stable_loglik(self.ETA, np.zeros_like(self.ETA))
        want = -np.logaddexp(0.0, self.ETA[:, 0])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=np.finfo(float).tiny)

    def test_response_term_matches_logaddexp(self):
        # y = 1: eta and log(1+exp(eta)) cancel for eta > 0, so both forms
        # are accurate to the rounding of eta itself
        got = _stable_loglik(self.ETA, np.ones_like(self.ETA))
        want = self.ETA[:, 0] - np.logaddexp(0.0, self.ETA[:, 0])
        assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(self.ETA[:, 0])))

    def test_no_overflow_warning(self):
        eta = np.array([[-1e4, -800.0, 0.0, 800.0, 1e4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _stable_loglik(eta, np.array([[0.0, 1.0, 0.0, 1.0, 0.0]]))
        assert value[0] == pytest.approx(-800.0 - math.log(2.0) - 1e4)


class TestPredictProbabilities:
    def test_zero_beta_gives_half(self):
        X = np.arange(12.0).reshape(4, 3)
        pi = predict_probabilities(X, np.zeros(3))
        assert np.allclose(pi, 0.5)

    def test_logit_ln3_gives_three_quarters(self):
        X = np.array([[LN3]])
        assert predict_probabilities(X, np.array([1.0]))[0] == pytest.approx(0.75)

    def test_clipping_floor(self):
        # logistic(-50) ~ 1.9e-22, far below the clip floor
        X = np.array([[-50.0]])
        pi = predict_probabilities(X, np.array([1.0]), clip=1e-10)
        assert pi[0] == 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict_probabilities(np.ones((3, 2)), np.ones(3))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        beta = rng.standard_normal(3)
        perm = rng.permutation(20)
        assert np.array_equal(
            predict_probabilities(X, beta)[perm],
            predict_probabilities(X[perm], beta),
        )


class TestLogLikelihood:
    def test_two_coin_flips(self):
        value = log_likelihood(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert value == pytest.approx(2.0 * math.log(0.5))

    def test_near_perfect_fit(self):
        eps = 1e-9
        value = log_likelihood(np.array([1.0]), np.array([1.0 - eps]))
        assert -1e-8 < value < 0.0

    def test_direct_sum(self):
        y = np.array([1.0, 1.0, 0.0])
        pi = np.array([0.9, 0.8, 0.3])
        expected = math.log(0.9) + math.log(0.8) + math.log(0.7)
        assert log_likelihood(y, pi) == pytest.approx(expected, abs=1e-12)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pi = rng.uniform(0.01, 0.99, size=10)
            y = (rng.random(10) < 0.5).astype(float)
            assert log_likelihood(y, pi) <= 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_likelihood(np.array([1.0]), np.array([1.0]))


class TestWeightDiagonal:
    def test_maximum_at_half(self):
        assert weight_diagonal(np.array([0.5]))[0] == 0.25

    def test_three_quarters(self):
        assert weight_diagonal(np.array([0.75]))[0] == pytest.approx(0.1875)

    def test_symmetry(self):
        v = weight_diagonal(np.array([0.1, 0.9]))
        assert v[0] == pytest.approx(0.09)
        assert v[0] == pytest.approx(v[1])

    def test_bounds(self):
        rng = np.random.default_rng(1)
        v = weight_diagonal(rng.uniform(1e-6, 1 - 1e-6, size=100))
        assert np.all(v > 0.0) and np.all(v <= 0.25)


class TestWorkingResponse:
    def test_zero_beta_positive_label(self):
        z = working_response(np.array([[1.0]]), np.zeros(1), np.array([1.0]))
        assert z[0] == pytest.approx(2.0)

    def test_zero_beta_negative_label(self):
        z = working_response(np.array([[1.0]]), np.zeros(1), np.array([0.0]))
        assert z[0] == pytest.approx(-2.0)

    def test_ln3_row(self):
        z = working_response(np.array([[LN3]]), np.array([1.0]), np.array([1.0]))
        assert z[0] == pytest.approx(LN3 + 4.0 / 3.0)

    def test_weighted_score_identity(self):
        # X'Vz = X'VX b + X'(y - pi) for any coefficient vector
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        y = (rng.random(40) < 0.5).astype(float)
        for _ in range(10):
            beta = rng.standard_normal(4)
            pi = predict_probabilities(X, beta)
            v = weight_diagonal(pi)
            z = working_response(X, beta, y)
            lhs = X.T @ (v * z)
            rhs = (X * v[:, None]).T @ X @ beta + X.T @ (y - pi)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestIrlsFit:
    def test_intercept_only_balanced(self):
        data = Dataset(X=np.ones((10, 1)), y=np.array([1.0, 0.0] * 5))
        fit = irls_fit(data)
        assert fit.converged
        assert fit.beta[0] == pytest.approx(0.0, abs=1e-8)

    def test_intercept_only_three_quarters(self):
        y = np.array([1.0, 1.0, 1.0, 0.0] * 5)
        fit = irls_fit(Dataset(X=np.ones((20, 1)), y=y))
        assert fit.beta[0] == pytest.approx(LN3, abs=1e-6)

    def test_score_stationarity_on_simulated_design(self):
        rng = np.random.default_rng(3)
        dataset, _ = random_dataset(200, 4, rng, rho=0.8)
        fit = irls_fit(dataset)
        assert fit.converged
        score = dataset.X.T @ (dataset.y - predict_probabilities(dataset.X, fit.beta))
        assert np.max(np.abs(score)) < 1e-6

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            dataset, _ = random_dataset(120, 3, rng)
            fit = irls_fit(dataset)
            trace = np.asarray(fit.loglik_trace)
            slack = 1e-10 * (1.0 + np.abs(trace[:-1]))
            assert np.all(np.diff(trace) >= -slack)

    def test_working_response_consistency_at_fit(self):
        rng = np.random.default_rng(6)
        dataset, _ = random_dataset(80, 3, rng)
        fit = tight_fit(dataset)
        z = working_response(dataset.X, fit.beta, dataset.y)
        assert np.allclose(z, fit.z, rtol=1e-12, atol=1e-12)
        v = weight_diagonal(predict_probabilities(dataset.X, fit.beta))
        assert np.allclose(v, fit.v_diag)

    def test_separated_data_reports_nonconvergence(self):
        # one perfectly separating covariate: the MLE diverges
        x = np.linspace(-2.0, 2.0, 30).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(float)
        fit = irls_fit(Dataset(X=x, y=y), FitConfig(max_iterations=30))
        assert not fit.converged

    def test_recovers_coefficients_at_scale(self):
        rng = np.random.default_rng(7)
        dataset, beta = random_dataset(5000, 3, rng, rho=0.2)
        fit = irls_fit(dataset)
        assert np.max(np.abs(fit.beta - beta)) < 0.2


def assert_fit_matches(fit, want, X):
    """One fit (a LogisticFit or one BatchFit row) against the oracle's.

    The oracle sums X'VX in another order, so the iterates differ by
    rounding that the Newton step amplifies by the condition number of
    X'VX: the last step, often under 1e-9, is bounded by that.
    """
    assert fit.iterations == want.iterations
    assert fit.converged == want.converged
    assert np.max(np.abs(fit.beta - want.beta)) <= 1e-10
    assert np.max(np.abs(fit.v_diag - want.v_diag)) <= 1e-10
    rounding = newton_rounding(X, want.v_diag)
    np.testing.assert_allclose(
        fit.final_step_norm, want.final_step_norm, rtol=1e-10,
        atol=10 * rounding * (np.max(np.abs(want.beta)) + want.final_step_norm),
    )
    got = np.asarray(fit.loglik_trace)
    np.testing.assert_allclose(
        got[~np.isnan(got)], want.loglik_trace, rtol=1e-10, atol=0
    )


def assert_batch_matches_scalar(X, Y, config=FitConfig()):
    """Each row of irls_fit_batch, and irls_fit on it, against the scalar oracle."""
    batch = irls_fit_batch(X, Y, config)
    for i, y in enumerate(Y):
        try:
            want = scalar_irls(X, y, config)
        except SingularSystemError as exc:
            assert batch.singular[i], i
            assert not batch.converged[i]
            assert batch.iterations[i] == exc.iteration
            with pytest.raises(SingularSystemError) as err:
                irls_fit(Dataset(X, y), config)
            assert err.value.iteration == exc.iteration
            continue
        assert not batch.singular[i], i
        assert_fit_matches(batch.select(i), want, X)
        fit = irls_fit(Dataset(X, y), config)
        assert_fit_matches(fit, want, X)
        np.testing.assert_allclose(fit.z, want.z, rtol=1e-10, atol=1e-10)
    return batch


def bernoulli_rows(X, beta, rows, rng):
    pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
    return (rng.random((rows, X.shape[0])) < pi).astype(float)


class TestIrlsFitBatch:
    @pytest.mark.parametrize("n,p,rho", [(40, 2, 0.3), (200, 4, 0.9), (500, 8, 0.99)])
    def test_rows_match_scalar_fits(self, n, p, rho):
        rng = np.random.default_rng(n + p)
        X = correlated_design(n, p, rho, rng)
        Y = bernoulli_rows(X, rng.standard_normal(p) / np.sqrt(p), 25, rng)
        batch = assert_batch_matches_scalar(X, Y)
        assert batch.converged.all()

    def test_small_samples_mix_converged_and_diverged_rows(self):
        rng = np.random.default_rng(11)
        X = correlated_design(12, 3, 0.9, rng)
        Y = bernoulli_rows(X, np.array([2.0, -1.0, 1.0]), 60, rng)
        batch = assert_batch_matches_scalar(X, Y)
        assert 0 < batch.converged.sum() < len(Y)

    def test_separated_and_rare_event_rows(self):
        x = np.linspace(-2.0, 2.0, 30)
        X = np.column_stack([np.ones(30), x])
        separated = (x > 0).astype(float)
        rare = np.zeros(30)
        rare[7] = 1.0
        balanced = np.tile([0.0, 1.0, 1.0], 10)
        Y = np.vstack([separated, rare, balanced])
        batch = assert_batch_matches_scalar(X, Y, FitConfig(max_iterations=30))
        assert not batch.converged[0] and batch.converged[2]

    def test_rank_deficient_design_every_row_singular(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([rng.standard_normal(50), np.zeros(50), rng.standard_normal(50)])
        Y = (rng.random((6, 50)) < 0.5).astype(float)
        batch = assert_batch_matches_scalar(X, Y)
        assert batch.singular.all()
        assert not batch.converged.any()

    def test_all_zero_response_among_normal_rows(self):
        rng = np.random.default_rng(13)
        X = correlated_design(60, 3, 0.5, rng)
        Y = bernoulli_rows(X, np.array([0.5, -0.4, 0.3]), 5, rng)
        Y[2] = 0.0
        assert_batch_matches_scalar(X, Y)

    def test_iteration_cap(self):
        rng = np.random.default_rng(14)
        X = correlated_design(100, 3, 0.8, rng)
        Y = bernoulli_rows(X, np.array([1.0, -1.0, 0.5]), 8, rng)
        batch = assert_batch_matches_scalar(X, Y, FitConfig(max_iterations=2))
        assert np.all(batch.iterations <= 2)
        assert not batch.converged.all()

    def test_step_halving_and_stalled_rows(self):
        # a wide probability clip makes the IRLS step overshoot, so rows
        # halve their steps and most give up after the last halving
        rng = np.random.default_rng(16)
        X = correlated_design(40, 3, 0.6, rng)
        Y = bernoulli_rows(X, np.array([2.0, -1.5, 1.0]), 30, rng)
        config = FitConfig(probability_clip=0.01)
        batch = assert_batch_matches_scalar(X, Y, config)
        stalled = ~batch.converged & (batch.iterations < config.max_iterations)
        assert batch.converged.any() and stalled.any()

    def test_irls_fit_is_row_zero(self):
        # every field bit for bit, the trace included: a fit that ends on a
        # sub-tolerance step logs that step in both
        rng = np.random.default_rng(17)
        for _ in range(10):
            dataset, _ = random_dataset(int(rng.integers(30, 200)), 3, rng, rho=0.7)
            fit = irls_fit(dataset)
            row = irls_fit_batch(dataset.X, dataset.y[None])
            trace = row.loglik_trace[0]
            assert np.array_equal(fit.beta, row.beta[0])
            assert np.array_equal(fit.v_diag, row.v_diag[0])
            assert fit.iterations == row.iterations[0]
            assert fit.converged == row.converged[0]
            assert fit.final_step_norm == row.final_step_norm[0]
            assert np.array_equal(fit.loglik_trace, trace[~np.isnan(trace)])
            assert fit.converged and len(fit.loglik_trace) == fit.iterations + 1

    def test_one_gram_map_per_fit(self, monkeypatch):
        # X's half of X'VX is built once, however many Newton steps use it
        built = count_gram_maps(monkeypatch)
        dataset, _ = random_dataset(300, 4, np.random.default_rng(18), rho=0.9)
        fit = irls_fit(dataset)
        assert fit.iterations >= 3
        assert built == [(300, 4)]

    @pytest.mark.parametrize("n", (300, 20_000), ids=["packed", "dense"])
    def test_given_map_builds_none_and_keeps_bits(self, monkeypatch, n):
        rng = np.random.default_rng(19)
        X = correlated_design(n, 4, 0.9, rng)
        Y = bernoulli_rows(X, np.array([0.5, -0.5, 1.0, 0.0]), 5, rng)
        want = irls_fit_batch(X, Y)
        gram = model._GramMap(X)
        built = count_gram_maps(monkeypatch)
        got = irls_fit_batch(gram, Y)
        decomp = spectral_decompose_batch(gram, got.v_diag)
        assert built == []
        for name in ("beta", "v_diag", "iterations", "converged", "loglik_trace"):
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=True), name
        alone = spectral_decompose_batch(X, want.v_diag)
        assert np.array_equal(decomp.T, alone.T)
        assert np.array_equal(decomp.lambdas, alone.lambdas)

    def test_select_takes_rows(self):
        rng = np.random.default_rng(15)
        X = correlated_design(40, 2, 0.3, rng)
        batch = irls_fit_batch(X, bernoulli_rows(X, np.array([0.3, 0.2]), 4, rng))
        picked = batch.select(np.array([3, 1]))
        assert np.array_equal(picked.beta, batch.beta[[3, 1]])
        assert np.array_equal(picked.converged, batch.converged[[3, 1]])

    def test_rejects_bad_input(self):
        X = np.ones((4, 1))
        with pytest.raises(ValueError):
            irls_fit_batch(X, np.zeros(4))
        with pytest.raises(ValueError):
            irls_fit_batch(X, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            irls_fit_batch(X, np.full((2, 4), 0.5))
        X[0, 0] = np.inf
        with pytest.raises(ValueError):
            irls_fit_batch(X, np.zeros((2, 4)))


class TestValidation:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: predict_probabilities(np.ones(3), np.ones(3)),
                         "X must have shape (*, *), got (3,)", id="design-1d"),
            pytest.param(lambda: predict_probabilities(np.ones((3, 2)), [[1.0], [1.0]]),
                         "beta must have shape (2,), got (2, 1)", id="beta-2d"),
            pytest.param(lambda: Dataset(X=np.ones((3, 1)), y=np.array([0.0, 1.0])),
                         "y must have shape (3,), got (2,)", id="dataset-length"),
            pytest.param(lambda: predict_probabilities(np.ones((2, 1)), [np.nan]),
                         "beta contains non-finite entries", id="beta-non-finite"),
            pytest.param(lambda: log_likelihood([1.0, 0.0], [0.5]),
                         "pi must have shape (2,), got (1,)", id="loglik-length"),
            pytest.param(lambda: weight_diagonal([0.5, 1.0]),
                         "probabilities must lie strictly inside (0, 1)",
                         id="weights-range"),
            pytest.param(lambda: log_likelihood([1.0, 0.0], [0.5, np.nan]),
                         "probabilities must lie strictly inside (0, 1)",
                         id="loglik-nan"),
        ],
    )
    def test_rejects_with_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_dataset_rejects_nonbinary_response(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((3, 1)), y=np.array([0.0, 1.0, 2.0]))

    def test_dataset_rejects_wide_matrix(self):
        with pytest.raises(ValueError):
            Dataset(X=np.ones((2, 3)), y=np.array([0.0, 1.0]))

    def test_dataset_rejects_nonfinite(self):
        X = np.ones((3, 1))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(X=X, y=np.array([0.0, 1.0, 0.0]))

    def test_fit_config_bounds(self):
        for tolerance in (0.0, np.inf):
            with pytest.raises(ValueError):
                FitConfig(tolerance=tolerance)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(probability_clip=0.5)

    def test_logistic_fit_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            LogisticFit(
                beta=np.zeros(1),
                v_diag=np.array([0.3]),
                z=np.zeros(1),
                iterations=1,
                converged=True,
                final_step_norm=0.0,
            )

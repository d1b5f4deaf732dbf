import numpy as np
import pytest

from liulogit import msem
from liulogit import (
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    SpectralDecomposition,
    asymptotic_msem,
    pcltl_bias,
    pcltl_covariance,
    psd_dominates,
    smse,
    theorem_3_1_condition,
    theorem_3_2_condition,
    theorem_3_3_condition,
    theorem_condition,
)

from _util import random_decomposition


def random_params(rng, p_context=None):
    """Random (k, d) satisfying d < k and d + k > 0."""
    k = rng.uniform(0.05, 3.0)
    d = rng.uniform(-k + 1e-3, min(k - 1e-3, 0.5))
    return ShrinkageParams(k=k, d=d)


def pcltl_spec(params, r):
    return EstimatorSpec(EstimatorKind.PCLTL, params=params, r=r)


DIAG_41 = SpectralDecomposition(T=np.eye(2), lambdas=np.array([4.0, 1.0]))


class TestPcltlBias:
    def test_vanishes_in_ml_limit(self):
        rng = np.random.default_rng(30)
        decomp = random_decomposition(4, rng)
        params = ShrinkageParams(k=1e-12, d=0.0)
        bias = pcltl_bias(rng.standard_normal(4), decomp.split(4), params)
        assert np.max(np.abs(bias)) < 1e-10

    def test_zero_beta_gives_zero_bias(self):
        rng = np.random.default_rng(31)
        decomp = random_decomposition(3, rng)
        params = ShrinkageParams(k=0.5, d=0.1)
        bias = pcltl_bias(np.zeros(3), decomp.split(2), params)
        assert np.allclose(bias, 0.0)

    def test_diagonal_two_block_arithmetic(self):
        # lambda = (4, 1), r = 1, k = 1, d = 0.5, beta = (1, 1):
        # retained block -(d+k)/(l1+k) = -1.5/5, discarded block -1
        params = ShrinkageParams(k=1.0, d=0.5)
        bias = pcltl_bias(np.array([1.0, 1.0]), DIAG_41.split(1), params)
        assert bias[0] == pytest.approx(-0.3, abs=1e-12)
        assert bias[1] == pytest.approx(-1.0, abs=1e-12)


class TestPcltlCovariance:
    def test_ml_limit_recovers_inverse_information(self):
        rng = np.random.default_rng(32)
        decomp = random_decomposition(4, rng)
        params = ShrinkageParams(k=1e-13, d=0.0)
        cov = pcltl_covariance(decomp.split(4), params)
        expected = (decomp.T / decomp.lambdas) @ decomp.T.T
        assert np.max(np.abs(cov - expected)) < 1e-9

    def test_scalar_retained_variance(self):
        # (l - d)^2 / (l (l + k)^2) at l=4, k=1, d=0.5
        params = ShrinkageParams(k=1.0, d=0.5)
        cov = pcltl_covariance(DIAG_41.split(1), params)
        assert cov[0, 0] == pytest.approx(3.5**2 / (4.0 * 25.0), abs=1e-12)

    def test_discarded_block_is_exactly_zero(self):
        rng = np.random.default_rng(33)
        decomp = random_decomposition(5, rng)
        split = decomp.split(2)
        cov = pcltl_covariance(split, ShrinkageParams(k=0.8, d=0.2))
        assert np.max(np.abs(split.t_tail.T @ cov @ split.t_tail)) < 1e-12

    def test_psd_and_rank(self):
        rng = np.random.default_rng(34)
        decomp = random_decomposition(5, rng)
        cov = pcltl_covariance(decomp.split(3), ShrinkageParams(k=0.5, d=0.1))
        eigs = np.linalg.eigvalsh(cov)
        assert eigs[0] > -1e-12
        assert np.sum(eigs > 1e-12) <= 3


class TestAsymptoticMsem:
    def test_ml_diagonal_example(self):
        decomp = SpectralDecomposition(T=np.eye(2), lambdas=np.array([4.0, 2.0]))
        report = asymptotic_msem(EstimatorSpec(EstimatorKind.ML), decomp, np.zeros(2))
        assert np.allclose(report.msem, np.diag([0.25, 0.5]))
        assert report.smse == pytest.approx(0.75)
        assert np.allclose(report.bias, 0.0)

    def test_reduction_chain_to_ml(self):
        rng = np.random.default_rng(35)
        decomp = random_decomposition(3, rng)
        beta = rng.standard_normal(3)
        ml = asymptotic_msem(EstimatorSpec(EstimatorKind.ML), decomp, beta)
        near_ml = asymptotic_msem(
            pcltl_spec(ShrinkageParams(k=1e-12, d=0.0), 3), decomp, beta
        )
        assert np.max(np.abs(ml.msem - near_ml.msem)) < 1e-6

    def test_msem_identity_everywhere(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            decomp = random_decomposition(p, rng)
            beta = rng.standard_normal(p)
            params = random_params(rng)
            r = int(rng.integers(1, p + 1))
            for spec in (
                EstimatorSpec(EstimatorKind.ML),
                EstimatorSpec(EstimatorKind.LTL, params=params),
                EstimatorSpec(EstimatorKind.PCLR, r=r),
                pcltl_spec(params, r),
            ):
                report = asymptotic_msem(spec, decomp, beta)
                recomposed = report.covariance + np.outer(report.bias, report.bias)
                err = np.linalg.norm(report.msem - recomposed)
                assert err < 1e-10

    def test_monte_carlo_working_response_oracle(self):
        # draw synthetic working responses with covariance V^{-1} at fixed
        # X, V, beta; empirical error matrices of the linear estimator maps
        # must match the closed forms within Monte Carlo error
        rng = np.random.default_rng(37)
        n, p, r = 40, 3, 2
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p) / np.sqrt(p)
        pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
        v = pi * (1.0 - pi)
        G = (X * v[:, None]).T @ X
        lam, T = np.linalg.eigh(G)
        lam, T = lam[::-1], T[:, ::-1]
        anchor = np.argmax(np.abs(T), axis=0)
        T = T * np.sign(T[anchor, np.arange(p)])
        decomp = SpectralDecomposition(T=T, lambdas=lam)
        params = ShrinkageParams(k=0.9, d=0.2)

        # linear maps from z to each estimate, straight from the definitions
        vx = (X * v[:, None])
        ml_map = np.linalg.solve(G, vx.T)
        ltl_map = np.linalg.solve(
            G + params.k * np.eye(p), vx.T - params.d * ml_map
        )
        t_r = T[:, :r]
        reduced = t_r.T @ G @ t_r
        pclr_map = t_r @ np.linalg.solve(reduced, t_r.T @ vx.T)
        pcltl_map = t_r @ np.linalg.solve(
            reduced + params.k * np.eye(r),
            (reduced - params.d * np.eye(r)) @ np.linalg.solve(reduced, t_r.T @ vx.T),
        )

        draws = 20000
        noise = rng.standard_normal((draws, n)) / np.sqrt(v)
        z = X @ beta + noise
        specs = {
            "ml": (ml_map, EstimatorSpec(EstimatorKind.ML)),
            "ltl": (ltl_map, EstimatorSpec(EstimatorKind.LTL, params=params)),
            "pclr": (pclr_map, EstimatorSpec(EstimatorKind.PCLR, r=r)),
            "pcltl": (pcltl_map, pcltl_spec(params, r)),
        }
        for name, (emap, spec) in specs.items():
            errors = z @ emap.T - beta
            outer = errors[:, :, None] * errors[:, None, :]
            empirical = outer.mean(axis=0)
            se = outer.std(axis=0) / np.sqrt(draws)
            closed = asymptotic_msem(spec, decomp, beta).msem
            assert np.all(np.abs(empirical - closed) <= 3.0 * se + 1e-12), name


class TestSmse:
    def test_identity(self):
        decomp = SpectralDecomposition(T=np.eye(3), lambdas=np.ones(3))
        report = asymptotic_msem(EstimatorSpec(EstimatorKind.ML), decomp, np.zeros(3))
        assert smse(report) == pytest.approx(3.0)

    def test_eigenvalue_sum_oracle(self):
        rng = np.random.default_rng(39)
        decomp = random_decomposition(5, rng)
        beta = rng.standard_normal(5)
        report = asymptotic_msem(
            pcltl_spec(ShrinkageParams(k=0.4, d=0.1), 3), decomp, beta
        )
        assert smse(report) == pytest.approx(
            float(np.sum(np.linalg.eigvalsh(report.msem))), abs=1e-10
        )


class TestPsdDominates:
    def test_strictly_ordered(self):
        verdict = psd_dominates(np.eye(3), 0.5 * np.eye(3))
        assert verdict.holds
        assert verdict.condition_value == pytest.approx(0.5)

    def test_indefinite_difference(self):
        verdict = psd_dominates(np.diag([1.0, 0.1]), np.diag([0.5, 0.5]))
        assert not verdict.holds

    def test_equal_matrices(self):
        verdict = psd_dominates(np.diag([2.0, 3.0]), np.diag([2.0, 3.0]))
        assert verdict.holds
        assert verdict.condition_value == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetric_on_strict_pairs(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            A = A @ A.T
            B = A + 0.1 * np.eye(4)
            assert psd_dominates(B, A).holds
            assert not psd_dominates(A, B).holds

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psd_dominates(np.eye(2), np.eye(3))


class TestTheorem31:
    def test_zero_beta_holds(self):
        rng = np.random.default_rng(41)
        decomp = random_decomposition(4, rng)
        params = ShrinkageParams(k=1.0, d=0.2)
        verdict = theorem_3_1_condition(np.zeros(4), decomp.split(2), params)
        assert verdict.holds
        assert verdict.condition_value == pytest.approx(0.0)
        assert verdict.psd_oracle_agrees

    def test_precondition_violation(self):
        rng = np.random.default_rng(42)
        decomp = random_decomposition(3, rng)
        params = ShrinkageParams(k=0.1, d=0.5)  # d >= k
        verdict = theorem_3_1_condition(np.ones(3), decomp.split(2), params)
        assert not verdict.precondition_ok
        assert verdict.holds is None
        assert verdict.condition_value is None

    def test_boundary_scaling(self):
        # scale beta so the quadratic form hits exactly 1
        rng = np.random.default_rng(43)
        decomp = random_decomposition(4, rng)
        params = ShrinkageParams(k=0.8, d=0.3)
        split = decomp.split(2)
        beta = rng.standard_normal(4)
        base = theorem_3_1_condition(beta, split, params).condition_value
        # back off one part in 1e9 so roundoff cannot flip the <= comparison
        scaled = beta / np.sqrt(base) * (1.0 - 1e-9)
        verdict = theorem_3_1_condition(scaled, split, params)
        assert verdict.condition_value == pytest.approx(1.0, abs=1e-8)
        assert verdict.holds

    def test_value_is_the_published_condition(self):
        # the retained weight is computed divided through by k + d; it must
        # equal the published (k+d)^2 / (2(k+d) + (k^2-d^2)/lambda)
        rng = np.random.default_rng(45)
        for _ in range(50):
            p = int(rng.integers(2, 5))
            decomp = random_decomposition(p, rng)
            params = random_params(rng)
            k, d, r = params.k, params.d, int(rng.integers(1, p + 1))
            beta = rng.standard_normal(p)
            alpha, lam = decomp.T.T @ beta, decomp.lambdas
            published = np.sum(
                (k + d) ** 2 * alpha[:r] ** 2 / (2 * (k + d) + (k**2 - d**2) / lam[:r])
            ) + np.sum(lam[r:] * alpha[r:] ** 2)
            verdict = theorem_3_1_condition(beta, decomp.split(r), params)
            assert verdict.condition_value == pytest.approx(published, rel=1e-12)

    def test_agreement_with_oracle_on_random_instances(self):
        rng = np.random.default_rng(44)
        agreements = []
        for _ in range(100):
            p = int(rng.integers(2, 5))
            decomp = random_decomposition(p, rng)
            params = random_params(rng)
            r = int(rng.integers(1, p + 1))
            beta = rng.standard_normal(p) * rng.uniform(0.1, 2.0)
            verdict = theorem_3_1_condition(beta, decomp.split(r), params)
            agreements.append(verdict.psd_oracle_agrees)
        # the printed condition matches the direct derivation, so near-total
        # agreement is expected; boundary roundoff may shave isolated cases
        assert np.mean(agreements) > 0.95


class TestTheorems32And33:
    def test_beta_in_discarded_span_satisfies_32(self):
        rng = np.random.default_rng(46)
        decomp = random_decomposition(4, rng)
        split = decomp.split(2)
        beta = split.t_tail @ rng.standard_normal(2)
        verdict = theorem_3_2_condition(beta, split, ShrinkageParams(k=1.0, d=0.2))
        assert verdict.holds
        assert verdict.psd_oracle_agrees

    def test_leading_eigenvector_violates_32(self):
        rng = np.random.default_rng(47)
        decomp = random_decomposition(4, rng)
        split = decomp.split(2)
        verdict = theorem_3_2_condition(
            decomp.T[:, 0], split, ShrinkageParams(k=1.0, d=0.2)
        )
        assert not verdict.holds

    def test_beta_in_retained_span_satisfies_33(self):
        rng = np.random.default_rng(48)
        decomp = random_decomposition(4, rng)
        split = decomp.split(2)
        beta = split.t_r @ rng.standard_normal(2)
        verdict = theorem_3_3_condition(beta, split, ShrinkageParams(k=1.0, d=0.2))
        assert verdict.holds
        assert verdict.psd_oracle_agrees

    def test_last_eigenvector_violates_33(self):
        rng = np.random.default_rng(49)
        decomp = random_decomposition(4, rng)
        split = decomp.split(2)
        verdict = theorem_3_3_condition(
            decomp.T[:, -1], split, ShrinkageParams(k=1.0, d=0.2)
        )
        assert not verdict.holds

    def test_necessity_direction_32(self):
        # whenever beta has a retained component, the strict comparison
        # against the component-projection estimator must fail
        rng = np.random.default_rng(50)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            decomp = random_decomposition(p, rng)
            r = int(rng.integers(1, p))
            params = random_params(rng)
            beta = rng.standard_normal(p) * rng.uniform(0.2, 2.0)
            verdict = theorem_3_2_condition(beta, decomp.split(r), params)
            assert verdict.condition_value > 1e-6
            assert verdict.psd_oracle_agrees

    def test_necessity_direction_33(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            decomp = random_decomposition(p, rng)
            r = int(rng.integers(1, p))
            params = random_params(rng)
            beta = rng.standard_normal(p) * rng.uniform(0.2, 2.0)
            verdict = theorem_3_3_condition(beta, decomp.split(r), params)
            assert verdict.condition_value > 1e-6
            assert verdict.psd_oracle_agrees


    def test_t33_at_full_rank_has_an_empty_tail(self):
        # r = p leaves no discarded axes, and PCLTL then coincides with LTL
        rng = np.random.default_rng(55)
        decomp = random_decomposition(4, rng)
        verdict = theorem_3_3_condition(
            rng.standard_normal(4), decomp.split(4), ShrinkageParams(k=1.0, d=0.2)
        )
        assert verdict.condition_value == 0.0
        assert verdict.holds is True
        assert verdict.psd_oracle_agrees

    def test_conditions_sufficient_not_necessary(self):
        # beta has a retained (T3.2) or discarded (T3.3) component, so the
        # closed form says no, yet the MSEM difference is singular and PSD
        decomp = SpectralDecomposition(T=np.eye(3), lambdas=np.array([4.0, 2.0, 0.5]))
        split, params = decomp.split(2), ShrinkageParams(k=1.0, d=0.2)
        pcltl = pcltl_spec(params, 2)
        cases = (
            (theorem_3_2_condition, EstimatorSpec(EstimatorKind.PCLR, r=2), [0.3, 0, 0]),
            (theorem_3_3_condition, EstimatorSpec(EstimatorKind.LTL, params=params),
             [0, 0, 0.05]),
        )
        for theorem, incumbent, beta in cases:
            beta = np.array(beta, dtype=float)
            assert theorem(beta, split, params).holds is False
            direct = psd_dominates(
                asymptotic_msem(incumbent, decomp, beta).msem,
                asymptotic_msem(pcltl, decomp, beta).msem,
            )
            assert direct.holds
            assert direct.condition_value == pytest.approx(0.0, abs=1e-12)


class TestTheoremCondition:
    @pytest.mark.parametrize(
        "theorem", [theorem_3_1_condition, theorem_3_2_condition, theorem_3_3_condition]
    )
    def test_beta_length_is_checked(self, theorem):
        decomp = random_decomposition(3, np.random.default_rng(56))
        with pytest.raises(ValueError, match=r"^beta must have shape \(3,\), got \(2,\)$"):
            theorem(np.ones(2), decomp.split(2), ShrinkageParams(k=1.0, d=0.2))

    def test_theorem_is_looked_up_at_call_time(self, monkeypatch):
        # span tracing rebinds the module-level theorem names after import
        sentinel = object()
        monkeypatch.setattr(msem, "theorem_3_2_condition", lambda *args: sentinel)
        decomp = random_decomposition(3, np.random.default_rng(57))
        verdict = theorem_condition(
            EstimatorKind.PCLTL, EstimatorKind.PCLR, np.ones(3), decomp.split(2),
            ShrinkageParams(k=1.0, d=0.2),
        )
        assert verdict is sentinel

    def test_pair_table(self):
        rng = np.random.default_rng(52)
        decomp = random_decomposition(4, rng)
        split, params = decomp.split(2), ShrinkageParams(k=1.0, d=0.2)
        beta = rng.standard_normal(4)
        named = {
            (EstimatorKind.PCLTL, EstimatorKind.ML): theorem_3_1_condition(
                beta, split, params
            ),
            (EstimatorKind.PCLTL, EstimatorKind.PCLR): theorem_3_2_condition(
                beta, split, params
            ),
            (EstimatorKind.PCLTL, EstimatorKind.LTL): theorem_3_3_condition(
                beta, split, params
            ),
        }
        for challenger in EstimatorKind:
            for incumbent in EstimatorKind:
                verdict = theorem_condition(challenger, incumbent, beta, split, params)
                assert verdict == named.get((challenger, incumbent))


class TestMsemReductions:
    def test_pcltl_full_rank_equals_ltl(self):
        rng = np.random.default_rng(52)
        decomp = random_decomposition(4, rng)
        beta = rng.standard_normal(4)
        params = ShrinkageParams(k=0.7, d=0.25)
        full = asymptotic_msem(pcltl_spec(params, 4), decomp, beta)
        ltl = asymptotic_msem(
            EstimatorSpec(EstimatorKind.LTL, params=params), decomp, beta
        )
        assert np.max(np.abs(full.msem - ltl.msem)) < 1e-10

    def test_pcltl_small_k_equals_pclr(self):
        rng = np.random.default_rng(53)
        decomp = random_decomposition(4, rng)
        beta = rng.standard_normal(4)
        near = asymptotic_msem(
            pcltl_spec(ShrinkageParams(k=1e-12, d=0.0), 2), decomp, beta
        )
        pclr = asymptotic_msem(
            EstimatorSpec(EstimatorKind.PCLR, r=2), decomp, beta
        )
        assert np.max(np.abs(near.msem - pclr.msem)) < 1e-6

    def test_pclr_full_rank_equals_ml(self):
        rng = np.random.default_rng(54)
        decomp = random_decomposition(4, rng)
        beta = rng.standard_normal(4)
        pclr = asymptotic_msem(EstimatorSpec(EstimatorKind.PCLR, r=4), decomp, beta)
        ml = asymptotic_msem(EstimatorSpec(EstimatorKind.ML), decomp, beta)
        assert np.max(np.abs(pclr.msem - ml.msem)) < 1e-10

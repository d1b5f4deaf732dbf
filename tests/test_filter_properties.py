"""Property tests for the spectral-filter core behind every estimate and MSEM.

Each draw is a synthetic eigensystem X'VX = T diag(lambda) T' (random
orthonormal T, descending lambda), a coefficient vector and parameters
k > 0, d and r.  The dense-matrix MSEM below is written from the
estimators' defining matrix forms with linear solves, independent of the
filter factors.  The theorem 3.2 and 3.3 properties draw proper splits
(r < p) with d < k and d + k > 0.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liulogit import (
    BatchDecomposition,
    BatchFit,
    EstimatorKind,
    EstimatorSpec,
    LogisticFit,
    ShrinkageParams,
    SpectralDecomposition,
    asymptotic_msem,
    batch_estimates,
    point_estimate,
    psd_dominates,
    smse,
    theorem_3_1_condition,
    theorem_3_2_condition,
    theorem_3_3_condition,
)
from liulogit.msem import PSD_TOL

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

# eigenvalues span four decades, so the dense solves lose at most ~1e-12
eigenvalues = st.floats(1e-2, 1e2)
entries = st.floats(-1.0, 1.0)


@st.composite
def problems(draw, p=None):
    """(decomposition, beta, k, d, r) for one random p-dimensional eigensystem."""
    p = draw(st.integers(1, 7)) if p is None else p
    lam = np.sort(draw(arrays(float, p, elements=eigenvalues)))[::-1]
    T, _ = np.linalg.qr(draw(arrays(float, (p, p), elements=entries)))
    beta = 3.0 * draw(arrays(float, p, elements=entries))
    k = draw(st.floats(1e-3, 10.0))
    d = draw(st.floats(-1.0, 1.0))
    r = draw(st.integers(1, p))
    return SpectralDecomposition(T=T, lambdas=lam), beta, k, d, r


def fit_at(beta):
    """A converged fit whose ML coefficients are ``beta``."""
    return LogisticFit(
        beta=beta, v_diag=np.full(1, 0.25), z=np.zeros(1), iterations=1,
        converged=True, final_step_norm=0.0,
    )


def specs(params, r):
    return [
        EstimatorSpec(EstimatorKind.ML),
        EstimatorSpec(EstimatorKind.LTL, params=params),
        EstimatorSpec(EstimatorKind.PCLR, r=r),
        EstimatorSpec(EstimatorKind.PCLTL, params=params, r=r),
    ]


def dense_map(spec, gram, T):
    """The matrix M of the estimate M b_ml, from the defining matrix forms."""
    p = gram.shape[0]
    eye = np.eye(p)
    if spec.kind is EstimatorKind.ML:
        return eye
    if spec.kind is EstimatorKind.LTL:
        k, d = spec.params.k, spec.params.d
        return np.linalg.solve(gram + k * eye, gram - d * eye)
    t_r = T[:, : spec.r]
    reduced = t_r.T @ gram @ t_r
    projected = np.linalg.solve(reduced, t_r.T @ gram)
    if spec.kind is EstimatorKind.PCLR:
        return t_r @ projected
    k, d = spec.params.k, spec.params.d
    inner = np.eye(spec.r)
    shrunk = np.linalg.solve(reduced + k * inner, (reduced - d * inner) @ projected)
    return t_r @ shrunk


def estimate_and_msem(spec, decomp, beta):
    return (
        point_estimate(fit_at(beta), None, spec, decomp),
        asymptotic_msem(spec, decomp, beta).msem,
    )


@PROPERTY_SETTINGS
@given(problems())
def test_pcltl_equals_ltl_at_full_rank(problem):
    decomp, beta, k, d, _ = problem
    params = ShrinkageParams(k=k, d=d)
    pcltl = EstimatorSpec(EstimatorKind.PCLTL, params=params, r=decomp.p)
    ltl = EstimatorSpec(EstimatorKind.LTL, params=params)
    for a, b in zip(estimate_and_msem(pcltl, decomp, beta),
                    estimate_and_msem(ltl, decomp, beta)):
        assert np.array_equal(a, b)


@PROPERTY_SETTINGS
@given(problems())
def test_pcltl_equals_pclr_as_k_vanishes_at_zero_d(problem):
    decomp, beta, _, _, r = problem
    # the smallest positive k: lambda + k rounds to lambda
    params = ShrinkageParams(k=float(np.nextafter(0.0, 1.0)), d=0.0)
    pcltl = EstimatorSpec(EstimatorKind.PCLTL, params=params, r=r)
    pclr = EstimatorSpec(EstimatorKind.PCLR, r=r)
    for a, b in zip(estimate_and_msem(pcltl, decomp, beta),
                    estimate_and_msem(pclr, decomp, beta)):
        assert np.array_equal(a, b)


@PROPERTY_SETTINGS
@given(problems())
def test_msem_matches_dense_oracle(problem):
    decomp, beta, k, d, r = problem
    T = decomp.T
    gram = (T * decomp.lambdas) @ T.T
    for spec in specs(ShrinkageParams(k=k, d=d), r):
        report = asymptotic_msem(spec, decomp, beta)
        M = dense_map(spec, gram, T)
        cov = M @ np.linalg.solve(gram, M.T)
        bias = M @ beta - beta
        msem = cov + np.outer(bias, bias)
        scale = max(1.0, float(np.max(np.abs(msem))))
        for got, want in ((report.covariance, cov), (report.bias, bias),
                          (report.msem, msem)):
            assert np.max(np.abs(got - want)) <= 1e-10 * scale, spec.kind
        assert np.array_equal(
            report.msem, report.covariance + np.outer(report.bias, report.bias)
        )
        assert report.smse == smse(report) == float(np.trace(report.msem))


@PROPERTY_SETTINGS
@given(
    st.integers(1, 6).flatmap(lambda p: st.lists(problems(p), min_size=1, max_size=5))
)
def test_batch_rows_equal_point_estimates(rows):
    decomps, betas, ks, ds, rs = zip(*rows)
    b = len(rows)
    fit = BatchFit(
        beta=np.stack(betas), v_diag=np.full((b, 1), 0.25),
        iterations=np.ones(b, dtype=int), converged=np.ones(b, dtype=bool),
        singular=np.zeros(b, dtype=bool), final_step_norm=np.zeros(b),
        loglik_trace=np.zeros((b, 1)),
    )
    decomp = BatchDecomposition(
        T=np.stack([dec.T for dec in decomps]),
        lambdas=np.stack([dec.lambdas for dec in decomps]),
    )
    estimates = batch_estimates(fit, decomp, np.array(rs), np.array(ks), np.array(ds))
    for i in range(b):
        for spec in specs(ShrinkageParams(k=ks[i], d=ds[i]), rs[i]):
            expected = point_estimate(fit_at(betas[i]), None, spec, decomps[i])
            scale = max(1.0, float(np.max(np.abs(betas[i]))))
            assert np.max(np.abs(estimates[spec.kind][i] - expected)) <= 1e-13 * scale


# a drawn MSEM difference counts as clearly resolved when its eigenvalue
# scale, and an indefinite difference's negative eigenvalue, are at least
# this share of the larger MSEM entry and of that scale (PSD_TOL is 1e-8)
MARGIN = 1e-6


@st.composite
def proper_splits(draw):
    """(split, beta, params): r < p, d < k and d + k > 0."""
    p = draw(st.integers(2, 7))
    decomp, beta, k, _, _ = draw(problems(p))
    d = k * draw(st.floats(-0.99, 0.99))
    return decomp.split(draw(st.integers(1, p - 1))), beta, ShrinkageParams(k=k, d=d)


def dense_difference(incumbent, split, beta, params):
    """MSEM(incumbent), MSEM(PCLTL) and the eigenvalues of their difference."""
    decomp = split.decomposition
    msem_a = asymptotic_msem(incumbent, decomp, beta).msem
    msem_b = asymptotic_msem(
        EstimatorSpec(EstimatorKind.PCLTL, params=params, r=split.r), decomp, beta
    ).msem
    diff = msem_a - msem_b
    return msem_a, msem_b, np.linalg.eigvalsh(0.5 * (diff + diff.T))


def assert_claim_matched_agreement(verdict, eigs):
    """``psd_oracle_agrees`` follows the claim-matched rule on the dense eigenvalues.

    A claim that PCLTL wins must reach -PSD_TOL times the scale; a denial
    must not exceed +PSD_TOL times it.
    """
    scale = float(np.max(np.abs(eigs)))
    if verdict.holds:
        expected = eigs[0] >= -PSD_TOL * scale
    else:
        expected = eigs[0] <= PSD_TOL * scale
    assert verdict.psd_oracle_agrees == expected


def assert_verdict_matches_psd_oracle(
    theorem, incumbent, claimed_span, split, beta, params, on_span
):
    """The closed-form verdict of ``theorem`` against ``psd_dominates``.

    With ``on_span`` beta is projected onto ``claimed_span``, where the
    closed form says PCLTL dominates ``incumbent``; otherwise beta stays
    generic and only clearly indefinite MSEM differences are kept.
    """
    if on_span:
        beta = claimed_span @ (claimed_span.T @ beta)
    msem_a, msem_b, eigs = dense_difference(incumbent, split, beta, params)
    scale = float(np.max(np.abs(eigs)))
    assume(scale >= MARGIN * max(np.max(np.abs(msem_a)), np.max(np.abs(msem_b))))
    if not on_span:
        assume(eigs[0] <= -MARGIN * scale)
    verdict = theorem(beta, split, params)
    assert verdict.holds == on_span
    assert psd_dominates(msem_a, msem_b).holds == on_span
    assert_claim_matched_agreement(verdict, eigs)


@PROPERTY_SETTINGS
@given(proper_splits())
def test_theorem_3_1_agreement_follows_the_dense_rule(instance):
    split, beta, params = instance
    _, _, eigs = dense_difference(EstimatorSpec(EstimatorKind.ML), split, beta, params)
    # rounding may move a smallest eigenvalue that sits on the tolerance
    assume(not 0.5 <= abs(eigs[0]) / (PSD_TOL * np.max(np.abs(eigs))) <= 2.0)
    assert_claim_matched_agreement(theorem_3_1_condition(beta, split, params), eigs)


@PROPERTY_SETTINGS
@given(proper_splits(), st.booleans())
def test_theorem_3_2_verdict_matches_psd_oracle(instance, on_span):
    split, beta, params = instance
    pclr = EstimatorSpec(EstimatorKind.PCLR, r=split.r)
    assert_verdict_matches_psd_oracle(
        theorem_3_2_condition, pclr, split.t_tail, split, beta, params, on_span
    )


@PROPERTY_SETTINGS
@given(proper_splits(), st.booleans())
def test_theorem_3_3_verdict_matches_psd_oracle(instance, on_span):
    split, beta, params = instance
    ltl = EstimatorSpec(EstimatorKind.LTL, params=params)
    assert_verdict_matches_psd_oracle(
        theorem_3_3_condition, ltl, split.t_r, split, beta, params, on_span
    )

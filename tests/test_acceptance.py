"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see all
lines).  Criterion 3 checks the frozen reference-table cell values; its
LTL/PCLTL windows are not attainable from the published selection rules
(the k rule yields k near 2 on this spectrum where the reference values
require k near 34), so that test documents the measured values and is
expected to fail.  Everything else is green.
"""

import numpy as np
from scipy.optimize import minimize

from liulogit import (
    EstimatorKind,
    EstimatorSpec,
    FitConfig,
    ShrinkageParams,
    SimulationConfig,
    SpectralDecomposition,
    StudyGrid,
    asymptotic_msem,
    components_for_p,
    irls_fit,
    ltl_estimate,
    mle_estimate,
    pclr_estimate,
    pcltl_estimate,
    predict_probabilities,
    run_study,
    simulate_cell,
    spectral_decompose,
    study_to_json,
    theorem_3_1_condition,
    theorem_3_2_condition,
    theorem_3_3_condition,
)

from _util import random_dataset, tight_fit

MASTER_SEED = 20240817

ORDER = (EstimatorKind.ML, EstimatorKind.LTL, EstimatorKind.PCLR, EstimatorKind.PCLTL)

_STUDY_CACHE = {}


def grid_study_200(workers=None):
    key = workers if workers else 1
    if key not in _STUDY_CACHE:
        base = SimulationConfig(
            n=1000, p=4, rho=0.8, replications=200, seed=MASTER_SEED
        )
        _STUDY_CACHE[key] = run_study(StudyGrid(), base, workers=workers)
    return _STUDY_CACHE[key]


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {detail}")


def random_decomposition(p, rng, lam_range=(0.05, 8.0)):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    lam = np.sort(rng.uniform(*lam_range, size=p))[::-1]
    return SpectralDecomposition(T=q, lambdas=lam)


def random_theorem_params(rng):
    k = rng.uniform(0.05, 3.0)
    d = rng.uniform(-k + 1e-3, min(k - 1e-3, 0.5))
    return ShrinkageParams(k=k, d=d)


def test_criterion_1_reduction_identities():
    rng = np.random.default_rng(101)
    worst_full, worst_pclr, worst_limit = 0.0, 0.0, 0.0
    for _ in range(50):
        p = int(rng.integers(2, 9))
        dataset, _ = random_dataset(300, p, rng)
        fit = tight_fit(dataset)
        decomp = spectral_decompose(dataset.X, fit.v_diag)
        params = ShrinkageParams(k=rng.uniform(0.05, 2.0), d=rng.uniform(-0.5, 0.5))

        full = pcltl_estimate(fit, dataset.X, decomp.split(p), params)
        ltl = ltl_estimate(fit, dataset.X, params)
        worst_full = max(worst_full, float(np.max(np.abs(full - ltl))))

        pclr_full = pclr_estimate(fit, dataset.X, decomp.split(p))
        ml = mle_estimate(fit, dataset.X)
        worst_pclr = max(worst_pclr, float(np.max(np.abs(pclr_full - ml))))

        r = int(rng.integers(1, p + 1))
        split = decomp.split(r)
        near = pcltl_estimate(
            fit, dataset.X, split, ShrinkageParams(k=1e-10, d=0.0)
        )
        pclr = pclr_estimate(fit, dataset.X, split)
        worst_limit = max(worst_limit, float(np.max(np.abs(near - pclr))))

    ok = worst_full < 1e-10 and worst_pclr < 1e-10 and worst_limit < 1e-6
    report(1, ok, f"max deviations: full-rank {worst_full:.2e}, "
                  f"projection {worst_pclr:.2e}, small-k {worst_limit:.2e}")
    assert worst_full < 1e-10
    assert worst_pclr < 1e-10
    assert worst_limit < 1e-6


def test_criterion_2_msem_cross_consistency():
    rng = np.random.default_rng(102)
    worst = {"ltl": 0.0, "pclr": 0.0, "ml": 0.0, "identity": 0.0}
    for _ in range(50):
        p = int(rng.integers(2, 7))
        decomp = random_decomposition(p, rng)
        beta = rng.standard_normal(p)
        params = random_theorem_params(rng)
        r = int(rng.integers(1, p + 1))

        pcltl_full = asymptotic_msem(
            EstimatorSpec(EstimatorKind.PCLTL, params=params, r=p), decomp, beta
        )
        ltl = asymptotic_msem(
            EstimatorSpec(EstimatorKind.LTL, params=params), decomp, beta
        )
        worst["ltl"] = max(
            worst["ltl"], float(np.linalg.norm(pcltl_full.msem - ltl.msem))
        )

        near_pclr = asymptotic_msem(
            EstimatorSpec(EstimatorKind.PCLTL, params=ShrinkageParams(k=1e-12, d=0.0), r=r),
            decomp, beta,
        )
        pclr = asymptotic_msem(EstimatorSpec(EstimatorKind.PCLR, r=r), decomp, beta)
        worst["pclr"] = max(
            worst["pclr"], float(np.linalg.norm(near_pclr.msem - pclr.msem))
        )

        pclr_full = asymptotic_msem(EstimatorSpec(EstimatorKind.PCLR, r=p), decomp, beta)
        ml = asymptotic_msem(EstimatorSpec(EstimatorKind.ML), decomp, beta)
        worst["ml"] = max(worst["ml"], float(np.linalg.norm(pclr_full.msem - ml.msem)))

        for spec in (
            EstimatorSpec(EstimatorKind.ML),
            EstimatorSpec(EstimatorKind.LTL, params=params),
            EstimatorSpec(EstimatorKind.PCLR, r=r),
            EstimatorSpec(EstimatorKind.PCLTL, params=params, r=r),
        ):
            rep = asymptotic_msem(spec, decomp, beta)
            err = np.linalg.norm(rep.msem - rep.covariance - np.outer(rep.bias, rep.bias))
            worst["identity"] = max(worst["identity"], float(err))

    ok = (worst["ltl"] < 1e-10 and worst["pclr"] < 1e-6
          and worst["ml"] < 1e-10 and worst["identity"] < 1e-10)
    report(2, ok, f"max deviations: {worst}")
    assert worst["ltl"] < 1e-10
    assert worst["pclr"] < 1e-6
    assert worst["ml"] < 1e-10
    assert worst["identity"] < 1e-10


def test_criterion_3_reference_table_cell():
    config = SimulationConfig(
        n=1000, p=4, rho=0.9, replications=2000, seed=MASTER_SEED,
        components=components_for_p(4),
    )
    result = simulate_cell(config)
    mse = result.mse
    checks = [
        ("PCLTL", mse[EstimatorKind.PCLTL], 0.6941, 0.05),
        ("LTL", mse[EstimatorKind.LTL], 0.6995, 0.05),
        ("MLE", mse[EstimatorKind.ML], 8.5449, 0.3 * 8.5449),
    ]
    failures = []
    for name, value, target, tol in checks:
        if abs(value - target) > tol:
            failures.append(f"{name}={value:.4f} not within {tol:.4f} of {target}")
    detail = ", ".join(
        f"{name}={value:.4f} (target {target})" for name, value, target, _ in checks
    )
    report(3, not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_4_global_ordering():
    results = grid_study_200()
    assert len(results) == 48
    violations = []
    for res in results:
        m = res.mse
        c = res.config
        ordered = (
            m[EstimatorKind.PCLTL] <= m[EstimatorKind.LTL]
            < m[EstimatorKind.PCLR]
            < m[EstimatorKind.ML]
        )
        if not ordered:
            violations.append(
                (c.p, c.n, c.rho, {k.value: round(v, 4) for k, v in m.items()})
            )
    report(4, not violations, f"{len(results)} cells, violations: {violations}")
    assert not violations


def test_criterion_5_rho_monotonicity():
    results = grid_study_200()
    slices = {}
    for res in results:
        c = res.config
        slices.setdefault((c.p, c.n), []).append((c.rho, res.mse))
    violations = []
    for (p, n), cells in slices.items():
        cells.sort(key=lambda item: item[0])
        for kind in (EstimatorKind.ML, EstimatorKind.PCLR):
            values = [m[kind] for _, m in cells]
            if not all(b > a for a, b in zip(values, values[1:])):
                violations.append((p, n, kind.value, [round(v, 3) for v in values]))
    report(5, not violations, f"violations: {violations}")
    assert not violations


def test_criterion_6_theorem_vs_oracle():
    rng = np.random.default_rng(106)
    t2_checked = t3_checked = 0
    t2_bad = t3_bad = 0
    t31_agree = []
    for _ in range(200):
        p = int(rng.integers(2, 7))
        decomp = random_decomposition(p, rng)
        # the PCLR/LTL comparisons concern proper splits: at r = p the
        # projection estimator degenerates to the full ML fit
        r = int(rng.integers(1, p))
        split = decomp.split(r)
        params = random_theorem_params(rng)
        beta = rng.standard_normal(p) * rng.uniform(0.2, 2.0)

        v31 = theorem_3_1_condition(beta, split, params)
        t31_agree.append(v31.psd_oracle_agrees)

        v32 = theorem_3_2_condition(beta, split, params)
        if v32.condition_value > 1e-6:
            t2_checked += 1
            if v32.holds or not v32.psd_oracle_agrees:
                t2_bad += 1
        v33 = theorem_3_3_condition(beta, split, params)
        if v33.condition_value > 1e-6:
            t3_checked += 1
            if v33.holds or not v33.psd_oracle_agrees:
                t3_bad += 1

    rate = float(np.mean(t31_agree))
    ok = t2_bad == 0 and t3_bad == 0
    report(6, ok,
           f"necessity: T3.2 {t2_checked - t2_bad}/{t2_checked}, "
           f"T3.3 {t3_checked - t3_bad}/{t3_checked}; "
           f"T3.1 printed-condition agreement rate {rate:.3f} (reported, not gated)")
    assert t2_bad == 0
    assert t3_bad == 0


def test_criterion_7_irls_against_independent_maximizer():
    rng = np.random.default_rng(107)
    worst_score, worst_coef = 0.0, 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        dataset, _ = random_dataset(240, p, rng)
        fit = irls_fit(dataset, FitConfig())
        assert fit.converged
        X, y = dataset.X, dataset.y
        score = X.T @ (y - predict_probabilities(X, fit.beta))
        worst_score = max(worst_score, float(np.max(np.abs(score))))

        def negloglik(b):
            eta = X @ b
            return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

        def grad(b):
            return X.T @ (1.0 / (1.0 + np.exp(-(X @ b))) - y)

        def hess(b):
            pi = 1.0 / (1.0 + np.exp(-(X @ b)))
            return (X * (pi * (1.0 - pi))[:, None]).T @ X

        res = minimize(
            negloglik, np.zeros(p), jac=grad, hess=hess,
            method="trust-exact", options={"gtol": 1e-10},
        )
        worst_coef = max(worst_coef, float(np.max(np.abs(fit.beta - res.x))))
    ok = worst_score <= 1e-5 and worst_coef <= 1e-6
    report(7, ok, f"max score {worst_score:.2e}, max coefficient gap {worst_coef:.2e}")
    assert worst_score <= 1e-5
    assert worst_coef <= 1e-6


def test_criterion_8_empirical_msem():
    rng = np.random.default_rng(108)
    n, p, r = 60, 3, 2
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p) / np.sqrt(p)
    pi = 1.0 / (1.0 + np.exp(-(X @ beta)))
    v = pi * (1.0 - pi)
    G = (X * v[:, None]).T @ X
    decomp = spectral_decompose(X, v)
    params = ShrinkageParams(k=0.8, d=0.25)

    vx = X * v[:, None]
    ml_map = np.linalg.solve(G, vx.T)
    ltl_map = np.linalg.solve(G + params.k * np.eye(p), vx.T - params.d * ml_map)
    t_r = decomp.T[:, :r]
    reduced = t_r.T @ G @ t_r
    pclr_map = t_r @ np.linalg.solve(reduced, t_r.T @ vx.T)
    pcltl_map = t_r @ np.linalg.solve(
        reduced + params.k * np.eye(r),
        (reduced - params.d * np.eye(r)) @ np.linalg.solve(reduced, t_r.T @ vx.T),
    )

    draws = 50_000
    z = X @ beta + rng.standard_normal((draws, n)) / np.sqrt(v)
    specs = {
        "ml": (ml_map, EstimatorSpec(EstimatorKind.ML)),
        "ltl": (ltl_map, EstimatorSpec(EstimatorKind.LTL, params=params)),
        "pclr": (pclr_map, EstimatorSpec(EstimatorKind.PCLR, r=r)),
        "pcltl": (pcltl_map, EstimatorSpec(EstimatorKind.PCLTL, params=params, r=r)),
    }
    worst_sigma = 0.0
    for name, (emap, spec) in specs.items():
        errors = z @ emap.T - beta
        outer = errors[:, :, None] * errors[:, None, :]
        empirical = outer.mean(axis=0)
        se = outer.std(axis=0) / np.sqrt(draws)
        closed = asymptotic_msem(spec, decomp, beta, "true_beta").msem
        sigmas = np.abs(empirical - closed) / (se + 1e-15)
        worst_sigma = max(worst_sigma, float(sigmas.max()))
        assert np.all(np.abs(empirical - closed) <= 3.0 * se + 1e-12), name
    report(8, True, f"worst componentwise deviation {worst_sigma:.2f} sigma")


def test_criterion_9_byte_identical_serial_vs_parallel():
    serial = grid_study_200()
    parallel = grid_study_200(workers=2)
    a = study_to_json(serial, master_seed=MASTER_SEED, version="test")
    b = study_to_json(parallel, master_seed=MASTER_SEED, version="test")
    repeat = study_to_json(
        run_study(
            StudyGrid(),
            SimulationConfig(n=1000, p=4, rho=0.8, replications=200, seed=MASTER_SEED),
        ),
        master_seed=MASTER_SEED,
        version="test",
    )
    ok = a.encode() == b.encode() == repeat.encode()
    report(9, ok, f"{len(a)} JSON bytes compared across serial/parallel/rerun")
    assert a.encode() == b.encode()
    assert a.encode() == repeat.encode()

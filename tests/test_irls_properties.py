"""Property tests for the replication-batched IRLS loop and eigendecomposition.

Each draw is one design, sometimes with a duplicated column, and a stack
of responses mixing Bernoulli draws with completely separated, rare-event,
all-zero and all-one rows, fitted under a drawn iteration cap and
probability clip.  Every row of the stack must be bitwise what the same
response gets alone.  On a full-rank design it must agree with the scalar
oracle loop; on a duplicated column it must not end in a usable fit.  The
stacked eigendecomposition of X'VX keeps the same bitwise row contract,
also when X'VX takes the dense product of a design too large for the
packed one, and X'VX, in either of its product forms, is exactly
symmetric and within summation roundoff of the dense one.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liulogit import (
    BatchFit,
    FitConfig,
    SingularSystemError,
    irls_fit_batch,
    spectral_decompose_batch,
)
from liulogit import model

from _oracles import scalar_irls
from _util import correlated_design, gram_chunk_budget

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

EPS = np.finfo(float).eps

RESPONSE_KINDS = ("bernoulli", "separated", "rare", "zero", "one")

WEIGHT_KINDS = ("fitted", "indefinite", "nonfinite", "zero")


def response_row(kind, X, rng):
    n, p = X.shape
    if kind == "bernoulli":
        eta = X @ rng.standard_normal(p)
        return (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    if kind == "separated":
        return (X @ rng.standard_normal(p) > 0.0).astype(float)
    if kind == "rare":
        y = np.zeros(n)
        y[rng.integers(n)] = 1.0
        return y
    return np.full(n, 1.0 if kind == "one" else 0.0)


@st.composite
def response_stacks(draw):
    """(X, Y, config, full_rank): a design and a stack of mixed 0/1 responses."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = correlated_design(n, p, draw(st.sampled_from((0.0, 0.9, 0.999))), rng)
    full_rank = p == 1 or draw(st.booleans())
    if not full_rank:
        X[:, -1] = X[:, 0]  # rank-deficient: X'VX singular at every iterate
    kinds = draw(st.lists(st.sampled_from(RESPONSE_KINDS), min_size=1, max_size=6))
    Y = np.stack([response_row(kind, X, rng) for kind in kinds])
    config = FitConfig(
        max_iterations=draw(st.sampled_from((5, 30, 100))),
        probability_clip=draw(st.sampled_from((1e-10, 1e-2))),
    )
    return X, Y, config, full_rank


@PROPERTY_SETTINGS
@given(response_stacks())
def test_rows_are_independent_and_match_oracle(stack):
    X, Y, config, full_rank = stack
    batch = irls_fit_batch(X, Y, config)
    for i, y in enumerate(Y):
        alone = irls_fit_batch(X, Y[i : i + 1], config)
        for field in fields(BatchFit):
            got = getattr(batch, field.name)[i]
            assert np.array_equal(got, getattr(alone, field.name)[0], equal_nan=True), (
                i, field.name,
            )
        if not full_rank:
            # a rounding-level pivot may let a Newton step through, but the
            # row's final X'VX is still numerically singular
            final = spectral_decompose_batch(X, batch.v_diag[i : i + 1])
            assert batch.singular[i] or not final.positive_definite[0], i
            continue
        try:
            want = scalar_irls(X, y, config)
        except SingularSystemError as exc:
            assert batch.singular[i] and not batch.converged[i], i
            assert batch.iterations[i] == exc.iteration, i
            continue
        assert not batch.singular[i], i
        assert batch.converged[i] == want.converged, i
        assert batch.iterations[i] == want.iterations, i
        gap = np.max(np.abs(batch.beta[i] - want.beta))
        if want.converged:
            assert gap <= 1e-10, i
        else:
            # the oracle sums X'VX in another order; a row stopped on its way
            # to infinity (separation), at the cap or on a rejected step,
            # compounds that rounding over every step it took
            assert gap <= 1e-10 + 1e-7 * np.max(np.abs(want.beta)), i


def weight_row(kind, n, rng):
    v = rng.uniform(0.0, 0.25, size=n)
    if kind == "indefinite":
        v[: max(1, n // 2)] *= -1.0
    elif kind == "nonfinite":
        v[rng.integers(n)] = rng.choice([np.inf, np.nan])
    elif kind == "zero":
        v[:] = 0.0
    return v


@st.composite
def weight_stacks(draw):
    """(X, V): a design and a stack of weight rows, some not positive or finite."""
    p = draw(st.integers(1, 12))
    # n = 1000 is the study's largest design; 1500 goes beyond it
    n = draw(st.one_of(st.integers(p + 1, 60), st.sampled_from((1000, 1500))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = correlated_design(n, p, draw(st.sampled_from((0.0, 0.9, 0.999))), rng)
    kinds = draw(st.lists(st.sampled_from(WEIGHT_KINDS), min_size=1, max_size=70))
    return X, np.stack([weight_row(kind, n, rng) for kind in kinds])


def check_weight_stack(X, V):
    """Bitwise rows of the decomposition; the packed X'VX against the dense one."""
    batch = spectral_decompose_batch(X, V)
    rows = [spectral_decompose_batch(X, V[i : i + 1]) for i in range(V.shape[0])]
    for i, alone in enumerate(rows):
        for name in ("T", "lambdas"):
            got = getattr(batch, name)[i]
            assert np.array_equal(got, getattr(alone, name)[0], equal_nan=True), (i, name)

    # one map of X, built once and applied to the stack and to each row
    shared = model._GramMap(X)
    gram = shared(V)
    assert np.array_equal(gram, gram.swapaxes(-1, -2), equal_nan=True)
    for i in range(V.shape[0]):
        assert np.array_equal(shared(V[i : i + 1])[0], gram[i], equal_nan=True), i
    # each entry is a sum of n products, so both forms are within
    # (n + 1) eps of sum |v| |x_j| |x_l| of the exact value
    n = X.shape[0]
    for i in np.flatnonzero(np.all(np.isfinite(V), axis=1)):
        dense = (X * V[i][:, None]).T @ X
        bound = 2 * (n + 1) * EPS * ((np.abs(X) * np.abs(V[i])[:, None]).T @ np.abs(X))
        assert np.all(np.abs(gram[i] - dense) <= bound), i


@PROPERTY_SETTINGS
@given(weight_stacks())
def test_decomposition_rows_are_independent(stack):
    check_weight_stack(*stack)


@PROPERTY_SETTINGS
@given(weight_stacks(), st.integers(2, 5))
def test_decomposition_rows_are_independent_over_chunks(stack, chunks):
    # a budget of ceil(n / chunks) rows of packed products: X'VX takes the
    # dense product, whatever p
    X, V = stack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "GRAM_CHUNK_BYTES", gram_chunk_budget(*X.shape, chunks))
        check_weight_stack(X, V)


def test_rows_over_chunks_at_the_default_budget():
    # 2 383 rows of 55 packed products fill GRAM_CHUNK_BYTES, so a
    # 20 000 x 10 X'VX takes the dense product, unpatched
    n, p = 20_000, 10
    assert model._gram_chunk_rows(p) < n
    rng = np.random.default_rng(21)
    X = correlated_design(n, p, 0.9, rng)
    infinite = weight_row("fitted", n, rng)
    infinite[rng.integers(n)] = np.inf
    kinds = ("fitted", "zero", "indefinite", "fitted")
    V = np.stack([weight_row(kind, n, rng) for kind in kinds] + [infinite])
    gram = model._GramMap(X)(V)
    for i in range(V.shape[0]):
        alone = model._GramMap(X)(V[i : i + 1])[0]
        assert np.array_equal(gram[i], alone, equal_nan=True), i
    check_weight_stack(X, V)

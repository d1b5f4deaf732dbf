"""Property tests for the replication-batched IRLS loop.

Each draw is one design, sometimes with a duplicated column, and a stack
of responses mixing Bernoulli draws with completely separated, rare-event,
all-zero and all-one rows, fitted under a drawn iteration cap and
probability clip.  Every row of the stack must be bitwise what the same
response gets alone, and must agree with the scalar oracle loop.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liulogit import BatchFit, FitConfig, SingularSystemError, irls_fit_batch

from _oracles import scalar_irls
from _util import correlated_design

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

RESPONSE_KINDS = ("bernoulli", "separated", "rare", "zero", "one")


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
    """(X, Y, config): a design and a stack of mixed 0/1 responses."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = correlated_design(n, p, draw(st.sampled_from((0.0, 0.9, 0.999))), rng)
    if p > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]  # rank-deficient: X'VX singular at every iterate
    kinds = draw(st.lists(st.sampled_from(RESPONSE_KINDS), min_size=1, max_size=6))
    Y = np.stack([response_row(kind, X, rng) for kind in kinds])
    config = FitConfig(
        max_iterations=draw(st.sampled_from((5, 30, 100))),
        probability_clip=draw(st.sampled_from((1e-10, 1e-2))),
    )
    return X, Y, config


@PROPERTY_SETTINGS
@given(response_stacks())
def test_rows_are_independent_and_match_oracle(stack):
    X, Y, config = stack
    batch = irls_fit_batch(X, Y, config)
    for i, y in enumerate(Y):
        alone = irls_fit_batch(X, Y[i : i + 1], config)
        for field in fields(BatchFit):
            got = getattr(batch, field.name)[i]
            assert np.array_equal(got, getattr(alone, field.name)[0], equal_nan=True), (
                i, field.name,
            )
        try:
            want = scalar_irls(X, y, config)
        except SingularSystemError as exc:
            assert batch.singular[i] and not batch.converged[i], i
            assert batch.iterations[i] == exc.iteration, i
            continue
        assert not batch.singular[i], i
        assert batch.converged[i] == want.converged, i
        assert batch.iterations[i] == want.iterations, i
        assert np.max(np.abs(batch.beta[i] - want.beta)) <= 1e-10, i

"""Orbit schemas, Perron data and the induced additive chain."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab.doob import (ballot_probability, hitting_time_law,
                          increment_law, max_and_return)
from walklab.quasi import (SchemaError, a_matrix, induced_chain,
                           mb_ballot_probability, mb_hitting_time_law,
                           mb_max_and_return, parity_schema, parse_schema,
                           perron, schema_from_profile,
                           stationary_and_mean_checks)
from walklab.series import spectral_radius

SCHEMA_TEXT = """\
# fixed-end tree, single orbit
1 1 2 1 1
1 1 1 2 2
"""


def test_parse_schema_roundtrip():
    schema = parse_schema(SCHEMA_TEXT)
    assert schema.L == 1
    assert schema.degrees == [3]
    assert schema.counts[(1, 1, Fraction(2))] == 1
    schema.validate()


def test_schema_count_balance_rejected():
    bad = "1 2 2 1 1\n2 1 1 2 3\n1 1 1 1 2\n2 2 1 1 1\n"
    with pytest.raises(SchemaError):
        parse_schema(bad).validate()


def test_eq45_mirror_identity(fixed_end2, grandparent2, dl23):
    for model in (fixed_end2, grandparent2, dl23):
        schema = schema_from_profile(model.level_profile())
        schema.validate()
        for (i, j, q), cnt in schema.counts.items():
            assert cnt == Fraction(schema.counts[(j, i, 1 / q)], q)


def test_perron_uniform(fixed_end2):
    schema = schema_from_profile(fixed_end2.level_profile())
    A = a_matrix(schema)
    pd = perron(A)
    assert abs(pd.rho - 2 * math.sqrt(2) / 3) < 1e-13
    assert pd.residual < 1e-12
    assert np.allclose(pd.pi, [1.0])


@st.composite
def perron_matrices(draw):
    """Symmetric nonnegative irreducible L x L matrices: a random tree
    plus random extra entries, weights in [0.5, 2]; bipartite ones have
    only edges between the depth parities of the tree and are ordered
    into the block form [[0, B], [B^T, 0]]."""
    L = draw(st.integers(1, 12))
    bipartite = L > 1 and draw(st.booleans())
    weight = st.floats(0.5, 2)
    A, depth = np.zeros((L, L)), [0]
    for k in range(1, L):
        parent = draw(st.integers(0, k - 1))
        depth.append(depth[parent] + 1)
        A[k, parent] = A[parent, k] = draw(weight)
    side = np.array(depth) % 2 if bipartite else np.arange(L)
    extra = draw(st.lists(st.tuples(st.integers(0, L - 1),
                                    st.integers(0, L - 1), weight),
                          min_size=L == 1, max_size=2 * L))
    for i, j, w in extra:
        if not bipartite or side[i] != side[j]:
            A[i, j] = A[j, i] = w
    order = np.argsort(side, kind="stable")
    return A[np.ix_(order, order)]


@settings(max_examples=200, deadline=None)
@given(A=perron_matrices())
def test_perron_pair_matches_eigvalsh(A):
    pd = perron(A)
    top = np.linalg.eigvalsh(A).max()
    assert abs(pd.rho - top) <= 1e-13 * top
    assert pd.residual <= 1e-13 * pd.rho
    assert np.all(pd.v > 0)
    assert abs(np.linalg.norm(pd.v) - 1) <= 1e-13
    assert abs(pd.pi.sum() - 1) <= 1e-13


def test_perron_keeps_components_below_the_eigensolver_error():
    """The 12 x 12 path with A[0,0] = 10 and 0.1 off the diagonal: v_12 is
    about 1e-22, below eigh's normwise error, and eigh reads it as 0.  One
    inverse-iteration solve gives every component to a relative 1e-8 of
    the 50-digit eigenvector: it leaves a relative error of about (s - rho)
    / (s - lambda_2), 1e-9, where eigh's tail was wrong."""
    A = np.diag([0.1] * 11, 1)
    A = A + A.T
    A[0, 0] = 10
    pd = perron(A)
    with mpmath.workdps(50):
        w, Q = mpmath.eigsy(mpmath.matrix(A.tolist()))
        top = max(range(12), key=lambda k: w[k])
        ref = [abs(Q[i, top]) for i in range(12)]
        assert all(abs((x - r) / r) <= 1e-8 for x, r in zip(pd.v, ref))
    assert pd.v.min() > 0 and pd.residual <= 1e-13 * pd.rho


@pytest.mark.parametrize("A, message", [
    (np.diag([1.0, 2.0]), "reducible"),
    (np.array([[1.0, -0.5], [-0.5, 1.0]]), "negative"),
    (np.zeros((1, 1)), "zero matrix"),
])
def test_perron_rejects(A, message):
    with pytest.raises(SchemaError, match=message):
        perron(A)


def test_parity_schema_perron(fixed_end2):
    schema = parity_schema(fixed_end2.level_profile())
    assert schema.L == 2
    A = a_matrix(schema)
    pd = perron(A)
    assert abs(pd.rho - 2 * math.sqrt(2) / 3) < 1e-12
    assert np.allclose(pd.pi, [0.5, 0.5], atol=1e-10)
    checks = stationary_and_mean_checks(schema, pd)
    assert checks["stationarity_residual"] < 1e-10
    assert checks["pairwise_cancellation_exact"]


def test_parity_needs_odd_steps(grandparent2):
    # the grandparent profile has even lattice steps, so no parity refinement
    with pytest.raises(SchemaError):
        parity_schema(grandparent2.level_profile())


def test_induced_chain_exact_matches_level_walk(fixed_end2):
    profile = fixed_end2.level_profile()
    law = increment_law(profile, spectral_radius(fixed_end2))
    for schema in (schema_from_profile(profile), parity_schema(profile)):
        pd = perron(a_matrix(schema))
        chain = induced_chain(schema, pd, exact=True)
        chain.validate()
        for n, r in [(6, 0), (7, 1), (9, 3)]:
            assert mb_ballot_probability(chain, n, r) == \
                ballot_probability(law, n, r, mode="exact")
        for n, r in [(6, 1), (8, 2)]:
            assert mb_max_and_return(chain, n, r) == \
                max_and_return(law, n, r, mode="exact")
        tau_mb = mb_hitting_time_law(chain, 2, 10)
        tau_dp = hitting_time_law(law, 2, 10, mode="exact")
        for k in range(2, 11):
            assert tau_mb[k] == tau_dp[k]


def test_induced_chain_float_mode(grandparent2):
    profile = grandparent2.level_profile()
    schema = schema_from_profile(profile)
    pd = perron(a_matrix(schema))
    chain = induced_chain(schema, pd, exact=False)
    chain.validate()
    law = increment_law(profile, spectral_radius(grandparent2))
    for n, r in [(6, 0), (8, 1)]:
        assert abs(mb_ballot_probability(chain, n, r)
                   - ballot_probability(law, n, r, mode="float")) < 1e-12

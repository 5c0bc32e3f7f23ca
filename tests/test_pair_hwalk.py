"""The Doob h-walk stepped as integer pairs: L P_h = A + B sqrt(D) acts on
(X, Y), X + Y sqrt(D), as the integer matrix [[A, D B], [B, A]], and the
root entries (X_n + Y_n sqrt(D)) / L**n of one residue walk are a_n.  It
must equal the `QuadExt` object-array walk (`oracles.quadext_hwalk`) at
every n.  The grandparent weights carry sqrt(D) coefficients of both
signs (1/rho = 4 - 2 sqrt(2) for b=2); the fixed-end tree and
Diestel-Leader weights are rational, so their Y rows stay 0."""

import functools

from hypothesis import example, given, settings, strategies as st

from oracles import quadext_hwalk
from walklab.doob import DoobChain, doob_chain
from walklab.models import ModelSpec, build_model
from walklab.qfield import QuadExt, integer_pairs
from walklab.series import spectral_radius

N = 60
SPECS = [ModelSpec("grandparent", b=2), ModelSpec("grandparent", b=3),
         ModelSpec("fixed_end_tree", b=2),
         ModelSpec("diestel_leader", q=2, r=3),
         ModelSpec("diestel_leader", q=3, r=2)]


@functools.lru_cache(maxsize=None)
def _doob(i):
    model = build_model(SPECS[i])
    dc = doob_chain(model.collapse(N), spectral_radius(model))
    return dc, quadext_hwalk(dc, N)


@settings(max_examples=30, deadline=None)
@given(i=st.integers(0, len(SPECS) - 1), n=st.integers(0, N))
@example(i=0, n=N)
@example(i=3, n=N)
@example(i=4, n=0)
def test_pair_walk_equals_quadext_walk(i, n):
    dc, oracle = _doob(i)
    got = dc.return_series_exact(n)
    assert got == oracle[:n + 1]
    assert all(type(x) is QuadExt and x.d == dc.weights[0].d for x in got)


def test_pairs_rebuild_the_weights():
    for i, spec in enumerate(SPECS):
        dc, _ = _doob(i)
        A, B, L, D = integer_pairs(dc.weights.tolist())
        assert all(type(x) is int for x in (*A, *B, L, D))
        assert [QuadExt(D, a, b) / L for a, b in zip(A, B)] == \
            dc.weights.tolist()
        irrational = spec.family == "grandparent"
        assert min(B) < 0 < max(B) if irrational else not any(B)


def test_reversibility_reads_the_sqrt_part():
    # adding sqrt(2)/8 to one entry keeps every A = 8 Re(p_h) and breaks
    # detailed balance between that entry and its reverse only
    dc, _ = _doob(0)
    chain = dc.base_chain
    indptr, targets, _ = chain.csr
    k = indptr[chain.root]
    i, j = chain.root, int(targets[k])
    weights = dc.weights.copy()
    weights[k] = weights[k] + QuadExt(2, 0, 1) / 8
    assert integer_pairs(weights.tolist())[0] == \
        integer_pairs(dc.weights.tolist())[0]
    rev = DoobChain(chain, weights).reversibility_check()
    assert sorted(rev["violations"]) == [(i, j, "detailed balance"),
                                         (j, i, "detailed balance")]

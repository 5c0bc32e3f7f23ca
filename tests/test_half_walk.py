"""Float root series from half-length walks on the symmetrized chain.

`CollapsedChain.return_series_float` walks A[i, j] = sqrt(c_ij c_ji) / d
for ceil(n/2) steps and reads u_2k = |v_k|**2, u_2k-1 = <v_k-1, v_k>.
The taboo f_n (`taboo_series_float`) reads the same sums with the root
entry of v_k zeroed between them, and the Doob a_n
(`DoobChain.return_series_float`) walks the h-walk's symmetrization.
Each meets one error budget against its exact series x_n: at every n,

    |float x_n - x_n| <= (n + m/2) 2**-52 x_n + 2**-1074,

with m = cone(n // 2) the states the closing sum runs over.  n 2**-52
is the walk's share, as for the full walk of P; the sum is an einsum,
which adds one term after another, and a sum of m nonnegative terms in
any order is off by at most (m - 1) 2**-53 relative (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2002, section 4.2).  Subnormal
cells are off by at most one unit of the last place; a u_n that is
exactly 0 (odd n on a bipartite chain) is 0.  The largest error seen
is 1.9e-13 (tree b=10 at n=1258, 0.57 of the budget); the sum alone
reaches 14 units on the cartesian tree x tree ball at n=10, 628 states.
The taboo f_n on tree b=10 stays within 1.9e-13 of float(exact f_n) up
to n=1400.
"""

import dataclasses
import functools
import importlib.util
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import walklab
import walklab.cli  # noqa: F401  (the tracer wraps every layer)
from walklab.chains import CollapsedChain
from walklab.doob import doob_chain
from walklab.models import ModelSpec, build_model
from walklab.series import spectral_radius

EPS, TINY = 2.0 ** -52, 2.0 ** -1074
TREE2 = ModelSpec("tree", b=2)

# (spec, largest n): families with a collapse, and a cartesian ball
FAMILIES = (
    [(ModelSpec("tree", b=b), 300) for b in (2, 3, 4, 5)]
    + [(ModelSpec("grandparent", b=b), 60) for b in (2, 3)]
    + [(ModelSpec("diestel_leader", q=q, r=r), 60)
       for q, r in ((2, 3), (3, 2), (2, 4))]
    + [(ModelSpec("fixed_end_tree", b=b), 120) for b in (2, 3)]
    + [(ModelSpec("cartesian", factors=(TREE2, TREE2)), 11)])
BALLS = [ModelSpec("free_product", alpha=a, beta=b)
         for a, b in ((3, 2), (4, 2), (3, 3))]


def _chain(model, n):
    """The chain whose horizon is at least n: a collapse, or a ball."""
    if model.has_collapse:
        return model.collapse(n)
    return model.enumerate_ball(n // 2)


def _series(kind, chain, model):
    """(float, exact) series of a chain: u_n, the taboo f_n, or the Doob
    a_n."""
    if kind == "a":
        chain = doob_chain(chain, spectral_radius(model))
    elif kind == "f":
        return chain.taboo_series_float, chain.taboo_series_exact
    return chain.return_series_float, chain.return_series_exact


# (series, family index): the Doob a_n where the family has levels
CASES = [(kind, i) for kind in "ufa" for i, (spec, _) in enumerate(FAMILIES)
         if kind != "a" or build_model(spec).level_base is not None]


@functools.lru_cache(maxsize=None)
def _exact(kind, i):
    spec, n = FAMILIES[i]
    model = build_model(spec)
    return model, _series(kind, _chain(model, n), model)[1](n)


def assert_within_budget(got, exact, chain):
    assert len(got) == len(exact)
    for n, (x, ref) in enumerate(zip(got.tolist(), exact)):
        if ref == 0:
            assert x == 0, n
        else:
            r, m = float(ref), chain.cone(n // 2)
            assert abs(x - r) <= (n + m / 2) * EPS * r + TINY, (n, x, r)


@settings(max_examples=90, deadline=None)
@given(case=st.sampled_from(CASES), frac=st.floats(0, 1))
@example(case=("u", 0), frac=1.0)
@example(case=("u", 4), frac=1.0)
@example(case=("u", len(FAMILIES) - 1), frac=1.0)
@example(case=("u", 6), frac=0.0)
@example(case=("f", 0), frac=1.0)
@example(case=("f", len(FAMILIES) - 1), frac=1.0)
@example(case=("a", 4), frac=1.0)
@example(case=("a", 9), frac=1.0)
@example(case=("a", 4), frac=0.0)
def test_half_walk_equals_exact_within_budget(case, frac):
    kind, i = case
    model, exact = _exact(kind, i)
    n = round(frac * FAMILIES[i][1])
    # a Doob chain needs an entry, so a horizon of 2 at least
    chain = _chain(model, max(n, 2) if kind == "a" else n)
    got = _series(kind, chain, model)[0](n)
    assert_within_budget(got, exact[:n + 1], chain)


@pytest.mark.parametrize("spec,n", [
    (ModelSpec("tree", b=10), 1400), (TREE2, 2000),
    (ModelSpec("grandparent", b=2), 300)],
    ids=["tree(b=10)-1400", "tree(b=2)-2000", "grandparent(b=2)-300"])
def test_long_horizons_within_budget(spec, n):
    chain = build_model(spec).collapse(n)
    got, exact = chain.return_series_float(n), chain.return_series_exact(n)
    assert_within_budget(got, exact, chain)
    # the rescaled walk keeps the subnormal tail of float(exact u_n): for
    # tree b=10 both end at n=1328, where an unscaled one stops at 1322
    last = max(k for k, x in enumerate(exact) if float(x))
    assert np.flatnonzero(got)[-1] == last
    if spec.b == 10:
        assert last == 1328


@pytest.mark.parametrize("spec", [spec for spec, _ in FAMILIES] + BALLS,
                         ids=lambda s: f"{s.family}{s.b or ''}{s.q or ''}"
                         f"{s.r or ''}{s.alpha or ''}{s.beta or ''}")
def test_bipartite_flag_is_the_chains_own(spec):
    """A chain is flagged bipartite exactly when no entry joins two states
    of one depth, so its odd u_n are 0; skipping their sums changes no
    bit of the series."""
    chain = _chain(build_model(spec), 8)
    indptr, targets, _ = chain.csr
    depth = np.array(chain.depth)
    rows = np.repeat(np.arange(len(chain)), np.diff(indptr))
    assert chain.bipartite == (not np.any(depth[rows] == depth[targets]))
    summed = dataclasses.replace(chain, bipartite=False, _matrix=None)
    assert np.array_equal(chain.return_series_float(8),
                          summed.return_series_float(8))


def _hand_chain(targets, counts, indptr, denom=2):
    ns = len(indptr) - 1
    return CollapsedChain(
        states=list(range(ns)), csr=(array("q", indptr), array("i", targets),
                                     array("i", counts)),
        denom=denom, level=None, level_base=None, horizon=4,
        depth=list(range(ns)), t0=1)


@pytest.mark.parametrize("csr", [
    ([1, 0, 2], [2, 1, 1], [0, 1, 3, 3]),  # 1 -> 2, and 2 has no row
    ([1, 2, 0], [2, 2, 2], [0, 1, 2, 3])],  # the cycle 0 -> 1 -> 2 -> 0
    ids=["missing-row", "one-way-cycle"])
def test_entry_without_reverse_raises(csr):
    chain = _hand_chain(*csr)
    for series in (chain.return_series_float, chain.taboo_series_float):
        with pytest.raises(ValueError, match="no entry j -> i"):
            series(4)


def test_count_products_past_int32():
    # c_01 c_10 = 50000**2 > 2**31: A[0, 1] = 50000 / 10**5 exactly
    chain = _hand_chain([1, 0], [50000, 50000], [0, 1, 2], denom=10 ** 5)
    assert chain.return_series_float(4).tolist() == [1, 0, 0.25, 0, 0.0625]


def test_float_series_share_one_symmetric_matrix(grandparent2):
    """u_n and the taboo f_n walk one cached A, the symmetrization of P
    (A[j, i] = sqrt(P[j, i] P[i, j])); `matrix()` still builds P."""
    chain = grandparent2.collapse(60)
    chain.return_series_float(60)
    A, P = chain._matrix, chain.matrix()
    assert (A != A.T).nnz == 0
    assert np.array_equal(A.indptr, P.indptr)
    assert np.array_equal(A.indices, P.indices)
    assert np.allclose(A.data, np.sqrt(P.multiply(P.T).tocsr().data),
                       rtol=4 * EPS, atol=0)
    f = chain.taboo_series_float(60)
    assert chain._matrix is A
    assert_within_budget(f, chain.taboo_series_exact(60), chain)


def test_long_horizon_taboo_series():
    """Taboo f_n on tree b=10 to n=1400, subnormal tail included, within
    2e-13 of float(exact f_n) wherever that is not 0."""
    chain = build_model(ModelSpec("tree", b=10)).collapse(1400)
    got, exact = chain.taboo_series_float(1400), chain.taboo_series_exact(1400)
    assert_within_budget(got, exact, chain)
    ref = np.array([float(x) for x in exact])
    hit = ref > 0
    assert np.all(np.abs(got[hit] - ref[hit]) <= 2e-13 * ref[hit])


def test_half_walk_memory(grandparent2):
    """tracemalloc peak of a float u_n on grandparent b=2 `collapse(500)`
    (125,501 states, 501,998 entries), above the chain: 8.62 MiB
    measured, bounded at 9.5 MiB, below the 10.55 MiB of the full walk
    of P.  It keeps only A on the chain: 6.23 MiB, as large as the P
    that the full walk kept."""
    chain = grandparent2.collapse(500)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = chain.return_series_float(500)
        peak = tracemalloc.get_traced_memory()[1] - base
        del u
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    A = chain._matrix
    held = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert peak <= 9.5 * 2 ** 20
    assert held <= kept <= held + 2 ** 16


def test_traced_float_series_run(grandparent2):
    """The benchmark's tracer (perfbench/tracing.py) wraps both float
    series and reads the entry count of the matrix they walked from
    ``chain._matrix``; traced, they run and are counted."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(walklab)
    try:
        chain = grandparent2.collapse(40)
        u = chain.return_series_float(40)
        f = chain.taboo_series_float(40)
    finally:
        tracer.uninstall()
    assert len(u) == len(f) == 41
    assert not any(span[7] for span in tracer.spans)
    assert tracer.counts["chains.float_nnz_steps"] > 0

"""`collapse` builds a chain one BFS depth at a time as arrays: the same
chain, to the byte, as the state-by-state truncation `truncate_moves`
over the family's vertex moves counted by target, `counted_moves`, with
levels and depths kept as Python ints and state tuples decoded only when
read."""

import tracemalloc
from functools import partial
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import counted_moves, truncate_moves
from walklab.bridges import bridge_level_visits
from walklab.models import (_CHUNK, DEFAULT_BALL_CAP, BallCapExceeded,
                            ModelError, ModelSpec, build_model)
from walklab.series import return_probabilities


def spec_id(spec):
    return build_model(spec).name()


FAMILIES = (
    [ModelSpec("tree", b=b) for b in (2, 10)]
    + [ModelSpec("fixed_end_tree", b=b) for b in (2, 3)]
    + [ModelSpec("grandparent", b=b) for b in (2, 3, 4)]
    + [ModelSpec("diestel_leader", q=q, r=r)
       for q, r in ((2, 3), (3, 2), (2, 2), (3, 5))])


@pytest.mark.parametrize("n", [0, 1, 2, 7, 24, 61])
@pytest.mark.parametrize("spec", FAMILIES, ids=spec_id)
def test_collapse_equals_state_by_state_truncation(spec, n):
    model = build_model(spec)
    chain = model.collapse(n)
    states, depth, csr = truncate_moves(model.orbit_root(),
                                        partial(counted_moves, model),
                                        n // 2, DEFAULT_BALL_CAP)
    assert [a.typecode for a in chain.csr] == [a.typecode for a in csr]
    assert list(chain.csr) == list(csr)
    assert list(chain.states) == states and len(chain.states) == len(states)
    assert chain.depth == depth
    assert chain.level == [model.orbit_level(s) for s in states]
    assert chain.t0 == (model.level_profile().t0_lattice or 1)


@pytest.mark.parametrize("n,chunks", [(130, 2), (240, 4)])
def test_collapse_equals_truncation_over_several_chunks(n, chunks):
    """The frontier at depth n // 2 is expanded `_CHUNK` rows at a time:
    DL(2,3)'s has 1,122 rows at n = 130 and 3,721 at n = 240, so the
    lookups of later chunks reuse the sorted run of the first."""
    spec = ModelSpec("diestel_leader", q=2, r=3)
    last = build_model(spec).collapse(n).depth.count(n // 2)
    assert -(-last // _CHUNK) == chunks
    test_collapse_equals_state_by_state_truncation(spec, n)


def truncated(chain, n):
    """``chain``, a collapse(N) with N >= n, cut to depth n // 2: its first
    rows, with the targets numbered past them dropped from the rows at
    depth n // 2, as (rows, depth, level, csr) lists."""
    size = sum(d <= n // 2 for d in chain.depth)
    indptr, targets, counts = (np.array(a) for a in chain.csr)
    keep = targets[:indptr[size]] < size
    rows = np.repeat(np.arange(size), np.diff(indptr[:size + 1]))[keep]
    return (chain.states.rows[:size].tolist(), chain.depth[:size],
            chain.level[:size],
            [np.bincount(rows, minlength=size).cumsum().tolist(),
             targets[:indptr[size]][keep].tolist(),
             counts[:indptr[size]][keep].tolist()])


@settings(max_examples=25, deadline=None)
@given(i=st.integers(0, len(FAMILIES) - 1), n=st.integers(0, 399),
       more=st.integers(1, 400))
def test_collapse_is_its_longer_collapse_cut(i, n, more):
    """collapse(n) is collapse(N), n < N <= 400, cut at depth n // 2: the
    same first rows, depths and levels, the same CSR rows below that
    depth, and at it the rows of collapse(N) without the targets past
    them.  This reaches the thin-tree horizons no oracle does."""
    model = build_model(FAMILIES[i])
    chain = model.collapse(n)
    rows, depth, level, (indptr, targets, counts) = truncated(
        model.collapse(min(n + more, 400)), n)
    assert chain.states.rows.tolist() == rows
    assert chain.depth == depth and chain.level == level
    assert list(chain.csr[0]) == [0, *indptr]
    assert list(chain.csr[1]) == targets and list(chain.csr[2]) == counts


def test_collapse_memory():
    """grandparent(b=2).collapse(500), 125,501 states, peaks at most at
    11,176,976 bytes of traced allocations, the highest of four runs of
    this test on the frontier BFS that moved rows, not keys (11,168,356 to
    11,176,976; on keys 11,160,969 to 11,164,733).  The CSR is appended
    depth by depth; a layout that holds more at once fails here."""
    model = build_model(ModelSpec("grandparent", b=2))
    model.collapse(12)  # the class table and the level profile
    tracemalloc.start()
    try:
        chain = model.collapse(500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chain) == 125501
    assert peak <= 11_176_976


@pytest.mark.parametrize("spec", FAMILIES[::2], ids=spec_id)
def test_collapse_raises_once_the_count_passes_the_cap(spec):
    model = build_model(spec)
    size = len(model.collapse(24))
    assert len(model.collapse(24, cap=size)) == size
    with pytest.raises(BallCapExceeded):
        model.collapse(24, cap=size - 1)


@pytest.mark.parametrize("spec,dim,reach", [
    (ModelSpec("grandparent", b=2), 2, 2),
    (ModelSpec("diestel_leader", q=2, r=3), 4, 1)],
    ids=["grandparent(b=2)", "diestel_leader(q=2,r=3)"])
def test_overflowing_radius_raises_before_building(spec, dim, reach):
    """The key radix reach * (radius + 1) + 1, reach the largest change of
    a coordinate in one move, must keep radix**dim within int64: the
    largest such radius starts building (and hits the cap), the next
    raises before a frontier is expanded."""
    model = build_model(spec)
    radix = isqrt(2 ** 63) if dim == 2 else isqrt(isqrt(2 ** 63))
    radius = (radix - 1) // reach - 1
    with pytest.raises(BallCapExceeded):
        model.collapse(2 * radius, cap=10)
    fresh = build_model(spec)
    fresh._boundary = None  # expanding a frontier would now fail
    with pytest.raises(ModelError) as err:
        fresh.collapse(2 * radius + 2)
    assert not isinstance(err.value, BallCapExceeded)
    assert "overflows" in str(err.value)


SIX = [ModelSpec("tree", b=2), ModelSpec("fixed_end_tree", b=2),
       ModelSpec("grandparent", b=2), ModelSpec("diestel_leader", q=2, r=3),
       ModelSpec("diestel_leader", q=3, r=2),
       ModelSpec("diestel_leader", q=2, r=2)]


@pytest.mark.parametrize("spec", SIX, ids=spec_id)
def test_levels_and_depths_are_python_ints(spec):
    """Exact arithmetic raises Fractions to levels, and a numpy integer
    exponent can give a wrong Fraction: with numpy 2.4,
    ``Fraction(2) ** np.int64(70)`` is 0."""
    chain = build_model(spec).collapse(200)
    assert {type(x) for x in chain.level} == {int}
    assert {type(x) for x in chain.depth} == {int}


@pytest.mark.parametrize("spec", [ModelSpec("fixed_end_tree", b=2),
                                  ModelSpec("grandparent", b=2)], ids=spec_id)
def test_series_and_bridge_tables_decode_no_state(spec):
    model = build_model(spec)
    decoded = []
    state = model._state
    model._state = lambda row: decoded.append(row) or state(row)
    chain = model.collapse(200)
    decoded.clear()  # the class table decodes one row per class
    return_probabilities(chain, 200, mode="float")
    u = return_probabilities(chain, 200)
    bridge_level_visits(chain, u, 100, 1)
    assert decoded == []
    row = chain.states.rows[1].tolist()
    assert chain.states[1] == state(row) and decoded == [row]

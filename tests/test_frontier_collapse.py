"""`collapse` builds a chain one BFS depth at a time as arrays: the same
chain, to the byte, as the state-by-state truncation `truncate_moves`
over the family's own `_moves`, with levels and depths kept as Python
ints and state tuples decoded only when read."""

from math import isqrt

import pytest

from oracles import truncate_moves
from walklab.bridges import bridge_level_visits
from walklab.models import (DEFAULT_BALL_CAP, BallCapExceeded, ModelError,
                            ModelSpec, build_model)
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
    states, depth, csr = truncate_moves(model.orbit_root(), model._moves,
                                        n // 2, DEFAULT_BALL_CAP)
    assert [a.typecode for a in chain.csr] == [a.typecode for a in csr]
    assert list(chain.csr) == list(csr)
    assert list(chain.states) == states and len(chain.states) == len(states)
    assert chain.depth == depth
    assert chain.level == [model.orbit_level(s) for s in states]
    assert chain.t0 == (model.level_profile().t0_lattice or 1)


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
    fresh._expand = None  # expanding a frontier would now fail
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

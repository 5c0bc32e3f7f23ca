"""Vertices as integer rows: `neighbor_rows` is `neighbors` read on rows,
in its order, on int64 rows and on Python ints past int64, and the orbit
moves a collapse reads are the vertex moves counted by target."""

from collections import Counter

import numpy as np
import pytest

from walklab.models import ModelSpec, build_model

SPECS = [ModelSpec("tree", b=2), ModelSpec("tree", b=3),
         ModelSpec("fixed_end_tree", b=3), ModelSpec("grandparent", b=2),
         ModelSpec("grandparent", b=3), ModelSpec("diestel_leader", q=2, r=3),
         ModelSpec("diestel_leader", q=3, r=2),
         ModelSpec("diestel_leader", q=2, r=2)]
# families without a collapse: vertex rows only
BALL_SPECS = [
    ModelSpec("cartesian", factors=(ModelSpec("tree", b=2),) * 2),
    ModelSpec("cartesian", factors=(ModelSpec("tree", b=2),
                                    ModelSpec("fixed_end_tree", b=2))),
    ModelSpec("free_product", alpha=3, beta=3),
    ModelSpec("free_product", alpha=3, beta=2),
    ModelSpec("free_product", alpha=4, beta=2)]


def spec_id(spec):
    return build_model(spec).name()


def rows_of_neighbors(model, vertices):
    return [[list(model.vertex_row(w)) for w in model.neighbors(v)]
            for v in vertices]


@pytest.mark.parametrize("spec", SPECS + BALL_SPECS, ids=spec_id)
def test_neighbor_rows_equal_neighbors(spec):
    model = build_model(spec)
    ball = model.enumerate_ball(4).vertices
    rows = np.array([model.vertex_row(v) for v in ball])
    assert rows.dtype == np.int64
    assert model.neighbor_rows(rows).tolist() == \
        rows_of_neighbors(model, ball)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_neighbor_rows_exact_past_int64(spec):
    """Down a path of 70 last neighbors a word code passes 2^63; the
    rows of the vertices along it, as Python ints, still step exactly."""
    model = build_model(spec)
    path = [model.root_vertex()]
    for _ in range(70):
        path.append(model.neighbors(path[-1])[-1])
    rows = np.array([model.vertex_row(v) for v in path], dtype=object)
    assert max(rows.ravel()) >= 2 ** 63
    assert model.neighbor_rows(rows).tolist() == \
        rows_of_neighbors(model, path)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_orbit_moves_count_neighbors_in_order(spec):
    """The collapse counts, in the order the chain's rows list them: the
    orbits of a vertex's neighbors, counted in `neighbors` order."""
    model = build_model(spec)
    for v in model.enumerate_ball(4).vertices:
        seen = Counter(map(model.vertex_orbit, model.neighbors(v)))
        assert model.orbit_moves(model.vertex_orbit(v)) == \
            list(seen.items()), v

"""Balls on the frontier kernel: `enumerate_ball` is the vertex-by-vertex
truncation `truncate_vertices` (csr, depths, levels, vertex order and
index) on every family, at every radius 0-7 the tests build, and raises
at its cap and where its int64 keys would overflow."""

import numpy as np
import pytest

from oracles import truncate_vertices
from test_vertex_rows import BALL_SPECS, SPECS
from walklab.models import (DEFAULT_BALL_CAP, BallCapExceeded, ModelError,
                            ModelSpec, build_model)

# (spec, radius): radius 0-7, but grandparent b=3 to 4 (n_check = 8 of
# `test_collapse_matches_ball`; its radius 5 ball has 103,335 vertices)
CASES = [(spec, r) for spec in SPECS + BALL_SPECS for r in range(8)
         if not (spec == ModelSpec("grandparent", b=3) and r > 4)]


def case_id(value):
    return build_model(value).name() if isinstance(value, ModelSpec) \
        else f"r{value}"


@pytest.mark.parametrize("spec,radius", CASES, ids=case_id)
def test_ball_equals_vertex_truncation(spec, radius):
    model = build_model(spec)
    ball = model.enumerate_ball(radius)
    nodes, index, depth, csr = truncate_vertices(
        model.root_vertex(), model.neighbors, radius, DEFAULT_BALL_CAP)
    assert [(a.typecode, a.tolist()) for a in ball.csr] == \
        [(a.typecode, a.tolist()) for a in csr]
    assert ball.dist == depth
    assert ball.levels == (None if model.level_base is None else
                           [model.vertex_level(v) for v in nodes])
    assert list(ball.vertices) == nodes
    assert ball.states.rows.tolist() == [list(model.vertex_row(v))
                                         for v in nodes]
    # decoding one vertex, and the index, on at most ~500 of them
    picks = range(0, len(nodes), -(-len(nodes) // 500))
    assert [ball.vertices[i] for i in picks] == [nodes[i] for i in picks]
    assert ball.vertices[-1] == nodes[-1]
    assert [ball.index[nodes[i]] for i in picks] == list(picks)
    assert len(ball.index) == len(index) and \
        ball.index[nodes[-1]] == index[nodes[-1]]


@pytest.mark.parametrize("spec", SPECS + BALL_SPECS, ids=case_id)
def test_index_misses_the_vertices_past_the_ball(spec):
    model = build_model(spec)
    ball = model.enumerate_ball(3)
    outside = {w for v in ball.vertices for w in model.neighbors(v)} \
        - set(ball.vertices)
    assert outside
    for v in outside:
        assert v not in ball.index
        with pytest.raises(KeyError):
            ball.index[v]


@pytest.mark.parametrize("spec", [SPECS[3], SPECS[5], *BALL_SPECS[::2]],
                         ids=case_id)
def test_ball_cap(spec):
    """A ball of exactly ``cap`` vertices is built; one fewer raises, with
    the vertex count when the frontier that passed the cap was numbered."""
    model = build_model(spec)
    size = len(model.enumerate_ball(4))
    assert len(model.enumerate_ball(4, cap=size)) == size
    with pytest.raises(BallCapExceeded) as err:
        model.enumerate_ball(4, cap=size - 1)
    assert err.value.count == size and err.value.cap == size - 1


def test_overflowing_keys_raise():
    """Tree rows (t, code) with the code scaled by 2**61: the root's ball
    is built, but the radix of depth 1, 2 * (2 * 2**61 + 1) > 2**63,
    raises before any vertex of depth 1 is numbered."""
    model = build_model(ModelSpec("tree", b=2))
    scale, neighbor_rows = np.array([1, 2 ** 61]), model.neighbor_rows
    model.neighbor_rows = lambda rows: neighbor_rows(rows // scale) * scale
    assert len(model.enumerate_ball(0)) == 1
    with pytest.raises(ModelError) as err:
        model.enumerate_ball(1)
    assert not isinstance(err.value, BallCapExceeded)
    assert "overflows the int64 keys" in str(err.value)

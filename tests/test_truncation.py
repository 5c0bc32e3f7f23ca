"""Balls and collapsed chains are breadth-first truncations, and the
orbit API alone determines levels, level profiles and the chain's level
step."""

import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from walklab.models import (BallCapExceeded, ModelSpec, build_model,
                            validate_collapse)


@pytest.mark.parametrize("spec", [
    ModelSpec("tree", b=2), ModelSpec("fixed_end_tree", b=3),
    ModelSpec("grandparent", b=2), ModelSpec("diestel_leader", q=2, r=3)],
    ids=lambda spec: build_model(spec).name())
def test_collapse_computes_each_move_once(spec):
    """No move is computed twice: over two collapses `_vertex_moves` runs
    once per boundary class, and `orbit_moves` only for the level
    profile's root."""
    model = build_model(spec)
    classes, reads = Counter(), []
    moves, orbit_moves = model._vertex_moves, model.orbit_moves

    def counting_moves(state):
        classes[int(model._boundary(model._coords(state)))] += 1
        return moves(state)

    def counting_orbit_moves(state):
        reads.append(state)
        return orbit_moves(state)

    model._vertex_moves, model.orbit_moves = counting_moves, \
        counting_orbit_moves
    chain = model.collapse(40)
    model.collapse(30)
    met = {int(model._boundary(model._coords(s))) for s in chain.states}
    assert met <= set(classes) and set(classes.values()) == {1}
    # a family without levels has a profile without moves
    profiled = model.level_base is not None
    assert reads == [model.orbit_root()] * 2 * profiled


def test_ball_expands_each_frontier_once():
    """A ball is built on vertex rows: `neighbors` is never called, and
    `neighbor_rows` once per depth <= radius, on that depth's rows."""
    model = build_model(ModelSpec("diestel_leader", q=2, r=3))
    calls, frontiers, neighbor_rows = [], [], model.neighbor_rows

    def recording(rows):
        frontiers.append(rows.tolist())
        return neighbor_rows(rows)

    model.neighbors, model.neighbor_rows = calls.append, recording
    ball = model.enumerate_ball(5)
    assert calls == []
    assert frontiers == [ball.states.rows[np.equal(ball.depth, d)].tolist()
                         for d in range(6)]


def spec_id(value):
    return build_model(value).name() if isinstance(value, ModelSpec) \
        else str(value)


# (family, parameters) -> (degree, ordered entries, base, t0_lattice)
PROFILES = {
    ("tree", (("b", 2),)): (3, [(F(1), 3)], None, 0),
    ("tree", (("b", 3),)): (4, [(F(1), 4)], None, 0),
    ("tree", (("b", 5),)): (6, [(F(1), 6)], None, 0),
    ("tree", (("b", 10),)): (11, [(F(1), 11)], None, 0),
    ("fixed_end_tree", (("b", 2),)): (3, [(F(2), 1), (F(1, 2), 2)], F(2), 1),
    ("fixed_end_tree", (("b", 3),)): (4, [(F(3), 1), (F(1, 3), 3)], F(3), 1),
    ("fixed_end_tree", (("b", 5),)): (6, [(F(5), 1), (F(1, 5), 5)], F(5), 1),
    ("grandparent", (("b", 2),)): (
        8, [(F(4), 1), (F(2), 1), (F(1, 2), 2), (F(1, 4), 4)], F(2), 2),
    ("grandparent", (("b", 3),)): (
        14, [(F(9), 1), (F(3), 1), (F(1, 3), 3), (F(1, 9), 9)], F(3), 2),
    ("grandparent", (("b", 4),)): (
        22, [(F(16), 1), (F(4), 1), (F(1, 4), 4), (F(1, 16), 16)], F(4), 2),
    ("diestel_leader", (("q", 2), ("r", 2))): (4, [(F(1), 4)], None, 0),
    ("diestel_leader", (("q", 2), ("r", 3))): (
        5, [(F(3, 2), 2), (F(2, 3), 3)], F(3, 2), 1),
    ("diestel_leader", (("q", 2), ("r", 5))): (
        7, [(F(5, 2), 2), (F(2, 5), 5)], F(5, 2), 1),
    ("diestel_leader", (("q", 3), ("r", 2))): (
        5, [(F(3, 2), 2), (F(2, 3), 3)], F(3, 2), 1),
    ("diestel_leader", (("q", 3), ("r", 3))): (6, [(F(1), 6)], None, 0),
    ("diestel_leader", (("q", 3), ("r", 5))): (
        8, [(F(5, 3), 3), (F(3, 5), 5)], F(5, 3), 1),
    ("diestel_leader", (("q", 4), ("r", 2))): (
        6, [(F(2), 2), (F(1, 2), 4)], F(2), 1),
    ("diestel_leader", (("q", 4), ("r", 3))): (
        7, [(F(4, 3), 3), (F(3, 4), 4)], F(4, 3), 1),
    ("diestel_leader", (("q", 4), ("r", 5))): (
        9, [(F(5, 4), 4), (F(4, 5), 5)], F(5, 4), 1),
}


@pytest.mark.parametrize("key", PROFILES, ids=lambda k: f"{k[0]}{dict(k[1])}")
def test_level_profile_from_root_moves(key):
    family, params = key
    prof = build_model(ModelSpec(family, **dict(params))).level_profile()
    assert (prof.degree, prof.entries, prof.base, prof.t0_lattice) == \
        PROFILES[key]


# grandparent b=3 checks n <= 8: at n_check=10 its ball has 930k vertices
@pytest.mark.parametrize("spec,n_check", [
    (ModelSpec("grandparent", b=3), 8),
    (ModelSpec("fixed_end_tree", b=3), 10),
    (ModelSpec("diestel_leader", q=3, r=2), 10),
    (ModelSpec("diestel_leader", q=2, r=2), 10)], ids=spec_id)
def test_collapse_matches_ball(spec, n_check):
    rep = validate_collapse(build_model(spec), n_check=n_check)
    assert rep.ok, rep.mismatches


def test_collapse_cap():
    with pytest.raises(BallCapExceeded):
        build_model(ModelSpec("grandparent", b=2)).collapse(40, cap=50)


@pytest.mark.parametrize("spec", [
    ModelSpec("tree", b=2), ModelSpec("fixed_end_tree", b=2),
    ModelSpec("grandparent", b=2), ModelSpec("grandparent", b=3),
    ModelSpec("diestel_leader", q=2, r=3),
    ModelSpec("diestel_leader", q=2, r=2)], ids=spec_id)
def test_chain_level_step_is_the_largest_edge_step(spec):
    chain = build_model(spec).collapse(12)
    steps = {abs(chain.level[j] - chain.level[i])
             for i, row in enumerate(chain.edges) for j, _ in row}
    assert chain.t0 == max(steps - {0}, default=1)


def test_ball_memory_within_the_tuple_bfs():
    """The 43,689-vertex ball keeps at most 5 MiB and peaks at most at
    14.5 MiB, what the vertex-by-vertex BFS kept: its temporaries are the
    int64 neighbor blocks of a frontier and the keys they are looked up by."""
    model = build_model(ModelSpec("grandparent", b=2))
    tracemalloc.start()
    try:
        ball = model.enumerate_ball(7)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ball) == 43689
    assert kept <= 5 * 2 ** 20 and peak <= 14.5 * 2 ** 20

"""`_frontier_bfs` takes one of two steps per depth: `_array_step`, numpy
calls on whole frontiers, or, for a collapse whose frontiers d - 1 and d
hold at most `_SMALL` states, `_small_step`, state by state in Python.
Either step, and any mix of them, gives the same chain to the byte as the
state-by-state truncation `truncate_moves`, and passes the cap at the same
count."""

from functools import partial

import numpy as np
import pytest

from oracles import counted_moves, truncate_moves
from test_frontier_collapse import FAMILIES, spec_id
from test_frontier_collapse import \
    test_collapse_equals_state_by_state_truncation as equals_truncation
from walklab import models
from walklab.models import (DEFAULT_BALL_CAP, BallCapExceeded, ModelSpec,
                            build_model)

ALWAYS_ARRAY, ALWAYS_SMALL = 0, 10 ** 9


def same_depth_entries(chain) -> bool:
    """Whether an entry of ``chain`` joins two states of one depth."""
    indptr, targets, _ = chain.csr
    depth = np.array(chain.depth)
    rows = np.repeat(np.arange(len(chain)), np.diff(indptr))
    return bool(np.any(depth[rows] == depth[targets]))


def spy_steps(monkeypatch) -> list:
    """The name of each step `_frontier_bfs` takes, in order."""
    taken = []
    for name in ("_array_step", "_small_step"):
        def step(*args, _real=getattr(models, name), _name=name):
            taken.append(_name)
            return _real(*args)
        monkeypatch.setattr(models, name, step)
    return taken


@pytest.mark.parametrize("small", [ALWAYS_ARRAY, 3, ALWAYS_SMALL])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 24, 61])
@pytest.mark.parametrize("spec", FAMILIES, ids=spec_id)
def test_each_step_equals_state_by_state_truncation(monkeypatch, spec, n,
                                                    small):
    """With a threshold of 3, grandparent and DL chains switch from the
    small step to the array step after a few depths."""
    monkeypatch.setattr(models, "_SMALL", small)
    equals_truncation(spec, n)
    chain = build_model(spec).collapse(n)
    assert chain.bipartite == (not same_depth_entries(chain))


@pytest.mark.parametrize("spec", [ModelSpec("grandparent", b=2),
                                  ModelSpec("diestel_leader", q=2, r=3)],
                         ids=spec_id)
def test_crossing_the_threshold_mid_collapse(monkeypatch, spec):
    """At the default threshold these chains start with small steps and
    switch to array steps: still the truncation's chain to the byte."""
    taken = spy_steps(monkeypatch)
    equals_truncation(spec, 120)
    first = taken.index("_array_step")
    assert first > 0 and taken[first:] == ["_array_step"] * (61 - first)


@pytest.mark.parametrize("spec", FAMILIES[::2], ids=spec_id)
def test_both_steps_pass_the_cap_at_one_count(monkeypatch, spec):
    model = build_model(spec)
    _, depth, _ = truncate_moves(model.orbit_root(),
                                 partial(counted_moves, model), 12,
                                 DEFAULT_BALL_CAP)
    sizes = np.bincount(depth).cumsum()  # states up to each depth
    for cap in (1, sizes[-1] // 2, sizes[-1] - 1):
        counts = []
        for small in (ALWAYS_ARRAY, ALWAYS_SMALL):
            monkeypatch.setattr(models, "_SMALL", small)
            with pytest.raises(BallCapExceeded) as err:
                model.collapse(24, cap=cap)
            counts.append(err.value.count)
        # the count of the first whole frontier past the cap
        assert counts[0] == counts[1] == min(k for k in sizes if k > cap)


def test_thin_chains_take_only_small_steps(monkeypatch):
    taken = spy_steps(monkeypatch)
    chain = build_model(ModelSpec("tree", b=2)).collapse(2000)
    assert len(chain) == 1001 and taken == ["_small_step"] * 1001


def test_wide_chains_take_the_array_step_past_the_crossover(monkeypatch):
    """Each depth takes the step its two frontiers' sizes select: small
    up to `_SMALL` states, then the array step."""
    taken = spy_steps(monkeypatch)
    chain = build_model(ModelSpec("grandparent", b=2)).collapse(500)
    sizes = np.bincount(chain.depth)
    near = np.maximum(sizes, np.concatenate(([0], sizes[:-1])))
    assert taken == ["_small_step" if k <= models._SMALL else "_array_step"
                     for k in near]
    assert "_small_step" in taken and "_array_step" in taken


def test_balls_take_only_array_steps(monkeypatch):
    taken = spy_steps(monkeypatch)
    ball = build_model(ModelSpec("tree", b=2)).enumerate_ball(4)
    assert len(ball) == 1 + 3 + 6 + 12 + 24
    assert taken == ["_array_step"] * 5

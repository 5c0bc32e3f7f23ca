"""The Monte Carlo bridge sampler: the law of the state paths it keeps,
its streamed statistics against the whole-trajectory form in `oracles`,
its memory, and the inputs it refuses."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import object_bridge_tables, trajectory_statistics
from walklab import bridges
from walklab.bridges import BridgeError, mc_bridge_statistics
from walklab.cli import main

DELTA = 1e-8
DEFAULT_RNG = np.random.default_rng


def kept_rows(monkeypatch, model, n, samples, seed, chain, **kwargs):
    """(stats, rows): the statistics and the state paths handed to the
    distinct-vertex lift."""
    seen = {}
    real = bridges._distinct_counts

    def capture(model, chain, traj, k_grid, t0, m, rng):
        seen["rows"] = np.array(traj[:m])
        return real(model, chain, traj, k_grid, t0, m, rng)

    monkeypatch.setattr(bridges, "_distinct_counts", capture)
    stats = mc_bridge_statistics(model, n, samples, seed, chain=chain,
                                 **kwargs)
    return stats, seen["rows"]


def assert_moves_positive(chain, rows, G):
    """Each path starts and ends at the root, and each of its moves s -> t
    at step j has a positive count and a positive weight G_{n-j-1}[t]."""
    n = rows.shape[1] - 1
    assert (rows[:, 0] == chain.root).all()
    assert (rows[:, n] == chain.root).all()
    indptr, targets, counts = map(np.asarray, chain.csr)
    count = {}
    for s in range(len(chain.states)):
        for t, c in zip(targets[indptr[s]:indptr[s + 1]],
                        counts[indptr[s]:indptr[s + 1]]):
            count[s, int(t)] = int(c)
    moves = set(zip(rows[:, :-1].ravel().tolist(),
                    rows[:, 1:].ravel().tolist(),
                    np.tile(np.arange(n), len(rows)).tolist()))
    for s, t, j in moves:
        assert count.get((s, t), 0) > 0, (s, t)
        assert G[n - j - 1][t] > 0, (s, t, j)


def bernstein_radius(share, samples, delta=DELTA):
    """Empirical-Bernstein deviation of a mean of ``samples`` draws in
    [0, 1] with sample mean ``share`` (Maurer and Pontil 2009, Thm. 4),
    two-sided at level ``delta``."""
    var = share * (1 - share) * samples / (samples - 1)
    log_term = math.log(4 / delta)
    return (math.sqrt(2 * var * log_term / samples)
            + 7 * log_term / (3 * (samples - 1)))


@pytest.mark.parametrize("name,n", [("fixed_end2", 12), ("grandparent2", 11),
                                    ("grandparent2", 12)])
def test_kept_paths_follow_the_bridge_law(name, n, request, monkeypatch):
    """Fixed-end b=2 is bipartite, so its G table has parity zeros."""
    model = request.getfixturevalue(name)
    chain = model.collapse(n)
    samples = 20_000
    _, rows = kept_rows(monkeypatch, model, n, samples, 3, chain,
                        distinct_subsample=samples)
    assert rows.shape == (samples, n + 1)
    F, G = object_bridge_tables(chain, n)
    assert_moves_positive(chain, rows, G)
    bridges_total = G[n][chain.root]  # d^n u_n
    for j, f in enumerate(F):
        law = f * G[n - j]
        share = np.bincount(rows[:, j], minlength=len(law)) / samples
        assert (share[law == 0] == 0).all(), j
        for s in np.flatnonzero(law):
            p = float(law[s]) / float(bridges_total)
            assert abs(share[s] - p) <= bernstein_radius(share[s], samples), \
                (j, s, share[s], p)


class DrawsAtTheTop:
    """A generator whose uniforms are all 1.0, so that every draw is
    u = the row's total, the largest value rounding can give."""

    def __init__(self, seed):
        self.rng = DEFAULT_RNG(seed)

    def random(self, size):
        return np.ones(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("name,n", [("fixed_end2", 12), ("grandparent2", 11),
                                    ("dl23", 12)])
def test_draw_at_a_row_total_lands_on_a_positive_weight(name, n, request,
                                                        monkeypatch):
    model = request.getfixturevalue(name)
    chain = model.collapse(n)
    monkeypatch.setattr(bridges.np.random, "default_rng", DrawsAtTheTop)
    _, rows = kept_rows(monkeypatch, model, n, 20, 1, chain)
    assert_moves_positive(chain, rows, object_bridge_tables(chain, n)[1])


@pytest.mark.parametrize("name", ["tree2", "fixed_end2", "grandparent2",
                                  "dl23"])
@pytest.mark.parametrize("k_grid", [None, [5, -1, 0, 0, 30, 2]])
def test_streamed_statistics_equal_trajectory_form(name, k_grid, request,
                                                   monkeypatch):
    model = request.getfixturevalue(name)
    n, samples = 20, 3000
    chain = model.collapse(n)
    stats, rows = kept_rows(monkeypatch, model, n, samples, 9, chain,
                            k_grid=k_grid, distinct_subsample=samples + 1)
    assert len(rows) == samples
    grid = range(-3, 9) if k_grid is None else k_grid
    visit_means, hit_upper, max_level_counts = \
        trajectory_statistics(chain, rows, grid)
    assert stats.visit_means == visit_means
    assert stats.hit_upper == hit_upper
    assert stats.max_level_counts == max_level_counts


def test_sampler_keeps_no_trajectory_array(grandparent2):
    """The traced peak stays below half of a samples x (n+1) int32
    trajectory; the lift keeps no memo, only arrays of m x (n+1) limbs
    for a subsample of m paths, so a small subsample leaves the
    sampler's own arrays."""
    n, samples = 48, 50_000
    chain = grandparent2.collapse(n)
    mc_bridge_statistics(grandparent2, n, 100, 1, chain=chain)  # warm up
    tracemalloc.start()
    try:
        mc_bridge_statistics(grandparent2, n, samples, 1, chain=chain,
                             distinct_subsample=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < samples * (n + 1) * 4 / 2, peak


def test_fewer_than_two_draws_is_an_error(fixed_end2, capsys):
    chain = fixed_end2.collapse(10)
    with pytest.raises(BridgeError, match="samples >= 2"):
        mc_bridge_statistics(fixed_end2, 10, 1, seed=3, chain=chain)
    with pytest.raises(BridgeError, match="subsample >= 2"):
        mc_bridge_statistics(fixed_end2, 10, 50, seed=3, chain=chain,
                             distinct_subsample=1)
    code = main(["levels", "--family", "fixed_end_tree", "--b", "2",
                 "--n", "10", "--samples", "1", "--seed", "1"])
    out = capsys.readouterr()
    assert code == 2 and "samples >= 2" in out.err
    assert "nan" not in out.out


def levels_rows(capsys, *family):
    code = main(["levels", *family, "--n", "12", "--samples", "200",
                 "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].endswith(",bound")
    return [line.split(",") for line in lines[2:]]


def test_levels_prints_no_bound_without_levels(capsys):
    """n e^{-k t0} bounds nothing when the family has no level base."""
    rows = levels_rows(capsys, "--family", "tree", "--b", "2")
    assert rows and all(row[-1] == "" for row in rows)
    rows = levels_rows(capsys, "--family", "grandparent", "--b", "2")
    assert all((row[-1] != "") == (int(row[1]) >= 1) for row in rows)

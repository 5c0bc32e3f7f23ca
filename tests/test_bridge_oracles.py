"""Bridge visit counts and the distinct-vertex rebuild against their
direct forms in `oracles`: the per-window F/G sum and the step-by-step
vertex-path lift."""

import copy

import numpy as np
import pytest

from oracles import rebuild_distinct_means, window_visits
from walklab import bridges
from walklab.bridges import (BridgeError, bridge_level_visits,
                             mc_bridge_statistics)
from walklab.series import return_probabilities

FAMILIES = ["tree2", "fixed_end2", "grandparent2", "dl23"]
N = 20


@pytest.fixture(scope="module", params=FAMILIES)
def family(request):
    model = request.getfixturevalue(request.param)
    chain = model.collapse(N)
    return model, chain, return_probabilities(chain, N)


@pytest.mark.parametrize("n", [12, N])
def test_level_visits_match_window_sum(family, n):
    _, chain, u = family
    for k in range(-3, 9):
        got = bridge_level_visits(chain, u, n, k)
        assert got == window_visits(chain, u, n, k), k


def test_visit_tables_built_once_per_length(fixed_end2, monkeypatch):
    chain = fixed_end2.collapse(N)
    u = return_probabilities(chain, N)
    builds = []
    real = bridges._forward_backward_numerators

    def counting(chain, n):
        builds.append(n)
        return real(chain, n)

    monkeypatch.setattr(bridges, "_forward_backward_numerators", counting)
    for n in (N, 12):
        for k in range(-3, 9):
            bridge_level_visits(chain, u, n, k)
    assert builds == [N, 12]


def test_distinct_means_match_step_by_step_rebuild(family, monkeypatch):
    model, chain, _ = family
    seen = {}
    real = bridges._distinct_counts

    def capture(model, chain, traj, k_grid, t0, m, rng):
        seen.update(args=(model, chain, traj.copy(), list(k_grid), t0, m),
                    state=copy.deepcopy(rng.bit_generator.state))
        out = real(model, chain, traj, k_grid, t0, m, rng)
        seen["after"] = rng.bit_generator.state
        return out

    monkeypatch.setattr(bridges, "_distinct_counts", capture)
    stats = mc_bridge_statistics(model, N, 400, seed=11, chain=chain,
                                 distinct_subsample=300)
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    assert stats.distinct_means == rebuild_distinct_means(*seen["args"], rng)
    assert rng.bit_generator.state == seen["after"]


class DropsANeighbor:
    """A model whose vertices lose their last neighbor."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def neighbors(self, v):
        return self.model.neighbors(v)[:-1]


def test_neighbor_count_mismatch_raises(grandparent2):
    chain = grandparent2.collapse(12)
    with pytest.raises(BridgeError, match="collapse counts"):
        mc_bridge_statistics(DropsANeighbor(grandparent2), 12, 50, seed=1,
                             chain=chain)

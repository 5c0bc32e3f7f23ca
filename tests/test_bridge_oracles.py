"""Bridge visit counts, the distinct-vertex rebuild, the excursion record
law and the convolution-domination scan against their direct forms in
`oracles`: the per-window F/G sum, the step-by-step vertex-path lift and
the term-by-term loops."""

import copy

import numpy as np
import pytest

from oracles import (loop_cnw_condition_scan, loop_excursion_record_law,
                     rebuild_distinct_means, window_visits)
from walklab import bridges
from walklab.bridges import (BridgeError, bridge_level_visits,
                             cnw_condition_scan, excursion_record_law,
                             mc_bridge_statistics, synthetic_sequence)
from walklab.series import (first_return_probabilities, normalized_series,
                            return_probabilities, spectral_radius)

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


@pytest.mark.parametrize("name", ["tree2", "grandparent2", "dl23"])
def test_exact_excursion_laws_equal_loop_form(name, request):
    model = request.getfixturevalue(name)
    u = return_probabilities(model.collapse(60), 60)
    f = first_return_probabilities(u)
    for n in (10, 24, 60):
        assert excursion_record_law(u, f, n) == \
            loop_excursion_record_law(u, f, n), n


# DL(2,3) is left out here: its chain for n = 400 has 692k states
@pytest.mark.parametrize("name", ["tree2", "grandparent2"])
def test_float_excursion_laws_match_loop_form(name, request):
    """Float sums run in another order: equal to a few ulps per term."""
    model = request.getfixturevalue(name)
    u = return_probabilities(model.collapse(400), 400, mode="float")
    f = first_return_probabilities(u)
    for n in (100, 200, 400):
        got = excursion_record_law(u, f, n)
        want = loop_excursion_record_law(u, f, n)
        assert len(got.alpha_law) == len(want.alpha_law)
        assert got.joint.keys() == want.joint.keys()
        pairs = [*zip(got.alpha_law, want.alpha_law),
                 *((got.joint[k], want.joint[k]) for k in want.joint),
                 (got.total_mass, want.total_mass),
                 (got.f_over_u, want.f_over_u)]
        assert all(abs(x - y) <= 1e-12 * abs(y) for x, y in pairs), n


def test_cnw_scan_matches_loop_form(tree2):
    """The inputs of acceptance criterion 13."""
    u = return_probabilities(tree2.collapse(2000), 2000, mode="float")
    a = np.asarray(normalized_series(u, spectral_radius(tree2)).floats)
    eps_grid = [0.5, 0.2, 0.1]
    cases = [(a, eps_grid, 2000, None)]
    for case in ("power", "stretched", "log-exponential"):
        un = synthetic_sequence(case, 600)
        cases.append((un / 0.9 ** np.arange(601), eps_grid, 600, None))
    un = synthetic_sequence("constant", 400)
    cases.append((un / 0.9 ** np.arange(401), [0.2], 400, 100))
    for args in cases:
        assert cnw_condition_scan(*args) == loop_cnw_condition_scan(*args)

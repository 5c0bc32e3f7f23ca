"""Bridge visit counts, the distinct-vertex rebuild, the excursion record
law and the convolution-domination scan against their direct forms in
`oracles`: the per-window F/G sum, the step-by-step vertex-path lift and
the term-by-term loops."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class MovesANeighbor:
    """A model whose vertex moves put each boundary class's last neighbor
    at the offset of its first one."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    @property
    def _vertex_table(self):
        offs, maps = self.model._vertex_table
        offs = offs.copy()
        offs[:, -1] = offs[:, 0]
        return offs, maps


def test_neighbor_count_mismatch_raises(grandparent2):
    chain = grandparent2.collapse(12)
    with pytest.raises(BridgeError, match="differ from the collapse count"):
        mc_bridge_statistics(MovesANeighbor(grandparent2), 12, 50, seed=1,
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


@pytest.mark.parametrize("n_cap", [31, 32, 33, 180, 181, 300, 301, 302])
def test_cnw_scan_caps_at_block_edges(n_cap):
    """The scan tests N a block at a time: a cap on either side of a block
    edge, or of the least N (181 for the power case), reads as the loop."""
    un = synthetic_sequence("power", 600)
    args = (un / 0.9 ** np.arange(601), [0.5, 0.2, 0.1], 600, n_cap)
    assert cnw_condition_scan(*args) == loop_cnw_condition_scan(*args)


@pytest.mark.parametrize("n_cap", [None, 5, 6, 7])
def test_cnw_scan_holds_with_no_n_left(n_cap):
    """With a_n = 1 and n_max = 10 no N <= 5 works (a_N^2 > a_2N / 2),
    and N = 6 holds because no n has 2N <= n <= n_max."""
    args = (np.ones(11), [0.5], 10, n_cap)
    want = {0.5: 6 if n_cap and n_cap >= 6 else None}
    assert cnw_condition_scan(*args) == loop_cnw_condition_scan(*args) == want


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                       min_size=1, max_size=160),
       data=st.data())
def test_cnw_scan_matches_loop_form_on_any_sequence(values, data):
    """Sequences with zeros and no decay, and any cap."""
    n_max = len(values) - 1
    cap = data.draw(st.one_of(st.none(), st.integers(0, n_max + 2)))
    eps = data.draw(st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.2, 0.1]),
                             min_size=1, max_size=3, unique=True))
    args = (np.array(values), eps, n_max, cap)
    assert cnw_condition_scan(*args) == loop_cnw_condition_scan(*args)


def lift_inputs(monkeypatch, model, n, samples, seed):
    """(stats, seen): the statistics and the arguments and rng states of
    the distinct-vertex lift, which gets all ``samples`` paths."""
    seen = {}
    real = bridges._distinct_counts

    def capture(model, chain, traj, k_grid, t0, m, rng):
        seen.update(args=(model, chain, traj.copy(), list(k_grid), t0, m),
                    state=copy.deepcopy(rng.bit_generator.state))
        out = real(model, chain, traj, k_grid, t0, m, rng)
        seen["after"] = rng.bit_generator.state
        return out

    monkeypatch.setattr(bridges, "_distinct_counts", capture)
    stats = mc_bridge_statistics(model, n, samples, seed,
                                 distinct_subsample=samples)
    return stats, seen


@pytest.mark.parametrize("name", ["grandparent2", "dl23"])
def test_distinct_means_match_rebuild_past_int64(name, request, monkeypatch):
    """At n = 100 the words outgrow int64 (2^100 for grandparent b=2,
    3^50 for the second tree of DL(2,3)), and the lift runs on Python
    ints."""
    model = request.getfixturevalue(name)
    stats, seen = lift_inputs(monkeypatch, model, 100, 40, 5)
    offset, _, limbs = bridges._vertex_numbering(model, seen["args"][1])
    assert offset.dtype == object and limbs == 2
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    assert stats.distinct_means == rebuild_distinct_means(*seen["args"], rng)
    assert rng.bit_generator.state == seen["after"]


@pytest.mark.parametrize("name", ["grandparent2", "dl23"])
def test_vertex_numbers_are_int64_at_bench_size(name, request):
    """The `levels` benchmark jobs run at n = 48."""
    model = request.getfixturevalue(name)
    offset, stride, limbs = bridges._vertex_numbering(model,
                                                      model.collapse(48))
    assert offset.dtype == stride.dtype == np.int64 and limbs == 1


class CountsNeighbors:
    """A model that counts its `neighbors` calls."""

    def __init__(self, model):
        self.model, self.calls = model, 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def neighbors(self, v):
        self.calls += 1
        return self.model.neighbors(v)


@pytest.mark.parametrize("name", FAMILIES)
def test_lift_reads_neighbors_once_per_boundary_class(name, request):
    """Stricter than once per class: the lift steps `_vertex_table` and
    never calls `neighbors`."""
    model = request.getfixturevalue(name)
    for n, samples, m in ((8, 20, 2), (N, 400, 300), (40, 3000, 3000)):
        counted = CountsNeighbors(model)
        mc_bridge_statistics(counted, n, samples, seed=2,
                             distinct_subsample=m)
        assert counted.calls == 0, (n, samples, m)

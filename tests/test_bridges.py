"""Conditioned bridges, excursion records and the convolution scanner."""

import math
from fractions import Fraction

import numpy as np
import pytest

from walklab.bridges import (BridgeError, bridge_cut_identity,
                             bridge_inclusion_symmetry, bridge_level_visits,
                             cnw_condition_scan, excursion_record_law,
                             first_return_lower_bound_check,
                             geometric_tv_distance, limit_excursion_law,
                             mc_bridge_statistics, synthetic_sequence)
from walklab.series import (first_return_probabilities, normalized_series,
                            return_probabilities, spectral_radius)


@pytest.fixture(scope="module")
def fe_series(fixed_end2):
    chain = fixed_end2.collapse(40)
    u = return_probabilities(chain, 40)
    return chain, u


def test_cut_identity(fe_series):
    chain, _ = fe_series
    for n in [4, 9, 16]:
        assert bridge_cut_identity(chain, n)


def test_level_visits_exact(fe_series):
    chain, u = fe_series
    # a 2-step bridge stays in the ground window at times 0 and 2
    assert bridge_level_visits(chain, u, 2, 0) == 2
    # total time spent across all windows is n+1
    total = sum(bridge_level_visits(chain, u, 8, k) for k in range(-5, 6))
    assert total == 9


def test_visits_decay_with_level(fe_series):
    chain, u = fe_series
    vals = [bridge_level_visits(chain, u, 20, k) for k in range(0, 6)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_inclusion_symmetry_tree(tree2):
    g = tree2.enumerate_ball(6)
    for x in [1, 4, 10]:
        p_fwd, p_rev = bridge_inclusion_symmetry(g, 4, x, tree2.degree)
        assert p_fwd == p_rev


def test_mc_matches_exact_visits(fixed_end2, fe_series):
    chain, u = fe_series
    stats = mc_bridge_statistics(fixed_end2, 20, 4000, seed=7, chain=chain,
                                 distinct_subsample=500)
    for k in [0, 1, 2]:
        mean, se = stats.visit_means[k]
        exact = float(bridge_level_visits(chain, u, 20, k))
        assert abs(mean - exact) <= 4 * se + 1e-12
        dmean, dse, _ = stats.distinct_means[k]
        assert dmean <= mean + 4 * (se + dse)


def test_mc_reproducible(fixed_end2):
    s1 = mc_bridge_statistics(fixed_end2, 10, 500, seed=3)
    s2 = mc_bridge_statistics(fixed_end2, 10, 500, seed=3)
    assert s1.visit_means == s2.visit_means
    with pytest.raises(BridgeError):
        mc_bridge_statistics(fixed_end2, 10, 0, seed=3)


def test_excursion_mass_exact(tree2):
    chain = tree2.collapse(24)
    u = return_probabilities(chain, 24)
    f = first_return_probabilities(u)
    law = excursion_record_law(u, f, 24)
    assert law.total_mass == 1
    assert law.f_over_u == f.values[24] / u.values[24]
    assert law.joint[(0, 0)] == law.f_over_u


@pytest.mark.parametrize("n", [0, -1, 41])
def test_excursion_law_outside_the_series_raises(fe_series, n):
    chain, u = fe_series
    with pytest.raises(BridgeError, match="need 1 <= n <= 40"):
        excursion_record_law(u, first_return_probabilities(u), n)
    # the shorter of u and f bounds n
    short = first_return_probabilities(return_probabilities(chain, 20))
    with pytest.raises(BridgeError, match="need 1 <= n <= 20"):
        excursion_record_law(u, short, 21)


def test_excursion_limit_geometric(tree2):
    chain = tree2.collapse(400)
    u = return_probabilities(chain, 400, mode="float")
    f = first_return_probabilities(u)
    rho = spectral_radius(tree2)
    lim = limit_excursion_law(f, rho)
    # F(1/rho) = 3/4 exactly, so the geometric parameter is near 1/4
    assert abs(lim["geometric_parameter"] - 0.25) < 0.02
    law = excursion_record_law(u, f, 400)
    tv = geometric_tv_distance(law.alpha_law, lim["geometric_parameter"])
    assert tv < 0.05


def test_tv_distance_basics():
    p = 0.5
    exact = [(1 - p) * p ** a for a in range(200)]
    assert geometric_tv_distance(exact, p) < 1e-12
    assert geometric_tv_distance([1.0], p) > 0.4


def test_synthetic_sequences():
    for case in ("power", "stretched", "log-exponential", "constant"):
        seq = synthetic_sequence(case, 100)
        assert seq[0] == 1.0 and len(seq) == 101
        assert all(seq[2::2] > 0)
    with pytest.raises(BridgeError):
        synthetic_sequence("power", 100, alpha=0.5)


def test_cnw_scan_synthetics():
    for case, expect_finite in [("power", True), ("stretched", True),
                                ("log-exponential", True),
                                ("constant", False)]:
        un = synthetic_sequence(case, 400)
        a = un / 0.9 ** np.arange(401)
        got = cnw_condition_scan(a, [0.2], 400, n_cap=150)
        assert (got[0.2] is not None) == expect_finite, case


def test_cnw_threshold_monotone():
    un = synthetic_sequence("power", 400)
    a = un / 0.9 ** np.arange(401)
    got = cnw_condition_scan(a, [0.5, 0.2, 0.1], 400)
    assert got[0.5] <= got[0.2] <= got[0.1]


def test_first_return_lower_bound(tree2):
    chain = tree2.collapse(200)
    u = return_probabilities(chain, 200, mode="float")
    f = first_return_probabilities(u)
    rep = first_return_lower_bound_check(u, f, 50, 200)
    assert rep["min_ratio"] > 0
    assert rep["c_prime"] > 0

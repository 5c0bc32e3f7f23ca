"""Return series, renewal inversion, spectral radii and fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from walklab.qfield import QuadExt, sqrt_exact
from walklab.series import (NormalizedSeries, ProbabilitySeries, SeriesError,
                            cartesian_series, check_smoothness,
                            closed_form_rho, evaluate_generating,
                            first_return_probabilities, fit_exponent,
                            normalized_series, profile_rho, ratio_limit_rho,
                            renewal_residuals, return_probabilities,
                            spectral_radius, stretched_exponential_fit,
                            taboo_first_return)


def test_renewal_inversion_exact(tree2):
    chain = tree2.collapse(40)
    u = return_probabilities(chain, 40)
    f = first_return_probabilities(u)
    assert f.values[2] == Fraction(1, 3)
    assert f.values[4] == Fraction(2, 27)
    assert all(r == 0 for r in renewal_residuals(u, f))


def test_taboo_equals_renewal(grandparent2):
    chain = grandparent2.collapse(30)
    u = return_probabilities(chain, 30)
    assert first_return_probabilities(u).values == \
        taboo_first_return(chain, 30).values


def test_period_detection(tree2, grandparent2):
    u = return_probabilities(tree2.collapse(10), 10)
    assert u.period == 2
    ug = return_probabilities(grandparent2.collapse(10), 10)
    # grandparent walks have odd return paths (u_3 > 0), hence period 1
    assert ug.period == 1
    assert ug.values[3] > 0


def test_closed_form_rho_values(tree2, fixed_end2, grandparent2, dl23):
    rt = closed_form_rho(tree2)
    assert rt.exact == sqrt_exact(2) * Fraction(2, 3)
    assert rt.rho_squared.as_fraction() == Fraction(8, 9)
    assert closed_form_rho(fixed_end2).exact == rt.exact
    rg = closed_form_rho(grandparent2)
    assert rg.exact == (4 + 2 * sqrt_exact(2)) * Fraction(1, 8)
    assert abs(rg.value - (2 + math.sqrt(2)) / 4) < 1e-15
    assert not rg.rho_squared.is_rational()
    rdl = closed_form_rho(dl23)
    assert rdl.exact == sqrt_exact(6) * Fraction(2, 5)
    assert rdl.rho_squared.as_fraction() == Fraction(24, 25)


def test_profile_rho_matches_closed_form(fixed_end2, grandparent2, dl23):
    for model in (fixed_end2, grandparent2, dl23):
        assert profile_rho(model) == closed_form_rho(model).exact


def test_cartesian_rho():
    from walklab.models import ModelSpec, build_model
    spec = ModelSpec("cartesian", factors=(ModelSpec("tree", b=2),
                                           ModelSpec("tree", b=3)))
    rho = closed_form_rho(build_model(spec))
    expect = (3 * 2 * math.sqrt(2) / 3 + 4 * 2 * math.sqrt(3) / 4) / 7
    assert abs(rho.value - expect) < 1e-14


def test_ratio_limit_tree(tree2):
    chain = tree2.collapse(400)
    u = return_probabilities(chain, 400, mode="float")
    est = ratio_limit_rho(u, window=60)
    assert abs(est.value - 2 * math.sqrt(2) / 3) < 1e-4
    assert est.uncertainty < 0.01


def test_normalized_series_exact(tree2):
    chain = tree2.collapse(8)
    u = return_probabilities(chain, 8)
    a = normalized_series(u, spectral_radius(tree2))
    assert a.exact_even[1] == Fraction(1, 3) / Fraction(8, 9)
    assert abs(a.floats[2] - 0.375) < 1e-14


def test_fit_exponent_on_pure_power():
    n = np.arange(0, 401, dtype=float)
    vals = np.zeros(401)
    vals[2::2] = n[2::2] ** -1.5
    a = NormalizedSeries(floats=vals, period=2)
    slope, stderr, _ = fit_exponent(a, 50, 200)
    assert abs(slope + 1.5) < 1e-9
    slope2, _, _ = fit_exponent(a, 25, 100, half_index=True, correction=1)
    assert abs(slope2 + 1.5) < 1e-9


def test_stretched_fit_on_synthetic():
    n = np.arange(0, 401, dtype=float)
    vals = np.zeros(401)
    vals[2::2] = np.exp(-1.7 * n[2::2] ** (1 / 3))
    a = NormalizedSeries(floats=vals, period=2)
    slope, _, r2 = stretched_exponential_fit(a, 30, 150)
    assert abs(slope + 1.7) < 1e-9 and r2 > 0.999999


def test_evaluate_generating_brackets_truth(tree2):
    chain = tree2.collapse(200)
    u = return_probabilities(chain, 200, mode="float")
    f = first_return_probabilities(u)
    rho = spectral_radius(tree2)
    gv = evaluate_generating(f, 1 / rho.value, rho)
    # F(1/rho) = (b+1)/(2b) = 3/4 for b=2 by the explicit generating function
    assert gv.lower <= 0.75 <= gv.upper
    # at an interior point the power tail sums term by term: F(1) = 1/2
    gv1 = evaluate_generating(f, 1.0, rho)
    assert gv1.lower <= 0.5 <= gv1.upper
    assert (gv1.upper - gv1.lower) / 2 < 0.01


def test_cartesian_series_consistency(tree2):
    chain = tree2.collapse(8)
    u = return_probabilities(chain, 8)
    mix = cartesian_series(u, 3, u, 3, 8)
    # direct ball DP on the product graph
    from walklab.models import ModelSpec, build_model, ball_return_series
    prod = build_model(ModelSpec("cartesian",
                                 factors=(ModelSpec("tree", b=2),
                                          ModelSpec("tree", b=2))))
    g = prod.enumerate_ball(4)
    direct = ball_return_series(g, 6, prod.degree)
    assert mix.values[:7] == direct[:7]


def test_smoothness_tree(tree2):
    chain = tree2.collapse(60)
    u = return_probabilities(chain, 60)
    rep = check_smoothness(u, spectral_radius(tree2))
    assert rep.ratio_lower_ok and rep.ratio_upper_ok and rep.odd_le_even_ok
    assert rep.even_c1_ge_1
    assert not rep.violations


def test_mode_errors(tree2):
    chain = tree2.collapse(4)
    with pytest.raises(SeriesError):
        return_probabilities(chain, 4, mode="symbolic")

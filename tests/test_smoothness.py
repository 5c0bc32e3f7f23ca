"""The smoothness suite on integer numerators against the pairwise
Fraction form in `oracles`: equal reports, field by field, on family
series and on random series with a planted dip or spike, and work that
grows linearly in n."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import walklab.qfield as qfield
from oracles import smoothness_by_pairs
from walklab.models import ModelSpec, ball_return_series, build_model
from walklab.series import (ProbabilitySeries, SpectralRadius,
                            check_smoothness, ratio_limit_rho,
                            return_probabilities, spectral_radius)

FAMILIES = {
    "tree2": ModelSpec("tree", b=2),
    "tree5": ModelSpec("tree", b=5),
    "fixed_end2": ModelSpec("fixed_end_tree", b=2),
    "fixed_end4": ModelSpec("fixed_end_tree", b=4),
    "grandparent2": ModelSpec("grandparent", b=2),
    "grandparent3": ModelSpec("grandparent", b=3),
    "dl23": ModelSpec("diestel_leader", q=2, r=3),
    "dl32": ModelSpec("diestel_leader", q=3, r=2),
}
MODELS = {name: build_model(spec) for name, spec in FAMILIES.items()}
# rho^2 rational (tree b=2, 8/9 as a QuadExt), irrational (grandparent
# b=2), and unknown (a ratio-limit estimate)
RHOS = {"rational": spectral_radius(MODELS["tree2"]),
        "irrational": spectral_radius(MODELS["grandparent2"]),
        "none": SpectralRadius(value=0.95, provenance="ratio-limit")}


def assert_same_report(u, rho):
    rep, ref = check_smoothness(u, rho), smoothness_by_pairs(u, rho)
    for field in vars(ref):
        assert repr(getattr(rep, field)) == repr(getattr(ref, field)), field
    return rep


def test_rho_squared_kinds():
    assert RHOS["rational"].rho_squared.is_rational()
    assert not RHOS["irrational"].rho_squared.is_rational()
    assert RHOS["none"].rho_squared is None


@pytest.mark.parametrize("n", [20, 21, 60, 61])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_series_match_the_pairwise_report(name, n):
    model = MODELS[name]
    u = return_probabilities(model.collapse(n), n)
    rep = assert_same_report(u, spectral_radius(model))
    assert rep.ok and not rep.violations
    assert_same_report(u, RHOS["none"])


def test_ball_series_match_the_pairwise_report():
    """Fraction numerators over 1: the Cartesian product of two trees with
    its closed-form rho, and the free product with a ratio-limit rho."""
    prod = build_model(ModelSpec("cartesian",
                                 factors=(ModelSpec("tree", b=2),
                                          ModelSpec("tree", b=2))))
    up = ProbabilitySeries.from_exact(
        ball_return_series(prod.enumerate_ball(11), 22, prod.degree), "u")
    assert_same_report(up, spectral_radius(prod))
    fp = build_model(ModelSpec("free_product", alpha=3, beta=3))
    uf = ProbabilitySeries.from_exact(
        ball_return_series(fp.enumerate_ball(11), 22, fp.degree), "u")
    rhof = ratio_limit_rho(ProbabilitySeries.from_float(uf.floats, "u"),
                           window=6)
    assert_same_report(uf, rhof)


@pytest.mark.parametrize("n_max", [20, 21])
def test_odd_le_even_reaches_the_last_odd_index(n_max):
    """U_n planted at 10 d U_{n-1} is an odd-le-even violation at the
    largest odd n <= n_max, as it is two indices lower."""
    model = MODELS["grandparent2"]
    u = return_probabilities(model.collapse(n_max), n_max)
    last = n_max - 1 + n_max % 2
    for n in (last, last - 2):
        U = u.numerators.copy()
        U[n] = 10 * u.denom * U[n - 1]
        rep = assert_same_report(ProbabilitySeries(U, u.denom, "u"),
                                 spectral_radius(model))
        assert ("odd-le-even", n) in {(k, m) for k, m, _ in rep.violations}


@st.composite
def planted_series(draw):
    """A return series (u_0 = 1, every other u_n in [1/4, 1]) over
    d in {1, 3, 8}, Fractions over 1 when d = 1, with one numerator set
    far below or above its neighbours: an even dip makes all three
    inequalities fail, an even spike the two ratio ones, an odd spike
    odd-le-even.  Or, with "ties", equality in each inequality at one
    index: u_{2j+2} = u_2 u_{2j}, u_{2j+1} = u_{2j}, and, where it is a
    numerator, u_{2j+4} = 8/9 u_{2j+2}, the tree's rho^2."""
    d = draw(st.sampled_from((1, 3, 8)))
    n_max = draw(st.integers(20, 40))
    bipartite = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    scale = d ** n_max if d > 1 else 10 ** 6

    def value(n):
        x = rng.randint(scale // 4 + 1, scale)
        return x * d ** n // scale if d > 1 else Fraction(x, scale)

    nums = [1] + [0 if bipartite and n % 2 else value(n)
                  for n in range(1, n_max + 1)]
    plant = draw(st.sampled_from(("even dip", "even spike", "ties")
                                 + (() if bipartite else ("odd spike",))))
    j = draw(st.integers(2, (n_max - 1) // 2 - 2))
    n = 2 * j + (plant == "odd spike")
    if plant == "ties":
        nums[n + 2] = nums[2] * nums[n]
        nums[n + 1] = 0 if bipartite else d * nums[n]
        tie = Fraction(8 * d * d, 9) * nums[n + 2]
        if d == 1 or tie.denominator == 1:
            nums[n + 4] = tie if d == 1 else tie.numerator
    elif plant == "even dip":
        nums[n] = 1 if d > 1 else Fraction(1, 10 ** 40)
    else:
        nums[n] = 10 ** 6 * d ** n
    return ProbabilitySeries(np.array(nums, dtype=object), d, "u"), plant, j


@settings(max_examples=200, deadline=None)
@given(case=planted_series(), rho=st.sampled_from(sorted(RHOS)))
def test_planted_violations_match_the_pairwise_report(case, rho):
    u, plant, j = case
    rep = assert_same_report(u, RHOS[rho])
    fired = {(kind, n) for kind, n, _ in rep.violations}
    U, d = u.numerators, u.denom
    if plant == "ties":
        assert ("ratio-lower", 2 * j) not in fired
        assert ("odd-le-even", 2 * j + 1) not in fired
        if rho == "rational" and 9 * U[2 * j + 4] == 8 * d * d * U[2 * j + 2]:
            assert ("ratio-upper", 2 * j + 2) not in fired
        return
    upper = RHOS[rho].rho_squared is not None
    expected = {
        "even dip": {("ratio-lower", 2 * j - 2)}
        | ({("odd-le-even", 2 * j + 1)} if U[2 * j + 1] else set())
        | ({("ratio-upper", 2 * j)} if upper else set()),
        "even spike": {("ratio-lower", 2 * j)}
        | ({("ratio-upper", 2 * j - 2)} if upper else set()),
        "odd spike": {("odd-le-even", 2 * j + 1)},
    }[plant]
    assert expected <= fired
    assert not rep.ok


def qfield_new_calls(monkeypatch, u, rho) -> int:
    calls, new = [0], qfield._new

    def counted(*args):
        calls[0] += 1
        return new(*args)

    with monkeypatch.context() as m:
        m.setattr(qfield, "_new", counted)
        check_smoothness(u, rho)
    return calls[0]


@pytest.mark.parametrize("name", ["grandparent2", "dl23", "tree2"])
def test_field_work_grows_linearly(monkeypatch, name):
    """`QuadExt` reductions: at n = 60 at most a quarter of the pairwise
    form's 1424, and at most 2.2 times as many per doubling of n, where
    the pairwise form takes 3.9 times."""
    model = MODELS[name]
    rho = spectral_radius(model)
    chain = model.collapse(240)
    counts = [qfield_new_calls(monkeypatch,
                               return_probabilities(chain, n), rho)
              for n in (60, 120, 240)]
    assert counts[0] <= 1424 // 4, counts
    assert all(b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts

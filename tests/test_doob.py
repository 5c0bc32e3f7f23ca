"""Square-root-biased walk: harmonicity, reversibility, level-walk DPs."""

import math
from fractions import Fraction

import pytest

from oracles import float_atoms, quadext_hwalk, reversal_check
from walklab.doob import (DoobError, LevelIncrementLaw, ballot_probability,
                          completeness_residual, doob_chain, harmonic_check,
                          hitting_time_law, increment_law, max_and_return,
                          return_to_zero)
from walklab.qfield import QuadExt, sqrt_exact
from walklab.series import (normalized_series, return_probabilities,
                            spectral_radius)


@pytest.fixture(scope="module")
def pm1_law(fixed_end2):
    return increment_law(fixed_end2.level_profile(),
                         spectral_radius(fixed_end2))


@pytest.fixture(scope="module")
def gp_law(grandparent2):
    return increment_law(grandparent2.level_profile(),
                         spectral_radius(grandparent2))


def test_harmonicity_exact(fixed_end2, grandparent2, dl23):
    for model in (fixed_end2, grandparent2, dl23):
        rep = harmonic_check(model, spectral_radius(model))
        assert rep.exact_zero


def test_increment_law_values(pm1_law, gp_law):
    assert float_atoms(pm1_law) == {-1: 0.5, 1: 0.5}
    atoms = float_atoms(gp_law)
    s2 = math.sqrt(2)
    assert abs(atoms[2] - (2 - s2) / 2) < 1e-15
    assert abs(atoms[1] - (s2 - 1) / 2) < 1e-15
    assert atoms[2] == atoms[-2] and atoms[1] == atoms[-1]
    gp_law.validate()
    pm1_law.validate()


def test_doob_chain_exact_return(fixed_end2):
    chain = fixed_end2.collapse(30)
    rho = spectral_radius(fixed_end2)
    dc = doob_chain(chain, rho)
    assert dc.row_sum_check() == []
    rev = dc.reversibility_check()
    assert rev["ok"], rev
    u = return_probabilities(chain, 30)
    a = normalized_series(u, rho)
    ret = dc.return_series_exact(30)
    for m in range(16):
        assert ret[2 * m] == a.exact_even[m]


@pytest.mark.parametrize("name", ["fixed_end2", "dl23", "grandparent2"])
def test_pair_h_walk_equals_quadext_walk(name, request):
    """The pair h-walk equals the `QuadExt` walk on rational weights
    (fixed-end tree, Diestel-Leader: every B is 0, so the Y rows stay
    empty) and on irrational ones (grandparent)."""
    model = request.getfixturevalue(name)
    dc = doob_chain(model.collapse(40), spectral_radius(model))
    assert dc.return_series_exact(40) == quadext_hwalk(dc, 40)


def test_ballot_small_values(pm1_law, gp_law):
    # one positive-path way of length 4 ending at 2: steps (+1,+1,+1,-1)
    assert ballot_probability(pm1_law, 4, 2, mode="exact") == Fraction(1, 8)
    # parity: cannot end at an odd window boundary with even n
    assert float(ballot_probability(pm1_law, 6, 1, mode="exact")) == 0.0
    # grandparent law windows have width t0 = 2 lattice units: r=0 means
    # Y_2 in {0, 1} with Y_1 > 0, reachable e.g. via (+2, -1)
    v = ballot_probability(gp_law, 2, 0, mode="exact")
    assert float(v) > 0


def test_ballot_float_matches_exact(pm1_law, gp_law):
    for law in (pm1_law, gp_law):
        for n, r in [(6, 0), (7, 1), (9, 2), (10, 3)]:
            ex = float(ballot_probability(law, n, r, mode="exact"))
            fl = ballot_probability(law, n, r, mode="float")
            assert abs(ex - fl) < 1e-12


def test_hitting_time_law(pm1_law):
    tau = hitting_time_law(pm1_law, 1, 5, mode="exact")
    assert tau[1] == Fraction(1, 2)
    assert float(tau[2]) == 0.0
    assert tau[3] == Fraction(1, 8)


def test_max_and_return_small(pm1_law):
    # n=2: path (+1,-1) has max 1, path (-1,+1) has max 0
    assert max_and_return(pm1_law, 2, 0, mode="exact") == Fraction(1, 4)
    assert max_and_return(pm1_law, 2, 1, mode="exact") == Fraction(1, 4)


def test_completeness_exact(pm1_law, gp_law):
    for law, n in ((pm1_law, 12), (gp_law, 10)):
        res = completeness_residual(law, n, mode="exact")
        assert float(res) == 0.0


def test_reversal_symmetry(pm1_law, gp_law):
    assert reversal_check(pm1_law, 6)
    assert reversal_check(gp_law, 5)


def test_reflection_oracle(pm1_law):
    # for the simple +-1 walk: P[M_n >= h, Y_n = 0] = P[Y_n = 2h]
    n = 14
    for h in range(0, 6):
        lhs = sum(max_and_return(pm1_law, n, r, mode="exact")
                  for r in range(h, n + 1))
        rhs = Fraction(math.comb(n, n // 2 + h), 2 ** n)
        assert lhs == rhs


def test_return_to_zero(pm1_law):
    n = 10
    assert return_to_zero(pm1_law, n, mode="exact") == \
        Fraction(math.comb(n, n // 2), 2 ** n)


def test_nonlattice_profile_rejected(tree2):
    with pytest.raises(DoobError):
        increment_law(tree2.level_profile(), spectral_radius(tree2))


def test_negative_atom_rejected_exactly():
    # x = p - q sqrt(2) < 0 from a convergent of sqrt(2); the float of x
    # rounds to 0, so only an exact sign test sees the negative mass
    x = QuadExt(2, 318281039, -225058681)
    assert x.sign() < 0 and float(x) >= 0
    for eps in (x, QuadExt(2, Fraction(-1, 4), 0)):
        law = LevelIncrementLaw(atoms=[(-1, eps), (0, 1 - 2 * eps), (1, eps)],
                                base=Fraction(2), t0_lattice=1)
        with pytest.raises(DoobError, match="negative"):
            law.validate()

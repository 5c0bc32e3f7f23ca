"""Level-structure identities: neighbor profile and tilted pair counts."""

from fractions import Fraction

import pytest

from walklab.masstransport import check_mtp, check_neighbor_mtp


def test_neighbor_profile_identity(fixed_end2, grandparent2, dl23):
    for model in (fixed_end2, grandparent2, dl23):
        rep = check_neighbor_mtp(model.level_profile())
        assert rep.passed, rep.details


def test_neighbor_profile_detects_corruption(fixed_end2):
    prof = fixed_end2.level_profile()
    broken = type(prof)(degree=prof.degree,
                        entries=[(Fraction(2), 2), (Fraction(1, 2), 1)],
                        base=prof.base, t0_lattice=prof.t0_lattice)
    rep = check_neighbor_mtp(broken)
    assert not rep.passed


def test_pair_count_tilting_exact(fixed_end2, grandparent2, dl23):
    for model, radius in ((fixed_end2, 6), (grandparent2, 4), (dl23, 6)):
        g = model.enumerate_ball(radius)
        rep = check_mtp(g, 2)
        assert rep.passed
        assert all(row[4] == 0 for row in rep.rows)


def test_pair_count_needs_margin(fixed_end2):
    g = fixed_end2.enumerate_ball(3)
    with pytest.raises(Exception):
        check_mtp(g, 5)

"""Graph models: enumeration, orbit collapse and exact anchors."""

from fractions import Fraction

import pytest

from oracles import adjacency, degree_of, to_csv
from walklab.models import (BallCapExceeded, ModelError, ModelSpec,
                            ball_return_series, build_model,
                            parse_model_config, validate_collapse)
from walklab.series import return_probabilities


def test_spec_validation():
    with pytest.raises(ModelError):
        ModelSpec("tree", b=1).validate()
    with pytest.raises(ModelError):
        ModelSpec("tree").validate()
    with pytest.raises(ModelError):
        ModelSpec("nosuch", b=2).validate()
    with pytest.raises(ModelError):
        ModelSpec("diestel_leader", q=1, r=3).validate()
    ModelSpec("diestel_leader", q=2, r=2).validate()


def test_parse_model_config():
    spec = parse_model_config("family=grandparent\nb=3\n")
    assert spec.family == "grandparent" and spec.b == 3
    spec = parse_model_config("family=diestel_leader; q=2; r=3")
    assert (spec.q, spec.r) == (2, 3)
    with pytest.raises(ModelError):
        parse_model_config("family=tree\nb=two\n")
    spec = parse_model_config("family=cartesian; factor1=family=tree,b=2; "
                              "factor2=family=tree,b=3")
    assert [f.b for f in spec.factors] == [2, 3]
    for text, missing in (("family=cartesian", "factor1"),
                          ("family=cartesian; factor1=family=tree,b=2",
                           "factor2")):
        with pytest.raises(ModelError, match=missing):
            parse_model_config(text)


def test_ball_sizes_tree(tree2):
    g = tree2.enumerate_ball(3)
    # 1 + 3 + 6 + 12 vertices within distance 3 of the root
    assert len(g) == 22
    assert all(degree_of(g, i) == 3 for i in range(len(g)) if g.depth[i] <= 2)


def test_ball_cap():
    model = build_model(ModelSpec("tree", b=2))
    with pytest.raises(BallCapExceeded):
        model.enumerate_ball(12, cap=100)


def test_explicit_graph_csv(fixed_end2):
    g = fixed_end2.enumerate_ball(2)
    text = to_csv(g)
    lines = text.strip().splitlines()
    assert lines[0] == "vertex_id,neighbor_id,level"
    assert len(lines) == 1 + sum(len(a) for a in adjacency(g))


def test_degrees():
    assert build_model(ModelSpec("tree", b=2)).degree == 3
    assert build_model(ModelSpec("fixed_end_tree", b=2)).degree == 3
    assert build_model(ModelSpec("grandparent", b=2)).degree == 8
    assert build_model(ModelSpec("diestel_leader", q=2, r=3)).degree == 5


def test_tree_anchors(tree2):
    chain = tree2.collapse(4)
    u = return_probabilities(chain, 4)
    assert u.values[2] == Fraction(1, 3)
    assert u.values[4] == Fraction(5, 27)


def test_grandparent_anchors(grandparent2):
    chain = grandparent2.collapse(4)
    u = return_probabilities(chain, 4)
    assert u.values[2] == Fraction(1, 8)
    assert u.values[4] == Fraction(79, 2048)


def test_dl_anchors(dl23):
    chain = dl23.collapse(4)
    u = return_probabilities(chain, 4)
    assert u.values[2] == Fraction(1, 5)
    assert u.values[4] == Fraction(11, 125)


def test_ball_dp_matches_collapse_quick(fixed_end2):
    rep = validate_collapse(fixed_end2, n_check=8)
    assert rep.ok, rep.mismatches


def test_ball_return_series_requires_radius(tree2):
    g = tree2.enumerate_ball(2)
    with pytest.raises(ModelError):
        ball_return_series(g, 10, tree2.degree)


def test_level_profiles():
    fe = build_model(ModelSpec("fixed_end_tree", b=2))
    prof = fe.level_profile()
    assert prof.degree == 3
    assert dict(prof.entries) == {Fraction(2): 1, Fraction(1, 2): 2}
    gp = build_model(ModelSpec("grandparent", b=2)).level_profile()
    assert dict(gp.entries) == {Fraction(4): 1, Fraction(2): 1,
                                Fraction(1, 2): 2, Fraction(1, 4): 4}
    assert gp.t0_lattice == 2
    dl = build_model(ModelSpec("diestel_leader", q=2, r=3)).level_profile()
    assert dict(dl.entries) == {Fraction(3, 2): 2, Fraction(2, 3): 3}


def test_cartesian_product_series(tree2):
    spec = ModelSpec("cartesian", factors=(ModelSpec("tree", b=2),
                                           ModelSpec("tree", b=2)))
    prod = build_model(spec)
    g = prod.enumerate_ball(3)
    u = ball_return_series(g, 4, prod.degree)
    # binomial mixture of the two factor walks
    chain = tree2.collapse(4)
    ut = return_probabilities(chain, 4).values
    mix2 = Fraction(2, 4) * ut[2] * ut[0] * 2 * Fraction(1, 1)
    expect2 = sum(Fraction(1, 2 ** 2) * _binom(2, j) * ut[j] * ut[2 - j]
                  for j in range(3))
    assert u[2] == expect2
    assert mix2 > 0


def _binom(n, k):
    import math
    return math.comb(n, k)


def test_free_product_ball():
    fp = build_model(ModelSpec("free_product", alpha=3, beta=2))
    g = fp.enumerate_ball(3)
    assert fp.has_collapse is False
    assert all(degree_of(g, i) == fp.degree
               for i in range(len(g)) if g.depth[i] <= 2)


def test_cartesian_profile_without_levels():
    prod = build_model(ModelSpec("cartesian", factors=(
        ModelSpec("tree", b=2), ModelSpec("diestel_leader", q=2, r=2))))
    prof = prod.level_profile()
    assert (prof.degree, prof.entries, prof.base, prof.t0_lattice) == \
        (7, [(Fraction(1), 7)], None, 0)


def test_cartesian_profile_rejects_two_bases():
    prod = build_model(ModelSpec("cartesian", factors=(
        ModelSpec("fixed_end_tree", b=2), ModelSpec("fixed_end_tree", b=3))))
    with pytest.raises(ModelError, match="incompatible"):
        prod.level_profile()

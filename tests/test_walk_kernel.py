"""One walk kernel, `CollapsedChain.walk`, for collapsed chains and balls:
ball series and avoiding-walk counts against the plain walk counter in
`oracles`, the ball oracle at the chain's radius, the smallest horizons
and the negative ones, which every series refuses."""

from fractions import Fraction

import pytest

from oracles import adjacency, walk_count
from walklab import bridges, series
from walklab.doob import DoobError, doob_chain
from walklab.models import (ModelError, ModelSpec, ball_return_series,
                            build_model, validate_collapse)

TREE2 = ModelSpec("tree", b=2)


def spec_id(value):
    return build_model(value).name() if isinstance(value, ModelSpec) \
        else str(value)


def counted_series(adj, n_max, degree):
    """u_n for n <= n_max from the walk counter on a ball's lists."""
    return [Fraction(walk_count(adj, n, 0, 0), degree ** n)
            for n in range(n_max + 1)]


@pytest.mark.parametrize("spec,radius", [
    (TREE2, 6), (ModelSpec("grandparent", b=2), 4),
    (ModelSpec("diestel_leader", q=2, r=3), 5),
    (ModelSpec("cartesian", factors=(TREE2, TREE2)), 5),
    (ModelSpec("free_product", alpha=3, beta=3), 6)], ids=spec_id)
def test_ball_series_equal_walk_counter(spec, radius):
    model = build_model(spec)
    g = model.enumerate_ball(radius)
    n_max = 2 * radius + 1
    assert ball_return_series(g, n_max, model.degree) == \
        counted_series(adjacency(g), n_max, model.degree)


@pytest.mark.parametrize("spec", [
    ModelSpec("grandparent", b=2), ModelSpec("fixed_end_tree", b=3),
    ModelSpec("diestel_leader", q=2, r=3)], ids=spec_id)
def test_ball_at_half_the_horizon_is_exact(spec):
    model = build_model(spec)
    n_max = 8
    small = model.enumerate_ball(n_max // 2)
    big = model.enumerate_ball(n_max // 2 + 1)
    assert ball_return_series(small, n_max, model.degree) == \
        counted_series(adjacency(big), n_max, model.degree)
    with pytest.raises(ModelError):
        ball_return_series(small, n_max + 2, model.degree)


def test_avoiding_counts_from_other_vertices(tree2):
    g = tree2.enumerate_ball(6)
    adj = adjacency(g)
    edge = len(adj) - 1  # a vertex at the ball's radius
    assert g.depth[edge] == 6
    for n in range(7):
        for src, dst, avoid in ((1, 1, 0), (4, 4, 0), (10, 10, 1),
                                (4, 10, 1), (0, 0, 4), (4, 4, None),
                                (10, 4, None), (0, 10, None), (10, 0, 4),
                                (edge, 4, None), (0, edge, 1),
                                (edge, edge, 0)):
            assert bridges._walk_count(g, n, src, dst, avoid) == \
                walk_count(adj, n, src, dst, avoid), (n, src, dst, avoid)


# the ball has the chain's radius n_check // 2: radius 5 for grandparent
# b=3 at n_check=10, where radius 6 held 930k vertices
@pytest.mark.parametrize("spec,n_check", [
    (ModelSpec("grandparent", b=3), 10)], ids=spec_id)
def test_collapse_matches_ball_at_the_chain_radius(spec, n_check):
    rep = validate_collapse(build_model(spec), n_check=n_check)
    assert rep.ok, rep.mismatches


@pytest.mark.parametrize("name", ["tree2", "grandparent2", "dl23"])
def test_smallest_horizons(name, request):
    model = request.getfixturevalue(name)
    for n_max, u, f in ((0, [1], [0]), (1, [1, 0], [0, 0])):
        chain = model.collapse(n_max)
        assert chain.return_series_exact(n_max) == u
        assert chain.taboo_series_exact(n_max) == f
        assert chain.return_series_float(n_max).tolist() == u
        assert chain.taboo_series_float(n_max).tolist() == f
    assert ball_return_series(model.enumerate_ball(0), 1, model.degree) \
        == [1, 0]


@pytest.mark.parametrize("name", ["tree2", "grandparent2", "dl23"])
def test_exact_walks_leave_edges_unbuilt(name, request):
    model = request.getfixturevalue(name)
    chain = model.collapse(30)
    chain.return_series_exact(30)
    chain.taboo_series_exact(30)
    bridges._occupation_numerators(chain, 20)
    assert chain._edges is None
    g = model.enumerate_ball(4)
    ball_return_series(g, 8, model.degree)
    assert g._edges is None


# (error, call on a grandparent b=2 chain of horizon 10, its Doob chain
# and its exact u_n) for each entry point that takes a horizon
HORIZON_CALLS = {
    "return_series_exact": (ValueError, lambda c, dc, u, n:
                            c.return_series_exact(n)),
    "taboo_series_exact": (ValueError, lambda c, dc, u, n:
                           c.taboo_series_exact(n)),
    "return_series_float": (ValueError, lambda c, dc, u, n:
                            c.return_series_float(n)),
    "taboo_series_float": (ValueError, lambda c, dc, u, n:
                           c.taboo_series_float(n)),
    "return_probabilities": (ValueError, lambda c, dc, u, n:
                             series.return_probabilities(c, n)),
    "return_probabilities[float]": (ValueError, lambda c, dc, u, n:
                                    series.return_probabilities(c, n,
                                                                "float")),
    "taboo_first_return": (ValueError, lambda c, dc, u, n:
                           series.taboo_first_return(c, n)),
    "doob_exact": (DoobError, lambda c, dc, u, n:
                   dc.return_series_exact(n)),
    "doob_float": (DoobError, lambda c, dc, u, n:
                   dc.return_series_float(n)),
    "bridge_level_visits": (bridges.BridgeError, lambda c, dc, u, n:
                            bridges.bridge_level_visits(c, u, n, 0)),
}


@pytest.mark.parametrize("n", [-1, -5, 11])
@pytest.mark.parametrize("name", list(HORIZON_CALLS))
def test_horizons_outside_the_chain_raise(grandparent2, name, n):
    """A horizon below 0 or past the chain's raises the entry point's own
    error (a ValueError for the chain and its series), naming the range."""
    chain = grandparent2.collapse(10)
    dc = doob_chain(chain, series.spectral_radius(grandparent2))
    error, call = HORIZON_CALLS[name]
    with pytest.raises(error, match="horizon 10"):
        call(chain, dc, series.return_probabilities(chain, 10), n)

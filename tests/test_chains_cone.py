"""Light-cone-pruned exact DPs against a plain full-state loop."""

from fractions import Fraction

import pytest

from oracles import doob_rows
from walklab.doob import doob_chain
from walklab.qfield import QuadExt
from walklab.series import spectral_radius

N = 60


def full_walk(chain, rows, start, n_max, taboo=False):
    """Root entries of w_1..w_{n_max}, every state read at every step."""
    w = [0] * len(chain.states)
    w[chain.root] = start
    out = []
    for n in range(1, n_max + 1):
        if taboo and n > 1:
            w[chain.root] = 0
        nw = [0] * len(w)
        for i, wi in enumerate(w):
            if wi == 0:
                continue
            for j, p in rows[i]:
                nw[j] = nw[j] + wi * p
        w = nw
        out.append(w[chain.root])
    return out


@pytest.fixture(scope="module", params=["tree2", "fixed_end2",
                                        "grandparent2", "dl23"])
def model_chain(request):
    model = request.getfixturevalue(request.param)
    return model, model.collapse(N)


def test_cone_is_depth_prefix(model_chain):
    _, chain = model_chain
    for k in range(N // 2 + 2):
        c = chain.cone(k)
        assert all(d <= k for d in chain.depth[:c])
        assert all(d > k for d in chain.depth[c:])


def test_pruned_series_equal_full_loop(model_chain):
    _, chain = model_chain
    d = chain.denom
    u = [Fraction(1)] + [Fraction(x, d ** n) for n, x in enumerate(
        full_walk(chain, chain.edges, 1, N), 1)]
    f = [Fraction(0)] + [Fraction(x, d ** n) for n, x in enumerate(
        full_walk(chain, chain.edges, 1, N, taboo=True), 1)]
    assert chain.return_series_exact(N) == u
    assert chain.taboo_series_exact(N) == f


@pytest.mark.parametrize("name", ["fixed_end2", "grandparent2", "dl23"])
def test_pruned_hwalk_equals_full_loop(name, request):
    model = request.getfixturevalue(name)
    chain, rho = model.collapse(N), spectral_radius(model)
    dc = doob_chain(chain, rho)
    a = dc.return_series_exact(N)
    assert all(isinstance(x, QuadExt) for x in a)
    assert a == [a[0]] + full_walk(chain, doob_rows(chain, rho), a[0], N)

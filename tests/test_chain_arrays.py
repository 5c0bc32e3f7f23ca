"""Array-native collapsed chains: CSR rows from the truncation, memoized
orbit moves, the float matrix P and the light-cone float half walks."""

import numpy as np
import pytest

from oracles import (bfs_rows, coo_float_matrix, counted_moves, doob_rows,
                     full_half_walk)
from walklab.doob import doob_chain
from walklab.models import ModelSpec, build_model
from walklab.series import spectral_radius


def spec_id(spec):
    return build_model(spec).name()


MEMO_SPECS = [ModelSpec("grandparent", b=b) for b in (2, 3, 4)] + [
    ModelSpec("diestel_leader", q=q, r=r)
    for q, r in ((2, 3), (3, 2), (2, 2), (3, 5))]


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=spec_id)
def test_memoized_orbit_moves_equal_composed_moves(spec):
    model = build_model(spec)
    for state in model.collapse(60).states:
        assert model.orbit_moves(state) == counted_moves(model, state)


CHAIN_SPECS = [ModelSpec("tree", b=2), ModelSpec("fixed_end_tree", b=3),
               ModelSpec("grandparent", b=2),
               ModelSpec("diestel_leader", q=2, r=3),
               ModelSpec("diestel_leader", q=2, r=2)]


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=spec_id)
def test_edges_equal_plain_bfs_rows(spec):
    model = build_model(spec)
    chain = model.collapse(24)
    assert chain.edges == bfs_rows(model, 24)
    indptr, targets, counts = chain.csr
    assert len(indptr) == len(chain.states) + 1
    assert len(targets) == len(counts) == indptr[-1]


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=spec_id)
def test_float_series_leave_edges_unbuilt(spec):
    chain = build_model(spec).collapse(40)
    chain.return_series_float(40)
    chain.taboo_series_float(40)
    assert chain._edges is None


def assert_same_csr(P, Q):
    assert P.format == Q.format == "csr"
    assert P.shape == Q.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(P, name), getattr(Q, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=spec_id)
def test_chain_matrix_equals_coo_oracle(spec):
    chain = build_model(spec).collapse(30)
    assert_same_csr(chain.matrix(),
                    coo_float_matrix(chain.edges, 1.0 / chain.denom))


@pytest.mark.parametrize("spec,n_max", [
    (ModelSpec("grandparent", b=2), 200),
    (ModelSpec("diestel_leader", q=2, r=3), 120),
    (ModelSpec("tree", b=2), 400),
    (ModelSpec("fixed_end_tree", b=3), 150)],
    ids=lambda v: spec_id(v) if isinstance(v, ModelSpec) else str(v))
def test_light_cone_float_walk_equals_full_products(spec, n_max):
    chain = build_model(spec).collapse(n_max)
    A = chain._symmetric()
    assert np.array_equal(chain.return_series_float(n_max),
                          full_half_walk(chain, A, n_max))
    assert np.array_equal(chain.taboo_series_float(n_max),
                          full_half_walk(chain, A, n_max, taboo=True))


def test_light_cone_doob_walk_equals_full_products(grandparent2):
    """The h-walk's symmetrization sqrt(P_h * P_h.T), from the oracle's
    h-walk rows, walked whole."""
    chain, rho = grandparent2.collapse(60), spectral_radius(grandparent2)
    P = coo_float_matrix(doob_rows(chain, rho))
    assert np.array_equal(doob_chain(chain, rho).return_series_float(60),
                          full_half_walk(chain, P.multiply(P.T).sqrt(), 60))

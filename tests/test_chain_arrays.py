"""Array-native collapsed chains: CSR rows from the truncation, memoized
orbit moves, one float-matrix builder and the light-cone float DP."""

import numpy as np
import pytest

from oracles import bfs_rows, coo_float_matrix
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
        assert model.orbit_moves(state) == model._moves(state)


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


def test_doob_matrix_equals_coo_oracle(grandparent2):
    dc = doob_chain(grandparent2.collapse(30), spectral_radius(grandparent2))
    assert_same_csr(dc.matrix(), coo_float_matrix(dc.rows))


def full_float_walk(chain, P, n_max, taboo=False):
    """Root entries of w_0..w_{n_max} with the whole matrix applied at
    every step."""
    w = np.zeros(len(chain.states))
    w[chain.root] = 1.0
    out = [0.0 if taboo else 1.0]
    for n in range(1, n_max + 1):
        if taboo and n > 1:
            w[chain.root] = 0.0
        w = P @ w
        out.append(w[chain.root])
    return np.array(out)


@pytest.mark.parametrize("spec,n_max", [
    (ModelSpec("grandparent", b=2), 200),
    (ModelSpec("diestel_leader", q=2, r=3), 120),
    (ModelSpec("tree", b=2), 400),
    (ModelSpec("fixed_end_tree", b=3), 150)],
    ids=lambda v: spec_id(v) if isinstance(v, ModelSpec) else str(v))
def test_light_cone_float_walk_equals_full_products(spec, n_max):
    chain = build_model(spec).collapse(n_max)
    P = chain.matrix()
    for taboo in (False, True):
        assert np.array_equal(chain.float_root_walk(P, n_max, taboo=taboo),
                              full_float_walk(chain, P, n_max, taboo))


def test_light_cone_doob_walk_equals_full_products(grandparent2):
    chain = grandparent2.collapse(60)
    dc = doob_chain(chain, spectral_radius(grandparent2))
    assert np.array_equal(
        dc.return_series_float(60),
        full_float_walk(chain, coo_float_matrix(dc.rows), 60))


def test_float_walk_rejects_a_matrix_it_cannot_read(grandparent2):
    chain = grandparent2.collapse(10)
    with pytest.raises(ValueError, match="CSR"):
        chain.float_root_walk(chain.matrix().tocsc(), 10)
    with pytest.raises(ValueError, match="CSR"):
        chain.float_root_walk(grandparent2.collapse(8).matrix(), 8)

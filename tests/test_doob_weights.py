"""The Doob weights as one array in ``csr`` order, and the two array
checks on them: row sums and reversibility."""

import dataclasses
from array import array
from fractions import Fraction

import numpy as np
import pytest

from oracles import argsort_pull_rows, doob_rows, object_root_walk
from walklab.doob import DoobError, doob_chain, increment_law
from walklab.models import ModelSpec, build_model
from walklab.qfield import QuadExt
from walklab.series import spectral_radius

SPECS = [ModelSpec("fixed_end_tree", b=2), ModelSpec("fixed_end_tree", b=3),
         ModelSpec("grandparent", b=2), ModelSpec("grandparent", b=3),
         ModelSpec("diestel_leader", q=2, r=3),
         ModelSpec("diestel_leader", q=3, r=2)]


def spec_id(spec):
    return build_model(spec).name()


@pytest.fixture(scope="module", params=SPECS, ids=spec_id)
def model_rho(request):
    model = build_model(request.param)
    return model, spectral_radius(model)


@pytest.mark.parametrize("n", [30, 60])
def test_weights_equal_edge_by_edge_rows(model_rho, n):
    model, rho = model_rho
    chain = model.collapse(n)
    dc = doob_chain(chain, rho)
    rows = doob_rows(chain, rho)
    indptr, targets, _ = chain.csr
    assert len(dc.weights) == indptr[-1]
    for i, row in enumerate(rows):
        a, b = indptr[i], indptr[i + 1]
        assert list(targets[a:b]) == [j for j, _ in row]
        assert dc.weights[a:b].tolist() == [p for _, p in row]


def test_increment_law_is_root_row_by_level_step(model_rho):
    model, rho = model_rho
    chain = model.collapse(10)
    dc = doob_chain(chain, rho)
    indptr, targets, _ = chain.csr
    a, b = indptr[chain.root], indptr[chain.root + 1]
    by_step = {}
    for j, p in zip(targets[a:b], dc.weights[a:b]):
        step = chain.level[j] - chain.level[chain.root]
        by_step[step] = by_step.get(step, 0) + p
    atoms = increment_law(model.level_profile(), rho).atoms
    assert atoms == sorted(by_step.items())


def test_valid_chain_knows_every_orbit_size(model_rho):
    model, rho = model_rho
    chain = model.collapse(30)
    rev = doob_chain(chain, rho).reversibility_check()
    assert rev["ok"] and rev["violations"] == []
    assert rev["orbit_sizes_known"] == len(chain)


@pytest.fixture(scope="module")
def gp20(grandparent2):
    return grandparent2.collapse(20), spectral_radius(grandparent2)


def with_counts(chain, indptr, targets, counts):
    return dataclasses.replace(chain, csr=(indptr, targets, counts),
                               _edges=None, _pull=None, _matrix=None,
                               occupation={})


def count_plus_one(chain, row):
    indptr, targets, counts = chain.csr
    counts = array(counts.typecode, counts)
    counts[indptr[row]] += 1
    return with_counts(chain, indptr, targets, counts)


def test_count_copy_walks_its_own_counts(gp20):
    """A copy with new counts and ``_pull=None`` walks them, not the count
    rows memoized on the walked chain it was copied from."""
    chain, _ = gp20
    walked = chain.root_walk(20)
    copy = count_plus_one(chain, 3)
    indptr, sources, counts = argsort_pull_rows(copy)
    own = object_root_walk(copy, 20, rows=(indptr, sources,
                                           counts.astype(object)))
    assert copy.root_walk(20) == own != walked


def test_emptied_boundary_row_leaves_an_orbit_size_unknown(gp20):
    chain, rho = gp20
    indptr, targets, counts = chain.csr
    end = indptr[-2]
    last = len(chain) - 1
    assert chain.depth[last] == chain.radius
    emptied = with_counts(chain, indptr[:-1] + array("q", [end]),
                          targets[:end], counts[:end])
    dc = doob_chain(emptied, rho)
    assert dc.row_sum_check() == []
    rev = dc.reversibility_check()
    assert not rev["ok"]
    assert rev["orbit_sizes_known"] == len(chain) - 1
    assert [v[1:] for v in rev["violations"]] == [
        (last, "orbit size unknown")]


def test_interior_count_fault_fails_the_row_sums(gp20):
    chain, rho = gp20
    with pytest.raises(DoobError, match=r"states \[3\]"):
        doob_chain(count_plus_one(chain, 3), rho)


def test_boundary_count_fault_fails_edge_count_balance(gp20):
    chain, rho = gp20
    first_boundary = chain.cone(chain.radius - 1)
    assert first_boundary == 181
    dc = doob_chain(count_plus_one(chain, first_boundary), rho)
    assert dc.row_sum_check() == []
    rev = dc.reversibility_check()
    assert not rev["ok"]
    assert rev["violations"][0] == (181, 200, "edge-count balance")
    assert {kind for _, _, kind in rev["violations"]} == {
        "edge-count balance", "detailed balance"}


def test_row_sum_check_flags_an_empty_interior_row(gp20):
    chain, rho = gp20
    dc = doob_chain(chain, rho)
    row = chain.cone(chain.radius - 1) - 1  # the last interior row
    indptr, targets, counts = chain.csr
    a, b = indptr[row], indptr[row + 1]
    keep = np.r_[0:a, b:len(targets)]
    cut = array("q", [x - (b - a) * (i > row) for i, x in enumerate(indptr)])
    holed = with_counts(chain, cut, array("i", np.asarray(targets)[keep]),
                        array(counts.typecode, np.asarray(counts)[keep]))
    dc = dataclasses.replace(dc, base_chain=holed, weights=dc.weights[keep])
    assert dc.row_sum_check() == [row]


@pytest.mark.parametrize("irrational", [False, True])
def test_row_sum_check_reads_both_parts_of_the_pairs(gp20, irrational):
    """Interior rows shifted by a rational amount, or by a multiple of
    sqrt(D) alone, are flagged: with L p_h = A + B sqrt(D), a row sums to
    1 exactly when its A sum to L and its B to 0."""
    chain, rho = gp20
    dc = doob_chain(chain, rho)
    D = dc.weights[0].d
    assert D > 1
    delta = QuadExt(D, *((0, Fraction(1, 64)) if irrational
                         else (Fraction(1, 64), 0)))
    indptr = chain.csr[0]
    weights = dc.weights.copy()
    weights[indptr[5]] += delta
    weights[indptr[7]] -= delta
    assert dataclasses.replace(dc, weights=weights).row_sum_check() == [5, 7]

"""The bridge layer reads a collapsed chain only through ``chain.csr``:
one transposition (against the argsort oracle), one backward table for
the exact and the float bridges, the sampler's per-sample maxima, and the
exact ball radius for bridge inclusion."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import argsort_pull_rows, object_bridge_tables
from walklab import bridges
from walklab.bridges import (BridgeError, bridge_inclusion_probability,
                             bridge_inclusion_symmetry, mc_bridge_statistics)
from walklab.models import ModelSpec, build_model

TREE2 = ModelSpec("tree", b=2)


def spec_id(spec):
    return build_model(spec).name()


CHAIN_SPECS = [TREE2, ModelSpec("fixed_end_tree", b=2),
               ModelSpec("grandparent", b=2), ModelSpec("grandparent", b=3),
               ModelSpec("diestel_leader", q=2, r=3),
               ModelSpec("diestel_leader", q=2, r=2)]
BALL_SPECS = [(TREE2, 6), (ModelSpec("grandparent", b=2), 4),
              (ModelSpec("cartesian", factors=(TREE2, TREE2)), 4),
              (ModelSpec("free_product", alpha=3, beta=3), 5)]


def assert_same_rows(got, want):
    for a, b in zip(got, want, strict=True):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


@pytest.mark.parametrize("spec,size,ball", [
    *((spec, 24, False) for spec in CHAIN_SPECS),
    *((spec, r, True) for spec, r in BALL_SPECS)],
    ids=[spec_id(s) for s in CHAIN_SPECS] +
        [f"ball-{spec_id(s)}" for s, _ in BALL_SPECS])
def test_transposed_rows_equal_argsort_oracle(spec, size, ball):
    model = build_model(spec)
    chain = model.enumerate_ball(size) if ball else model.collapse(size)
    nnz = len(chain.csr[1])
    floats = np.random.default_rng(3).random(nnz)
    objects = np.array([Fraction(k, 7) for k in range(nnz)], dtype=object)
    counts = chain.pull_rows()
    assert_same_rows(counts, argsort_pull_rows(chain))
    for weights in (floats, objects):
        assert_same_rows(chain.pull_rows(weights),
                         argsort_pull_rows(chain, weights))
    # a weighted call leaves the memoized count triple alone
    assert chain.pull_rows() is counts


BACKWARD_SPECS = [(ModelSpec("grandparent", b=2), 40),
                  (ModelSpec("grandparent", b=3), 24),
                  (ModelSpec("diestel_leader", q=2, r=3), 40),
                  (ModelSpec("fixed_end_tree", b=2), 40), (TREE2, 40)]


@pytest.mark.parametrize("spec,n", BACKWARD_SPECS,
                         ids=[spec_id(s) for s, _ in BACKWARD_SPECS])
def test_float_backward_table_equals_exact_numerators(spec, n):
    chain = build_model(spec).collapse(n)
    exact = object_bridge_tables(chain, n)[1]
    floats = bridges._backward_table(chain, n)
    assert len(floats) == len(exact) == n + 1
    for m, (g, x) in enumerate(zip(floats, exact)):
        assert g.dtype == np.float64
        cone = chain.cone(min(m, n - m))
        want = np.array([float(Fraction(v, chain.denom ** m))
                         for v in x[:cone]])
        err = np.abs(g[:cone] - want)
        assert (err <= 1e-13 * want).all(), (m, err.max())
        assert not g[cone:].any(), m


@pytest.mark.parametrize("spec,n,seed", [
    (ModelSpec("grandparent", b=2), 30, 5),
    (ModelSpec("diestel_leader", q=2, r=3), 24, 5),
    (ModelSpec("fixed_end_tree", b=2), 20, 11)],
    ids=["grandparent", "dl23", "fixed_end"])
def test_sampler_reads_csr_and_maxima(spec, n, seed):
    model = build_model(spec)
    chain = model.collapse(n)
    stats = mc_bridge_statistics(model, n, 2000, seed, chain=chain,
                                 distinct_subsample=200)
    assert chain._edges is None and chain._matrix is None
    t0 = chain.t0
    for k in range(-3, 9):
        above = sum(c for lv, c in stats.max_level_counts.items()
                    if lv >= k * t0)
        assert stats.hit_upper[k] == above / stats.samples, k


@pytest.mark.parametrize("spec,n", [
    (TREE2, 4), (TREE2, 6), (ModelSpec("grandparent", b=2), 6),
    (ModelSpec("diestel_leader", q=2, r=3), 6)],
    ids=["tree-4", "tree-6", "grandparent-6", "dl23-6"])
def test_inclusion_is_exact_at_half_the_length(spec, n):
    model = build_model(spec)
    near = model.enumerate_ball(3)
    first = [(near.states[x], near.dist[x]) for x in range(11)]
    big = model.enumerate_ball(max(d for _, d in first) + n // 2 + 3)
    balls = {}
    for v, d in first:
        for radius in (d + n // 2 - 1, d + n // 2):
            if radius not in balls:
                balls[radius] = model.enumerate_ball(radius)
        g, below = balls[d + n // 2], balls[d + n // 2 - 1]
        assert bridge_inclusion_symmetry(g, n, g.index[v], model.degree) == \
            bridge_inclusion_symmetry(big, n, big.index[v], model.degree)
        with pytest.raises(BridgeError):
            bridge_inclusion_symmetry(below, n, below.index[v], model.degree)
    small = model.enumerate_ball(n // 2)
    assert bridge_inclusion_probability(small, n, 1, model.degree) == \
        bridge_inclusion_probability(big, n, big.index[small.states[1]],
                                     model.degree)
    with pytest.raises(BridgeError):
        bridge_inclusion_probability(model.enumerate_ball(n // 2 - 1), n, 1,
                                     model.degree)

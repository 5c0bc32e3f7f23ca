"""The exact bridge tables as int64 residues: F_j and G_{n-j} against the
whole Python-int vectors of `oracles.object_bridge_tables`, the
occupation numerators and the cut identity built from them, the primes'
width and product, the chain horizon, and the data the walk refuses."""

import math

import numpy as np
import pytest

from oracles import object_bridge_tables
from test_bridge_layer import CHAIN_SPECS, spec_id
from walklab import bridges
from walklab.bridges import (BridgeError, bridge_cut_identity,
                             mc_bridge_statistics)
from walklab.models import build_model

LENGTHS = [0, 1, 2, 13, 48]


@pytest.fixture(scope="module", params=CHAIN_SPECS,
                ids=[spec_id(s) for s in CHAIN_SPECS])
def model(request):
    return build_model(request.param)


@pytest.mark.parametrize("n", LENGTHS)
def test_residue_tables_equal_object_tables(model, n):
    chain = model.collapse(n)
    F, G, primes = bridges._forward_backward_numerators(chain, n)
    F = list(F)
    assert max(primes) < 2 ** 31
    assert math.prod(primes) > 2 * (n + 1) * chain.denom ** n
    mod = np.array(primes)
    F_ref, G_ref = object_bridge_tables(chain, n)
    for j in range(n + 1):
        cone = chain.cone(min(j, n - j))
        for got, want, dtype in ((F[j], F_ref[j], np.int64),
                                 (G[n - j], G_ref[n - j], np.int32)):
            assert got.shape == (cone, len(primes))
            assert got.dtype == dtype and (np.abs(got) < mod).all()
            assert ((got - np.array([[x % p for p in primes]
                                     for x in want[:cone]]).reshape(
                                         got.shape)) % mod == 0).all(), j
        # past the cut rows every product is 0
        assert not (F_ref[j][cone:] * G_ref[n - j][cone:]).any(), j


@pytest.mark.parametrize("n", LENGTHS)
def test_occupation_and_cut_identity_equal_object_tables(model, n):
    chain = model.collapse(n)
    F, G = object_bridge_tables(chain, n)
    products = [f * g for f, g in zip(F, reversed(G))]
    assert bridges._occupation_numerators(chain, n) == sum(products).tolist()
    totals = {p.sum() for p in products}
    assert totals == {G[n][chain.root]}
    assert bridge_cut_identity(chain, n)


def test_cut_identity_reads_every_residue(grandparent2, monkeypatch):
    """One residue of F_5 at the root moved by 1 shifts that cut's total
    mod one prime by G_8[root], which is not 0 there, and fails it."""
    chain = grandparent2.collapse(13)
    assert bridge_cut_identity(chain, 13)
    real = bridges._forward_backward_numerators

    def off_by_one(chain, n):
        F, G, primes = real(chain, n)
        F = list(F)
        assert G[8][0, -1] % primes[-1]
        F[5][0, -1] += 1
        return F, G, primes

    monkeypatch.setattr(bridges, "_forward_backward_numerators", off_by_one)
    assert not bridge_cut_identity(chain, 13)


def test_bridge_calls_past_the_horizon_raise(grandparent2):
    chain = grandparent2.collapse(10)
    with pytest.raises(BridgeError, match="horizon"):
        bridge_cut_identity(chain, 30)
    with pytest.raises(BridgeError, match="horizon"):
        mc_bridge_statistics(grandparent2, 30, 200, seed=1, chain=chain)
    assert bridge_cut_identity(chain, 10)


def test_walk_takes_float64_data_or_int64_residues(grandparent2):
    chain = grandparent2.collapse(6)
    indptr, idx, counts = chain.pull_rows()
    residues = ((2 ** 31 - 1,), 1)
    for data, primes in ((counts, None), (counts, residues),
                         (counts.astype(np.int64), None),
                         (counts.astype(float), residues)):
        with pytest.raises(TypeError, match="float64 data, or int64"):
            next(chain.walk(6, 1, (indptr, idx, data), primes=primes))
    with pytest.raises(TypeError, match="integer start"):
        chain.root_walk(6, 1.0)
    assert next(chain.walk(6, 1, (indptr, idx, counts.astype(float)))).any()

"""Lazy reduction in the residue walk: the int64 residues are reduced
only every r = `chains._lazy_steps(W)` steps, by primes p with
W**r (p - 1) < 2**63, W the largest row sum of |weights|.  Weights wide
enough to force r = 1, and weights at which skipping one more reduction
would overflow int64, against the Python-int object walk
(`oracles.object_root_walk`), with taboo and with start -2."""

import numpy as np
import pytest

from oracles import object_root_walk
from walklab import chains
from walklab.models import ModelSpec, build_model


def _setup(chain, rows, start, n):
    """(W, r, primes) the residue walk picks for ``rows``."""
    _, W, C = chains._integer_rows(rows, len(chain.depth))
    return W, chains._lazy_steps(W), chains._residue_primes(
        W, abs(start) * C ** n)


def _count_reductions(monkeypatch):
    calls = []
    fmod = np.fmod

    def spy(*args, **kwargs):
        calls.append(1)
        return fmod(*args, **kwargs)

    monkeypatch.setattr(chains.np, "fmod", spy)
    return calls


@pytest.mark.parametrize("start", [1, -2])
@pytest.mark.parametrize("taboo", [False, True])
def test_wide_weights_reduce_every_step(start, taboo, monkeypatch):
    chain = build_model(ModelSpec("grandparent", b=2)).collapse(40)
    indptr, idx, counts = chain.pull_rows()
    rows = (indptr, idx, counts * 4)  # W = 32: 6 bits per step
    n = 40
    W, r, primes = _setup(chain, rows, start, n)
    assert W == 32 and r == 1
    assert W * (max(primes) - 1) < 2 ** 63 <= W ** 2 * (min(primes) - 1)
    calls = _count_reductions(monkeypatch)
    got = chain.root_walk(n, start, rows, taboo)
    assert len(calls) == n
    monkeypatch.undo()
    assert got == object_root_walk(chain, n, start, rows, taboo)


def _root_loop(ns, weight):
    """Pull rows with one entry, the root to itself, of ``weight``."""
    indptr = np.ones(ns + 1, dtype=np.int64)
    indptr[0] = 0
    return indptr, np.zeros(1, dtype=np.int32), np.array([weight])


@pytest.mark.parametrize("start", [1, -2])
@pytest.mark.parametrize("taboo", [False, True])
def test_one_more_skipped_reduction_would_overflow(start, taboo,
                                                   monkeypatch):
    # a root loop of weight 7: w_n[root] = start * 7**n, W = 7, r = 2;
    # a residue x reduced at step m grows to x 7**2 < 2**63 by step m + 2,
    # and for some m, x 7**3 would pass 2**63
    chain = build_model(ModelSpec("tree", b=2)).collapse(60)
    n = 60
    rows = _root_loop(len(chain.depth), 7)
    W, r, primes = _setup(chain, rows, start, n)
    assert (W, r) == (7, 2)
    assert W ** r * (max(primes) - 1) < 2 ** 63
    peak = max(start * W ** m % p for m in range(0, n - r, r) for p in primes)
    assert peak * W ** (r + 1) >= 2 ** 63 > peak * W ** r
    calls = _count_reductions(monkeypatch)
    got = chain.root_walk(n, start, rows, taboo)
    assert len(calls) == n // r
    monkeypatch.undo()
    assert got == object_root_walk(chain, n, start, rows, taboo)
    assert got[:1] == [start * 7] and (taboo or got[-1] == start * 7 ** n)


@pytest.mark.parametrize("start", [1, -2])
def test_chain_at_the_bound_of_its_lazy_steps(start):
    # DL(2,3)'s counts: W = 7, so two steps fit under 2**63 and a third
    # would not fit the bound
    chain = build_model(ModelSpec("diestel_leader", q=2, r=3)).collapse(120)
    W, r, primes = _setup(chain, chain.pull_rows(), start, 120)
    assert (W, r) == (7, 2)
    assert W ** r * (max(primes) - 1) < 2 ** 63 <= \
        W ** (r + 1) * (min(primes) - 1)
    for taboo in (False, True):
        assert chain.root_walk(120, start, taboo=taboo) == \
            object_root_walk(chain, 120, start, taboo=taboo)

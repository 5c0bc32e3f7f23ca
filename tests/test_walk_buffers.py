"""The walk kernel steps in two buffers it owns, also in float64: every
yielded vector equals a fresh full-size product on the cone, with true
zeros off it.  A Doob chain reads its integer pairs once, and a chain
without entries raises `DoobError`."""

import numpy as np
import pytest
from scipy import sparse

import walklab.doob as doob
from walklab.doob import DoobError, doob_chain
from walklab.models import ModelSpec, build_model
from walklab.series import spectral_radius

CHAINS = {"grandparent2": (ModelSpec("grandparent", b=2), 40),
          "dl23": (ModelSpec("diestel_leader", q=2, r=3), 30)}


def fresh_walk(chain, n_max, start, rows, source, target):
    """w_1..w_{n_max} of `CollapsedChain.walk`, each step a new zero vector
    whose cone rows are the rows' product with the last."""
    indptr, idx, data = rows
    A = sparse.csr_matrix((data, idx, indptr), shape=(len(chain),) * 2)
    w = np.zeros(len(chain))
    w[source] = start
    reach, left = chain.depth[source], chain.depth[target] + n_max
    for n in range(1, n_max + 1):
        m = chain.cone(min(reach + n, left - n))
        w, nw = np.zeros(len(chain)), w
        w[:m] = A[:m] @ nw
        yield w, m


@pytest.mark.parametrize("name", CHAINS)
def test_float_walk_reuses_two_buffers(name):
    spec, n = CHAINS[name]
    chain = build_model(spec).collapse(n)
    rows = chain.pull_rows(np.asarray(chain.csr[2]) / chain.denom)
    far = len(chain) - 1
    for source, target, n_max in ((0, 0, n), (0, far, n // 2),
                                  (far, 0, n // 2), (5, 9, n)):
        got = list(chain.walk(n_max, 0.5, rows, source, target))
        assert len({id(w) for w in got}) == 2
        want = list(fresh_walk(chain, n_max, 0.5, rows, source, target))
        for step, w in enumerate(chain.walk(n_max, 0.5, rows, source,
                                            target)):
            ref, m = want[step]
            assert np.array_equal(w, ref) and not w[m:].any()


@pytest.mark.parametrize("name", CHAINS)
def test_residue_walk_is_zero_off_the_cone(name):
    spec, n = CHAINS[name]
    chain = build_model(spec).collapse(n)
    indptr, idx, counts = chain.pull_rows()
    rows = (indptr, idx, counts.astype(np.int64))
    for step, w in enumerate(chain.walk(n, 1, rows, primes=((101, 103), 1)),
                             1):
        assert not w[chain.cone(min(step, n - step)):].any()


@pytest.mark.parametrize("n", [0, 1])
def test_doob_chain_without_entries_raises(n):
    model = build_model(ModelSpec("grandparent", b=2))
    chain = model.collapse(n)
    assert len(chain.csr[1]) == 0
    with pytest.raises(DoobError, match="no entries"):
        doob_chain(chain, spectral_radius(model))


def test_integer_pairs_once_per_doob_chain(monkeypatch):
    model = build_model(ModelSpec("grandparent", b=2))
    calls = []

    def counting(xs):
        calls.append(len(xs))
        return pairs(xs)

    pairs = doob.integer_pairs
    monkeypatch.setattr(doob, "integer_pairs", counting)
    dc = doob_chain(model.collapse(12), spectral_radius(model))
    assert dc.row_sum_check() == []
    assert dc.reversibility_check()["ok"]
    dc.return_series_exact(12)
    assert calls == [len(dc.weights)]

"""The integer walk stepped as int64 residues modulo a few primes and
rebuilt by the Chinese remainder theorem, against the Python-int object
walk (`oracles.object_root_walk`): u_n and taboo f_n on collapsed chains
and balls, starts of either sign, the n where one more prime is needed,
weights whose entries meet the bound exactly, and the weight sums that
leave no prime width."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import bridges, chains
from walklab.models import ModelSpec, build_model
from walklab.qfield import QuadExt

from oracles import object_root_walk

N = 150
SPECS = [ModelSpec("tree", b=b) for b in range(2, 6)] + [
    ModelSpec("fixed_end_tree", b=2), ModelSpec("grandparent", b=2),
    ModelSpec("grandparent", b=3), ModelSpec("diestel_leader", q=2, r=3),
    ModelSpec("diestel_leader", q=3, r=2)]


@functools.lru_cache(maxsize=None)
def _chain(i):
    return build_model(SPECS[i]).collapse(N)


@settings(max_examples=25, deadline=None)
@given(i=st.integers(0, len(SPECS) - 1), n=st.integers(0, N),
       taboo=st.booleans(), start=st.sampled_from([1, 3, -2]))
def test_residue_walk_equals_object_walk(i, n, taboo, start):
    chain = _chain(i)
    got = chain.root_walk(n, start, taboo=taboo)
    assert got == object_root_walk(chain, n, start, taboo=taboo)
    assert all(type(x) is int for x in got)


def _prime_count(chain, start, n):
    _, W, C = chains._integer_rows(chain.pull_rows(), len(chain.depth))
    return len(chains._residue_primes(W, abs(start) * C ** n))


def spec_id(value):
    return build_model(value).name() if isinstance(value, ModelSpec) \
        else str(value)


@pytest.mark.parametrize("i", [0, 5, 7], ids=lambda i: spec_id(SPECS[i]))
@pytest.mark.parametrize("start", [1, -2])
def test_walks_where_one_more_prime_is_needed(i, start):
    chain = _chain(i)
    ks = [_prime_count(chain, start, n) for n in range(N + 1)]
    steps = [n for n in range(1, N + 1) if ks[n] == ks[n - 1] + 1]
    assert steps and all(ks[n] - ks[n - 1] <= 1 for n in range(1, N + 1))
    for n in steps[:3]:
        for m in (n - 1, n):
            for taboo in (False, True):
                assert chain.root_walk(m, start, taboo=taboo) == \
                    object_root_walk(chain, m, start, taboo=taboo)


@pytest.mark.parametrize("spec,radius", [
    (ModelSpec("grandparent", b=2), 5), (ModelSpec("tree", b=3), 6),
    (ModelSpec("diestel_leader", q=2, r=3), 5)], ids=spec_id)
@pytest.mark.parametrize("start", [1, 3, -2])
def test_ball_walk_equals_object_walk(spec, radius, start):
    ball = build_model(spec).enumerate_ball(radius)
    n = 2 * radius + 1
    for taboo in (False, True):
        assert ball.root_walk(n, start, taboo=taboo) == \
            object_root_walk(ball, n, start, taboo=taboo)


def _root_loop(ns, weight):
    """Pull rows with one entry, the root to itself, of ``weight``."""
    indptr = np.ones(ns + 1, dtype=np.int64)
    indptr[0] = 0
    return indptr, np.zeros(1, dtype=np.int32), weight


@pytest.mark.parametrize("c", [7, -3, 2 ** 40])
@pytest.mark.parametrize("start", [1, 3, -2])
def test_entries_at_the_bound_take_the_symmetric_representative(c, start):
    # w_n[root] = start * c**n: every entry meets |start| C**n exactly
    chain = _chain(0)
    n = 40
    for data in (np.array([c], dtype=np.int64), np.array([c], dtype=object)):
        rows = _root_loop(len(chain.depth), data)
        assert chain.root_walk(n, start, rows) == \
            [start * c ** k for k in range(1, n + 1)]
        assert chain.root_walk(n, start, rows) == \
            object_root_walk(chain, n, start, rows)


def test_column_sums_past_two_to_the_53():
    # every row reads the root with weight 2**46: W = 2**46 fits, and the
    # root's column sums to ns * 2**46 > 2**53, a float sum rounded up
    chain = _chain(6)
    ns = len(chain.depth)
    assert ns * 2 ** 46 > 2 ** 53
    rows = (np.arange(ns + 1, dtype=np.int64), np.zeros(ns, dtype=np.int32),
            np.full(ns, 2 ** 46, dtype=np.int64))
    for taboo in (False, True):
        assert chain.root_walk(12, -2, rows, taboo) == \
            object_root_walk(chain, 12, -2, rows, taboo)


@pytest.mark.parametrize("weight", [
    np.array([2 ** 47], dtype=np.int64), np.array([-2 ** 62], dtype=np.int64),
    np.array([2 ** 70], dtype=object)], ids=["2^47", "-2^62", "2^70"])
def test_weights_that_leave_no_prime_width_raise(weight):
    chain = _chain(0)
    with pytest.raises(ValueError, match="no primes"):
        chain.root_walk(3, 1, _root_loop(len(chain.depth), weight))


def test_widest_weights_that_fit_are_exact():
    # W = 2**47 - 1 leaves 16-bit primes; their int64 sums stay exact
    chain = _chain(0)
    c = 2 ** 47 - 1
    rows = _root_loop(len(chain.depth), np.array([c], dtype=np.int64))
    assert chain.root_walk(6, 3, rows) == [3 * c ** k for k in range(1, 7)]


def test_integer_walks_step_residues(monkeypatch):
    """Root walks and avoiding counts with integer data step residues,
    float walks step as they stand, and `QuadExt` walks raise."""
    chain = _chain(5)
    ball = build_model(SPECS[0]).enumerate_ball(4)
    kernel, seen = chains.CollapsedChain.walk, []

    def spy(self, n_max, start=1, rows=None, source=None, target=None,
            primes=None):
        seen.append(primes is not None)
        return kernel(self, n_max, start, rows, source, target, primes)

    monkeypatch.setattr(chains.CollapsedChain, "walk", spy)
    chain.root_walk(30)
    chain.root_walk(30, -2, taboo=True)
    ball.root_walk(9)
    bridges._walk_count(ball, 6, 1, 1, 0)
    assert seen == [True] * 4
    chain.return_series_float(30)
    one = QuadExt(2, 1)
    with pytest.raises(TypeError, match="not object"):
        chain.root_walk(10, one, chain.pull_rows(
            np.full(len(chain.csr[1]), one, dtype=object)))
    assert seen == [True] * 4 + [False] * 2

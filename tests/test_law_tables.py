"""Ballot and maximum tables memoized on the increment law: a call that
fits inside a stored table reads it instead of building its own, and
what it reads equals a fresh table, exactly and to the bit in float."""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from walklab.doob import (_ballots, _law_table, _law_walk, _max_laws,
                          ballot_probability, increment_law, max_and_return)
from walklab.models import ModelSpec, build_model
from walklab.series import spectral_radius

SPECS = {"fixed_end": ModelSpec("fixed_end_tree", b=2),
         "grandparent": ModelSpec("grandparent", b=2)}


@functools.lru_cache(maxsize=None)
def _model(name):
    return build_model(SPECS[name])


def _law(name):
    """A law with an empty memo."""
    model = _model(name)
    return increment_law(model.level_profile(), spectral_radius(model))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == np.float64:
        return b.dtype == np.float64 and a.tobytes() == b.tobytes()
    return a.tolist() == b.tolist()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)),
       mode=st.sampled_from(["exact", "float"]),
       readout=st.sampled_from([_ballots, _max_laws]),
       n=st.integers(1, 30), m_hi=st.integers(1, 20),
       extra=st.integers(0, 20))
def test_memoized_tables_equal_fresh_ones(name, mode, readout, n, m_hi,
                                          extra):
    law = _law(name)
    walk = _law_walk(law, mode)
    wide = _law_table(law, walk, mode, readout, n, m_hi + extra)
    narrow = _law_table(law, walk, mode, readout, n, m_hi)
    stored = law.tables[(readout, mode, n)]
    assert len(stored) == m_hi + extra and _same(stored, wide)
    assert _same(narrow, readout(_law_walk(law, mode), [n], m_hi)[n])
    # a wider call replaces the stored table
    _law_table(law, walk, mode, readout, n, m_hi + extra + 1)
    assert len(law.tables[(readout, mode, n)]) == m_hi + extra + 1


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)),
       mode=st.sampled_from(["exact", "float"]),
       n=st.integers(1, 30), r=st.integers(0, 6), wider=st.integers(0, 6))
def test_window_values_do_not_depend_on_the_memo(name, mode, n, r, wider):
    warm = _law(name)
    ballot_probability(warm, n, r + wider, mode)
    max_and_return(warm, n, r + wider, mode)
    for f in (ballot_probability, max_and_return):
        assert _same(f(warm, n, r, mode), f(_law(name), n, r, mode))

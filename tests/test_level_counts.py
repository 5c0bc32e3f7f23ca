"""Exact level walks step integer path counts and read them out through
the Doob factor: ballot, maximum, return and hitting laws against the
field-valued reference walk of `oracles` on the increment laws of three
families and on both exact orbit walks; a walk whose moves are not Doob
weights raises; the exact completeness check makes few field
operations; an unknown mode raises; and the float Doob a_n floats each
distinct weight once."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walklab import qfield
from walklab.doob import (DoobError, LevelIncrementLaw, ballot_probability,
                          completeness_residual, doob_chain,
                          hitting_time_law, increment_law, max_and_return,
                          return_to_zero)
from walklab.models import ModelSpec, build_model
from walklab.qfield import QuadExt
from walklab.quasi import (a_matrix, induced_chain, mb_ballot_probability,
                           mb_hitting_time_law, mb_max_and_return,
                           parity_schema, perron, schema_from_profile)
from walklab.series import spectral_radius

from oracles import (field_law_walk, field_level_laws, field_orbit_walk,
                     hitting_per_barrier)

LAWS = ([ModelSpec("fixed_end_tree", b=b) for b in range(2, 6)]
        + [ModelSpec("grandparent", b=b) for b in (2, 3)]
        + [ModelSpec("diestel_leader", q=q, r=r)
           for q, r in ((2, 3), (3, 2), (2, 5))])
ORBITS = [(kind, b) for kind in ("one_orbit", "parity") for b in range(2, 6)]


@functools.lru_cache(maxsize=None)
def _law(spec):
    model = build_model(spec)
    return increment_law(model.level_profile(), spectral_radius(model))


@functools.lru_cache(maxsize=None)
def _orbit_chain(kind, b):
    profile = build_model(ModelSpec("fixed_end_tree", b=b)).level_profile()
    schema = (schema_from_profile if kind == "one_orbit"
              else parity_schema)(profile)
    return induced_chain(schema, perron(a_matrix(schema)), exact=True)


def _field_values(xs):
    return all(type(x) is QuadExt for x in xs)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(LAWS), n=st.integers(1, 14), r=st.integers(0, 3))
def test_exact_law_statistics_equal_the_field_walk(spec, n, r):
    law = _law(spec)
    field = field_law_walk(law)
    got = [ballot_probability(law, n, r), max_and_return(law, n, r),
           return_to_zero(law, n)]
    assert _field_values(got)
    assert got == list(field_level_laws(field, n, r))
    if r >= 1:
        tau = hitting_time_law(law, r, n, mode="exact")
        assert _field_values(tau)
        assert tau == hitting_per_barrier(field, r * law.t0_lattice, n)


@settings(max_examples=40, deadline=None)
@given(orbit=st.sampled_from(ORBITS), n=st.integers(1, 12),
       r=st.integers(0, 3))
def test_exact_orbit_statistics_equal_the_field_walk(orbit, n, r):
    """The orbit walks have no public return law: the ladder over every
    window, which sums to P[Y_n = 0], stands in for it."""
    chain = _orbit_chain(*orbit)
    field = field_orbit_walk(chain)
    ballot, top, zero = field_level_laws(field, n, r)
    got = [mb_ballot_probability(chain, n, r), mb_max_and_return(chain, n, r)]
    assert _field_values(got)
    assert got == [ballot, top]
    windows = range(n * max(chain.steps) // chain.t0_lattice + 1)
    assert sum(mb_max_and_return(chain, n, w) for w in windows) == zero
    if r >= 1:
        tau = mb_hitting_time_law(chain, r, n)
        assert _field_values(tau)
        assert tau == hitting_per_barrier(field, r * chain.t0_lattice, n)


def test_walk_that_is_not_doob_raises():
    """A lazy walk in Q(sqrt(2)): its steps 1/4 = c lam sqrt(2)**(+-1)
    make lam irrational, and the holding atom 1/2 is no rational multiple
    of it.  Float mode does not need the Doob form."""
    quarter, half = QuadExt(2, Fraction(1, 4)), QuadExt(2, Fraction(1, 2))
    law = LevelIncrementLaw(atoms=[(-1, quarter), (0, half), (1, quarter)],
                            base=Fraction(2), t0_lattice=1)
    law.validate()
    for call in (lambda mode: ballot_probability(law, 3, 1, mode=mode),
                 lambda mode: max_and_return(law, 4, 0, mode=mode),
                 lambda mode: hitting_time_law(law, 1, 3, mode=mode),
                 lambda mode: return_to_zero(law, 2, mode=mode)):
        with pytest.raises(DoobError, match=r"\(0, 0, 0, .*not c lam s"):
            call("exact")
        assert isinstance(call("float"), (float, np.ndarray))


def test_exact_completeness_makes_few_field_operations(monkeypatch):
    """Grandparent b=2 at n=40: 50,580 `qfield._new` calls when the walk
    stepped field elements."""
    law = _law(ModelSpec("grandparent", b=2))
    calls, new = [], qfield._new
    monkeypatch.setattr(qfield, "_new", lambda *a: calls.append(1) or new(*a))
    assert completeness_residual(law, 40) == 0
    assert 0 < len(calls) <= 2000, len(calls)


MODE_CALLS = {
    "ballot_probability": lambda law, m: ballot_probability(law, 5, 1, m),
    "hitting_time_law": lambda law, m: hitting_time_law(law, 1, 5, m),
    "max_and_return": lambda law, m: max_and_return(law, 5, 1, m),
    "return_to_zero": lambda law, m: return_to_zero(law, 5, m),
    "completeness_residual": lambda law, m: completeness_residual(law, 5, m),
}


@pytest.mark.parametrize("name", list(MODE_CALLS))
def test_unknown_mode_raises(name):
    with pytest.raises(DoobError, match="unknown mode 'exakt'"):
        MODE_CALLS[name](_law(ModelSpec("fixed_end_tree", b=2)), "exakt")


def test_float_doob_series_floats_each_weight_once(monkeypatch):
    """The float a_n equals the half walk of the floated weights bit for
    bit, with at most one `QuadExt.__float__` call per entry of the
    (level step, count) table the weights are drawn from."""
    model = build_model(ModelSpec("grandparent", b=2))
    chain = model.collapse(60)
    dc = doob_chain(chain, spectral_radius(model))
    want = chain._half_walk(60, chain._symmetric(dc.weights.astype(float)))
    calls, to_float = [], QuadExt.__float__
    monkeypatch.setattr(QuadExt, "__float__",
                        lambda x: calls.append(1) or to_float(x))
    got = dc.return_series_float(60)
    assert np.array_equal(got, want)
    table = (2 * chain.t0 + 1) * (max(chain.csr[2]) + 1)
    assert len(calls) <= table < len(dc.weights)


def test_float_doob_series_reads_each_entrys_own_weight():
    """A chain whose weights no longer share one object per (level step,
    count) still walks each entry's own weight: doubling one entry gives
    the half walk of the floated weights, not the unchanged a_n."""
    model = build_model(ModelSpec("grandparent", b=2))
    chain = model.collapse(40)
    dc = doob_chain(chain, spectral_radius(model))
    weights = dc.weights.copy()
    weights[5] = weights[5] * 2
    doubled = dataclasses.replace(dc, weights=weights)
    want = chain._half_walk(40, chain._symmetric(weights.astype(float)))
    got = doubled.return_series_float(40)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, dc.return_series_float(40))

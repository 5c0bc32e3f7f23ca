"""Level-walk statistics against brute-force path enumeration: the exact
i.i.d. DPs of `walklab.doob` for every window, and the float
Markov-additive DPs of `walklab.quasi` on a schema whose Perron vector
is not uniform."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from walklab.doob import (ballot_probability, hitting_time_law,
                          increment_law, max_and_return)
from walklab.models import ModelSpec, build_model
from walklab.quasi import (a_matrix, induced_chain, mb_ballot_probability,
                           mb_hitting_time_law, mb_max_and_return,
                           parse_schema, perron)
from walklab.series import spectral_radius

from oracles import enumerate_chain_statistics, enumerate_statistics

# orbit 1 has degree 4, orbit 2 degree 5; ratios 2 and 1/2
NONUNIFORM_SCHEMA = """\
1 2 2 1 1
1 1 2 1 1
1 1 1 2 2
2 1 1 2 2
2 2 2 1 1
2 2 1 2 2
"""


@functools.lru_cache(maxsize=None)
def _law(family):
    model = build_model(ModelSpec(family, b=2))
    return increment_law(model.level_profile(), spectral_radius(model))


def _same(dp, enumerated, tol=0):
    if enumerated is None:
        return float(dp) == 0
    if tol:
        return abs(float(dp) - float(enumerated)) <= tol
    return dp == enumerated


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 9),
       family=st.sampled_from(["fixed_end_tree", "grandparent"]))
def test_exact_doob_statistics_match_enumeration(n, family):
    law = _law(family)
    t0 = law.t0_lattice
    top = max(j for j, _ in law.atoms)
    windows = range(n * top // t0 + 2)
    taus = [(r, k) for r in windows if r >= 1 for k in range(1, n + 1)]
    res = enumerate_statistics(law, n, windows, windows, taus)
    for r in windows:
        assert _same(ballot_probability(law, n, r, mode="exact"),
                     res.get(("ballot", r))), ("ballot", n, r)
        assert _same(max_and_return(law, n, r, mode="exact"),
                     res.get(("max", r))), ("max", n, r)
        if r >= 1:
            tau = hitting_time_law(law, r, n, mode="exact")
            assert len(tau) == n + 1 and float(tau[0]) == 0
            for k in range(1, n + 1):
                assert _same(tau[k], res.get(("tau", r, k))), ("tau", r, k)


def _mb_statistics(chain, n, windows=range(0, 4)):
    """(key, DP value, enumerated value or None) for the ballot and
    maximum windows and the hitting laws of levels 1 and 2."""
    taus = [(r, k) for r in (1, 2) for k in range(1, n + 1)]
    res = enumerate_chain_statistics(chain, n, windows, windows, taus)
    for r in windows:
        yield (("ballot", n, r), mb_ballot_probability(chain, n, r),
               res.get(("ballot", r)))
        yield (("max", n, r), mb_max_and_return(chain, n, r),
               res.get(("max", r)))
    for r in (1, 2):
        tau = mb_hitting_time_law(chain, r, n)
        for k in range(1, n + 1):
            yield ("tau", n, r, k), tau[k], res.get(("tau", r, k))


def _nonuniform_chain():
    schema = parse_schema(NONUNIFORM_SCHEMA)
    assert schema.degrees == [4, 5]
    pd = perron(a_matrix(schema))
    assert abs(pd.pi[0] - pd.pi[1]) > 0.01  # the eigenvector is not uniform
    return induced_chain(schema, pd, exact=False)


def test_markov_additive_float_dps_match_enumeration():
    chain = _nonuniform_chain()
    # the DP and the enumeration multiply different numbers of rows into
    # an event, so they agree to a few times n times the row-sum error
    tol = 1e-11
    for n in (1, 2, 3, 6, 9, 10):
        for key, dp, enumerated in _mb_statistics(chain, n):
            assert _same(dp, enumerated, tol), key


def test_markov_additive_float_chain_is_stochastic_to_rounding():
    chain = _nonuniform_chain()
    gap = max(abs(float(dp) - float(enumerated or 0))
              for n in range(1, 10)
              for _, dp, enumerated in _mb_statistics(chain, n))
    assert gap <= 1e-13, gap

"""Argument checks of the level-walk DPs of `walklab.doob` and
`walklab.quasi`: a length or window below its least value raises a
ValueError subclass naming the argument, and the least values work."""

from fractions import Fraction

import pytest

from walklab.doob import (DoobError, ballot_probability,
                          completeness_residual, hitting_time_law,
                          increment_law, max_and_return, return_to_zero)
from walklab.quasi import (SchemaError, a_matrix, induced_chain,
                           mb_ballot_probability, mb_hitting_time_law,
                           mb_max_and_return, perron, schema_from_profile)
from walklab.series import spectral_radius


@pytest.fixture(scope="module")
def walks(fixed_end2):
    profile = fixed_end2.level_profile()
    schema = schema_from_profile(profile)
    return {"law": increment_law(profile, spectral_radius(fixed_end2)),
            "chain": induced_chain(schema, perron(a_matrix(schema)),
                                   exact=True)}


# (DP, walk, arguments, the argument out of range)
BAD = [(ballot_probability, "law", (0, 0), "n"),
       (ballot_probability, "law", (4, -1), "r"),
       (max_and_return, "law", (0, 0), "n"),
       (max_and_return, "law", (4, -1), "r"),
       (hitting_time_law, "law", (0, 5), "r"),
       (hitting_time_law, "law", (1, -2), "n_max"),
       (return_to_zero, "law", (-3,), "n"),
       (completeness_residual, "law", (-1,), "n"),
       (mb_ballot_probability, "chain", (0, 0), "n"),
       (mb_ballot_probability, "chain", (4, -1), "r"),
       (mb_max_and_return, "chain", (0, 0), "n"),
       (mb_max_and_return, "chain", (4, -1), "r"),
       (mb_hitting_time_law, "chain", (0, 5), "r"),
       (mb_hitting_time_law, "chain", (1, -2), "n_max")]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("dp, walk, args, name", BAD,
                         ids=[f"{dp.__name__}-{name}"
                              for dp, _, _, name in BAD])
def test_bad_argument_is_named(walks, dp, walk, args, name, mode):
    kwargs = {"mode": mode} if walk == "law" else {}
    with pytest.raises(ValueError, match=rf"\b{name}\b") as err:
        dp(walks[walk], *args, **kwargs)
    assert isinstance(err.value, (DoobError, SchemaError))


def test_least_arguments(walks):
    law, chain = walks["law"], walks["chain"]
    assert return_to_zero(law, 0) == 1
    assert completeness_residual(law, 0) == 0
    assert hitting_time_law(law, 1, 0, mode="exact") == [0]
    assert mb_hitting_time_law(chain, 1, 0) == [0]
    assert ballot_probability(law, 1, 0) == 0
    assert ballot_probability(law, 1, 1) == Fraction(1, 2)
    assert mb_ballot_probability(chain, 1, 1) == Fraction(1, 2)
    assert max_and_return(law, 2, 0) == mb_max_and_return(chain, 2, 0) \
        == Fraction(1, 4)

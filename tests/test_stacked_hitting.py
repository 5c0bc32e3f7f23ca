"""Hitting laws of many barriers from one stacked killed-walk run, against
one run per barrier (`oracles.hitting_per_barrier`): exact on the
fixed-end, grandparent and DL(2,3) increment laws and on orbit walks,
bitwise in float, and the edge cases of no barrier and n_max <= 1."""

import functools
import json

import numpy as np
import pytest

from walklab import cli
from walklab.doob import (_hitting, _law_walk, bound_constant_scan,
                          hitting_time_law, increment_law)
from walklab.models import ModelSpec, build_model
from walklab.quasi import (_orbit_walk, a_matrix, induced_chain,
                           mb_hitting_time_law, parity_schema, parse_schema,
                           perron, schema_from_profile)
from walklab.series import spectral_radius

from oracles import field_law_walk, field_orbit_walk, hitting_per_barrier

SPECS = {"fixed_end": ModelSpec("fixed_end_tree", b=2),
         "grandparent": ModelSpec("grandparent", b=2),
         "dl23": ModelSpec("diestel_leader", q=2, r=3)}

# orbit 1 has degree 4, orbit 2 degree 5: the Perron vector is not uniform
NONUNIFORM_SCHEMA = """\
1 2 2 1 1
1 1 2 1 1
1 1 1 2 2
2 1 1 2 2
2 2 2 1 1
2 2 1 2 2
"""


@functools.lru_cache(maxsize=None)
def _model(name):
    return build_model(SPECS[name])


@functools.lru_cache(maxsize=None)
def _law(name):
    model = _model(name)
    return increment_law(model.level_profile(), spectral_radius(model))


@functools.lru_cache(maxsize=None)
def _orbit_chain(kind):
    profile = _model("fixed_end").level_profile()
    schema = (schema_from_profile if kind == "one_orbit"
              else parity_schema)(profile)
    return induced_chain(schema, perron(a_matrix(schema)), exact=True)


def _walk(name):
    if name in SPECS:
        return _law_walk(_law(name), "exact")
    return _orbit_walk(_orbit_chain(name))


def _field_walk(name):
    """The walk `_walk` counts, with the field-valued weights the oracle
    steps."""
    if name in SPECS:
        return field_law_walk(_law(name))
    return field_orbit_walk(_orbit_chain(name))


WALKS = list(SPECS) + ["one_orbit", "parity"]


@pytest.mark.parametrize("name", WALKS)
def test_stacked_run_equals_one_run_per_barrier_exact(name):
    walk, n = _walk(name), 40
    barriers = [r * walk.t0 for r in range(1, 7)]
    rows = _hitting(walk, barriers, n)
    assert rows.shape == (6, n + 1)
    for b, row in zip(barriers, rows):
        assert row.tolist() == hitting_per_barrier(_field_walk(name), b, n), b


@pytest.mark.parametrize("name", WALKS)
def test_public_hitting_laws_equal_the_oracle(name):
    walk, n = _walk(name), 12
    for r in (1, 3):
        if name in SPECS:
            tau = hitting_time_law(_law(name), r, n, mode="exact")
        else:
            tau = mb_hitting_time_law(_orbit_chain(name), r, n)
        assert isinstance(tau, list)
        assert tau == hitting_per_barrier(_field_walk(name), r * walk.t0,
                                          n), r


@pytest.mark.parametrize("name", WALKS)
@pytest.mark.parametrize("n_max", [0, 1])
def test_short_runs_equal_the_oracle(name, n_max):
    walk = _walk(name)
    barriers = [r * walk.t0 for r in range(1, 4)]
    rows = _hitting(walk, barriers, n_max)
    assert rows.shape == (3, n_max + 1)
    for b, row in zip(barriers, rows):
        assert row.tolist() == hitting_per_barrier(_field_walk(name), b,
                                                   n_max)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n_max", [0, 5])
def test_no_barrier_gives_an_empty_table(mode, n_max):
    rows = _hitting(_law_walk(_law("grandparent"), mode), [], n_max)
    assert rows.shape == (0, n_max + 1)


def test_stacked_run_is_bitwise_in_float():
    walk = _law_walk(_law("grandparent"), "float")
    n, barriers = 600, [r * walk.t0 for r in range(1, 21)]
    rows = _hitting(walk, barriers, n)
    assert rows.dtype == np.float64
    for b, row in zip(barriers, rows):
        assert np.array_equal(row, hitting_per_barrier(walk, b, n)), b
    assert np.array_equal(hitting_time_law(_law("grandparent"), 7, n),
                          rows[6])


def test_orbit_walk_with_two_states_is_bitwise_in_float():
    schema = parse_schema(NONUNIFORM_SCHEMA)
    walk = _orbit_walk(induced_chain(schema, perron(a_matrix(schema)),
                                     exact=False))
    n, barriers = 200, [r * walk.t0 for r in range(1, 9)]
    rows = _hitting(walk, barriers, n)
    for b, row in zip(barriers, rows):
        assert np.array_equal(row, hitting_per_barrier(walk, b, n)), b


def test_scan_sup_tau_reads_the_per_barrier_laws():
    law = _law("grandparent")
    walk = _law_walk(law, "float")
    n_grid, rmax = [50, 120], 8
    scan = bound_constant_scan(law, n_grid, list(range(rmax + 1)))
    ks = np.arange(1, 121)
    want = max(float((np.array(hitting_per_barrier(walk, r * walk.t0, 120)
                               )[1:] * ks ** 1.5).max() / r)
               for r in range(1, rmax + 1))
    assert scan["sup_tau"] == want


def test_ballot_with_no_barrier_exits_0(capsys):
    code = cli.main(["ballot", "--family", "grandparent", "--b", "2",
                     "--n-grid", "20,40", "--rmax", "0"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    head = json.loads(out.splitlines()[0][2:])
    assert head["sup_tau"] == 0.0
    assert len(out.strip().splitlines()) == 2 + 2  # one r = 0 row per n


def test_levels_header_names_the_monte_carlo_arithmetic(capsys):
    code = cli.main(["levels", "--family", "fixed_end_tree", "--b", "2",
                     "--n", "6", "--samples", "50", "--seed", "1"])
    head = json.loads(capsys.readouterr().out.splitlines()[0][2:])
    assert code == cli.EXIT_OK
    assert head["mc_arithmetic"] == "float"
    assert head["arithmetic"] == "exact"  # the exact_visits column

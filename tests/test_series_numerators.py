"""Series as numerators over powers of the degree: one renewal and one
excursion path for exact and float series, checked against the Fraction
and float loops in `oracles`, and fits that refuse bad cells."""

import json
from fractions import Fraction

import numpy as np
import pytest

from oracles import float_renewal, fraction_renewal
from walklab.bridges import BridgeError, excursion_record_law
from walklab.cli import main
from walklab.models import ModelSpec, ball_return_series, build_model
from walklab.series import (NormalizedSeries, ProbabilitySeries, SeriesError,
                            cartesian_series, first_return_probabilities,
                            fit_exponent, renewal_residuals,
                            return_probabilities, stretched_exponential_fit,
                            taboo_first_return)

SPECS = {
    "tree2": ModelSpec("tree", b=2),
    "tree10": ModelSpec("tree", b=10),
    "fixed_end2": ModelSpec("fixed_end_tree", b=2),
    "grandparent2": ModelSpec("grandparent", b=2),
    "grandparent3": ModelSpec("grandparent", b=3),
    "dl23": ModelSpec("diestel_leader", q=2, r=3),
}
N = 80


@pytest.fixture(scope="module", params=sorted(SPECS))
def chain(request):
    return build_model(SPECS[request.param]).collapse(N)


def test_exact_series_are_the_kernel_numerators(chain):
    u = return_probabilities(chain, N)
    f = taboo_first_return(chain, N)
    assert u.exact and u.denom == chain.denom == f.denom
    assert u.numerators.tolist() == [1, *chain.root_walk(N)]
    assert u.values == chain.return_series_exact(N)
    assert f.values == chain.taboo_series_exact(N)


def test_integer_renewal_equals_fraction_oracle(chain):
    u = return_probabilities(chain, N)
    f = first_return_probabilities(u)
    assert f.denom == u.denom and f.exact
    assert f.values == fraction_renewal(u)
    assert all(r == 0 for r in renewal_residuals(u, f))


def test_float_renewal_equals_float_oracle(chain):
    u = return_probabilities(chain, N, mode="float")
    f = first_return_probabilities(u)
    assert not f.exact and f.denom == 1
    assert np.array_equal(f.floats, float_renewal(u))


def test_floats_are_the_rounded_values(chain):
    u = return_probabilities(chain, N)
    for s in (u, first_return_probabilities(u), taboo_first_return(chain, N)):
        values = s.values
        assert all(s.floats[n] == float(values[n]) for n in range(N + 1))
        assert all(s[n] == values[n] for n in range(N + 1))


def test_floats_round_through_the_subnormal_range():
    """Tree b=10: u_n is subnormal from n=1264 and rounds to 0 past it."""
    u = return_probabilities(build_model(SPECS["tree10"]).collapse(1400), 1400)
    values = u.values
    assert all(u.floats[n] == float(values[n]) for n in range(1401))
    assert 0 < u.floats[1300] < 2.3e-308 and u.floats[1400] == 0


def test_fraction_series_keep_their_values():
    vals = [Fraction(1), Fraction(0), Fraction(1, 3), Fraction(0),
            Fraction(5, 27)]
    u = ProbabilitySeries.from_exact(vals, "u")
    assert u.denom == 1 and u.exact and u.period == 2
    assert u.values == vals and u[2] == Fraction(1, 3)
    assert first_return_probabilities(u).values == fraction_renewal(u)


def test_mixed_denominators_raise(tree2):
    chain = tree2.collapse(20)
    u = return_probabilities(chain, 20)
    uf = return_probabilities(chain, 20, mode="float")
    with pytest.raises(SeriesError):
        renewal_residuals(u, first_return_probabilities(uf))
    with pytest.raises(BridgeError):
        excursion_record_law(u, first_return_probabilities(uf), 20)


def test_cartesian_numerators_equal_the_ball(tree2):
    n = 16
    u = return_probabilities(tree2.collapse(n), n)
    mix = cartesian_series(u, 3, u, 3, n)
    assert mix.denom == 6
    prod = build_model(ModelSpec("cartesian", factors=(
        ModelSpec("tree", b=2), ModelSpec("tree", b=2))))
    direct = ball_return_series(prod.enumerate_ball(n // 2), n, prod.degree)
    assert mix.numerators.tolist() == [x * 6 ** k
                                       for k, x in enumerate(direct)]
    with pytest.raises(SeriesError):
        cartesian_series(ProbabilitySeries.from_exact(direct, "u"), 3,
                         u, 3, n)


def _power_law(bad_n=None, bad=0.0):
    vals = np.zeros(401)
    vals[2::2] = np.arange(2, 401, 2, dtype=float) ** -1.5
    if bad_n is not None:
        vals[bad_n] = bad
    return NormalizedSeries(floats=vals, period=2)


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1e-30, float("inf")])
def test_fits_name_a_bad_cell(bad):
    a = _power_law(120, bad)
    with pytest.raises(SeriesError, match="a_120 "):
        fit_exponent(a, 50, 200)
    with pytest.raises(SeriesError, match="a_120 "):
        fit_exponent(a, 25, 100, half_index=True)
    with pytest.raises(SeriesError, match="a_120 "):
        stretched_exponential_fit(a, 30, 150)
    # outside the window the cell is not read
    assert abs(fit_exponent(a, 130, 200)[0] + 1.5) < 1e-9


def test_fits_skip_the_zeros_of_period_two():
    a = _power_law()
    assert abs(fit_exponent(a, 51, 199)[0] + 1.5) < 1e-9
    assert np.isfinite(stretched_exponential_fit(a, 31, 149)).all()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fit_on_underflowed_cells_exits_2(capsys):
    code, out, err = run(capsys, "fit", "--family", "tree", "--b", "10",
                         "--window", "1300:1400", "--mode", "float")
    assert code == 2 and out == ""
    # u_n underflows to 0 past n=1328: a_1330 is the first cell fitted
    assert "a_1330 = 0.0" in err


def _header(out):
    first = out.splitlines()[0]
    return json.loads(first[2:]) if first.startswith("# ") \
        else json.loads(out)["provenance"]


@pytest.mark.parametrize("argv, arithmetic", [
    (["series", "--family", "tree", "--b", "2", "--nmax", "6"], "exact"),
    (["series", "--family", "tree", "--b", "2", "--nmax", "6",
      "--mode", "float"], "float"),
    (["fit", "--family", "tree", "--b", "2", "--window", "20:80"], "float"),
    (["fit", "--family", "tree", "--b", "2", "--window", "20:80",
      "--mode", "exact"], "exact"),
    (["ballot", "--family", "fixed_end_tree", "--b", "2", "--n-grid", "20",
      "--rmax", "1"], "float"),
    (["levels", "--family", "fixed_end_tree", "--b", "2", "--n", "6",
      "--samples", "50", "--seed", "1"], "exact"),
    (["excursions", "--family", "tree", "--b", "2", "--n", "40"], "exact"),
    (["excursions", "--family", "tree", "--b", "2", "--n", "100"], "float"),
])
def test_provenance_names_the_arithmetic_that_ran(capsys, argv, arithmetic):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _header(out)["arithmetic"] == arithmetic


def test_quasi_provenance_is_float(capsys, tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("1 1 2 1 1\n1 1 1 2 2\n")
    code, out, _ = run(capsys, "quasi", "--schema", str(path))
    assert code == 0 and _header(out)["arithmetic"] == "float"

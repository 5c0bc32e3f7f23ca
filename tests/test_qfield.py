"""Field axioms and ordering of the exact quadratic arithmetic."""

import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from walklab import qfield
from walklab.qfield import QuadExt, sqrt_exact

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)
elements = st.builds(lambda a, b: QuadExt(2, a, b), rationals, rationals)


def test_perfect_square_discriminant_folds():
    x = QuadExt(9, 1, 2)
    assert x.is_rational()
    assert x.as_fraction() == 7


def test_sqrt_exact_normalizes_discriminant():
    r = sqrt_exact(8)
    assert r.d == 2 and r.b == 2
    half = sqrt_exact(Fraction(1, 2))
    assert half.d == 2
    assert (half + sqrt_exact(2)) == QuadExt(2, 0, Fraction(3, 2))
    assert sqrt_exact(4) == 2
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)


def test_sqrt_exact_squares_back():
    for q in [2, 3, 8, Fraction(1, 2), Fraction(24, 25), Fraction(9, 16)]:
        r = sqrt_exact(q)
        assert r * r == Fraction(q)


@given(elements, elements)
def test_commutativity(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(elements, elements, elements)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(elements)
def test_inverse(x):
    if x == 0:
        return
    assert x * x.inverse() == 1
    assert x ** 3 * x ** -3 == 1


@given(elements)
def test_sign_agrees_with_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


@given(elements, elements)
def test_order_total(x, y):
    assert (x < y) or (x == y) or (y < x)
    if x < y:
        assert float(x) < float(y) + 1e-9


def test_mixed_discriminants_rejected():
    with pytest.raises(ValueError):
        QuadExt(2, 0, 1) + QuadExt(3, 0, 1)


def test_rational_valued_elements_mix_freely():
    x = QuadExt(2, Fraction(1, 3), 0)
    y = QuadExt(3, 0, 1)
    assert (x + y) == QuadExt(3, Fraction(1, 3), 1)
    assert hash(QuadExt(2, 5, 0)) == hash(QuadExt(7, 5, 0))


def test_float_and_mpf():
    import mpmath
    x = QuadExt(2, 1, 1)
    assert math.isclose(float(x), 1 + math.sqrt(2))
    assert abs(x.to_mpf(mpmath.mp) - float(x)) < 1e-12


def outcome(op, x, y):
    """``op(x, y)`` as comparable data: a field element's integers and
    hash, a bool as it is, or the name of the error raised."""
    try:
        r = op(x, y)
    except ZeroDivisionError as e:
        return type(e).__name__
    if isinstance(r, QuadExt):
        return r.d, r._a, r._b, r._den, hash(r)
    return r


OPS = (operator.add, operator.sub, operator.mul, operator.truediv,
       operator.eq, operator.lt)


@pytest.mark.parametrize("n", [0, 1, -7, 2 ** 64 + 3, -(3 ** 50)])
def test_int_operands_match_their_fractions(n):
    """An int operand skips the Fraction; on either side of each operator
    it gives the element, the hash or the error that Fraction(n) gives."""
    for x in (QuadExt(2, Fraction(3, 5), -2), QuadExt(3, 7), sqrt_exact(5)):
        for op in OPS:
            assert outcome(op, x, n) == outcome(op, x, Fraction(n))
            assert outcome(op, n, x) == outcome(op, Fraction(n), x)


def test_only_int_operands_skip_the_fraction():
    """`bool` is an int subclass and still takes the Rational path."""
    x = sqrt_exact(2)
    with mock.patch.object(qfield, "Fraction", wraps=Fraction) as spy:
        assert x * 3 - x == 2 * x and spy.call_count == 0
        assert x * True == x and x + False == x
        assert spy.call_count == 2

"""Integer-triple field arithmetic against the Fraction-pair reference,
and its float and mpmath values against mpmath at enough bits."""

import math
from fractions import Fraction

import mpmath
from hypothesis import example, given, strategies as st

from oracles import QuadRef
from walklab.qfield import QuadExt

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=40)
discriminants = st.sampled_from([2, 3, 6])


def pair(D, a, b):
    return QuadExt(D, a, b), QuadRef(D, a, b)


def same(x, ref):
    return (isinstance(x, QuadExt) and x.a == ref.a and x.b == ref.b
            and (ref.b == 0 or x.d == ref.D))


@given(discriminants, rationals, rationals, rationals, rationals,
       st.integers(-3, 3))
def test_ring_ops_match_reference(D, a, b, c, e, k):
    x, X = pair(D, a, b)
    y, Y = pair(D, c, e)
    assert same(x + y, X + Y)
    assert same(x - y, X - Y)
    assert same(x * y, X * Y)
    assert same(-x, -X)
    assert same(x + k, X + k) and same(k + x, X + k)
    assert same(x * k, X * k) and same(k * x, X * k)
    assert same(x - c, X - c) and same(c - x, -(X - c))
    if Y.a or Y.b:
        assert same(x / y, X / Y)
        assert same(y.inverse(), Y.inverse())
    if k >= 0 or X.a or X.b:
        assert same(x ** k, X ** k)


@given(discriminants, rationals, rationals, rationals, rationals)
def test_eq_hash_sign_float_match_reference(D, a, b, c, e):
    x, X = pair(D, a, b)
    y, Y = pair(D, c, e)
    assert (x == y) == (X == Y)
    if x == y:
        assert hash(x) == hash(y)
    assert x.sign() == X.sign()
    if X.a * X.b < 0:
        assert_float_close(x)
    else:
        assert float(x) == float(X)
    diff = (X - Y).sign()
    assert (x < y, x <= y, x > y, x >= y) == (
        diff < 0, diff <= 0, diff > 0, diff >= 0)
    r = QuadExt(D, a, 0)
    assert r == a and hash(r) == hash(a)
    assert len({r, a}) == 1


def reference_value(x):
    """a + b sqrt(D) in mpmath at twice the bits of x's integers plus 160:
    |a + b sqrt(D)| >= 1 / (den (|a| + |b| sqrt(D))) for integers a, b and
    den, so the sum cancels fewer bits than that."""
    a, b = x.a, x.b
    bits = 2 * max(abs(a.numerator), abs(b.numerator), a.denominator,
                   b.denominator).bit_length() + 160
    with mpmath.workprec(bits):
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(x.d))


def assert_float_close(x):
    """float(x) within 6 2**-53 relative of the value, each rounding
    adding at most 2**-53: the conjugate form divides q = (a^2 - D b^2) /
    (den a), one rounding, by 1 - t, t = (b/a) sqrt(D) with three, which
    a sum of two terms of one sign does not magnify, and the sum and the
    division round once each.  to_mpf at 113 bits is within 2**-100."""
    ref = reference_value(x)
    with mpmath.workprec(200):
        assert abs(mpmath.mpf(float(x)) - ref) <= 6 * 2.0 ** -53 * abs(ref)
    with mpmath.workprec(113):
        got = x.to_mpf(mpmath.mp)
    with mpmath.workprec(200):
        assert abs(got - ref) <= 2.0 ** -100 * abs(ref)


@given(st.sampled_from([2, 3, 6, 7]), st.integers(1, 2 ** 400),
       st.integers(1, 2 ** 64), st.integers(0, 1), st.booleans())
@example(2, 2 ** 200 + 12345, 3, 0, False)
def test_float_of_cancelling_elements(D, q, den, up, negate):
    """p - q sqrt(D) / den with p = isqrt(D q**2) (+1): a and b sqrt(D)
    agree in about the bits of q, which a plain sum of floats loses."""
    p = math.isqrt(D * q * q) + up
    x = QuadExt(D, Fraction(p, den), Fraction(-q, den))
    assert_float_close(-x if negate else x)


@given(rationals, rationals)
def test_discriminant_reduced_to_squarefree(a, b):
    assert QuadExt(8, a, b) == QuadExt(2, a, 2 * b)
    assert QuadExt(Fraction(3, 4), a, b) == QuadExt(3, a, b / 2)
    assert QuadExt(12, a, b).d == 3


def test_rational_value_hashes_like_its_fraction():
    x = QuadExt(2, Fraction(1, 2), 0)
    y = Fraction(1, 2)
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    assert len({QuadExt(2, 3, 0), QuadExt(5, 3, 0), 3}) == 1

"""Integer-triple field arithmetic against the Fraction-pair reference."""

from fractions import Fraction

from hypothesis import given, strategies as st

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
    assert float(x) == float(X)
    diff = (X - Y).sign()
    assert (x < y, x <= y, x > y, x >= y) == (
        diff < 0, diff <= 0, diff > 0, diff >= 0)
    r = QuadExt(D, a, 0)
    assert r == a and hash(r) == hash(a)
    assert len({r, a}) == 1


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

"""Exact arithmetic in the quadratic field Q(sqrt(d)).

Transition probabilities of the square-root-biased walk involve sqrt(b)
for the level-ratio base b, so row sums, reversibility and return values
can be checked exactly by computing in Q(sqrt(b)) instead of floats.

An element is stored as three integers (a, b, den) standing for
(a + b*sqrt(D)) / den, with D squarefree, den > 0 and gcd(a, b, den) = 1.
The representation is canonical, so equality and hashing compare the
integers; the field operations need one gcd each and no Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

_gcd = math.gcd


def _squarefree_part(n: int) -> tuple[int, int]:
    """n = s**2 * D with D squarefree; returns (s, D). Trial division."""
    s, D = 1, 1
    i = 2
    while i * i <= n:
        if n % i == 0:
            e = 0
            while n % i == 0:
                n //= i
                e += 1
            s *= i ** (e // 2)
            if e % 2:
                D *= i
        i += 1
    return s, D * n


def _split_root(d) -> tuple[int, Fraction]:
    """sqrt(d) = c * sqrt(D) with D squarefree; returns (D, c)."""
    d = Fraction(d)
    if d < 0:
        raise ValueError("negative discriminant")
    if d == 0:
        return 1, Fraction(0)
    # sqrt(n/m) = sqrt(n*m)/m
    m = d.denominator
    s, D = _squarefree_part(d.numerator * m)
    return D, Fraction(s, m)


def _raw(d: int, a: int, b: int, den: int) -> "QuadExt":
    """Element from integers already in lowest terms with den > 0."""
    x = object.__new__(QuadExt)
    x.d = d
    x._a = a
    x._b = b
    x._den = den
    return x


def _new(d: int, a: int, b: int, den: int) -> "QuadExt":
    """Element from integers with den > 0, reduced by one gcd."""
    g = _gcd(a, b, den)
    if g != 1:
        a //= g
        b //= g
        den //= g
    return _raw(d, a, b, den)


class QuadExt:
    """A number a + b*sqrt(d) with a, b, d rational and d >= 0 fixed.

    ``d`` is reduced to its squarefree part D when the element is built
    (sqrt(8) is stored as 2*sqrt(2)); if d is a perfect square the
    irrational part is folded into the rational part, so equality
    comparisons stay meaningful.  ``a`` and ``b`` read as Fractions, the
    coefficients of 1 and sqrt(D).
    """

    __slots__ = ("d", "_a", "_b", "_den")

    def __init__(self, d, a=0, b=0):
        D, c = _split_root(d)
        a = Fraction(a)
        b = Fraction(b) * c
        if D == 1:
            a, b = a + b, Fraction(0)
        den = math.lcm(a.denominator, b.denominator)
        self.d = D
        self._a = a.numerator * (den // a.denominator)
        self._b = b.numerator * (den // b.denominator)
        self._den = den

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._den)

    # ---- helpers -------------------------------------------------

    def _lift(self, other):
        """A rational operand as an element of this field."""
        if isinstance(other, Rational):
            q = Fraction(other)
            return _raw(self.d, q.numerator, 0, q.denominator)
        return NotImplemented

    def _field(self, o: "QuadExt") -> int:
        """Discriminant carried by whichever operand is irrational."""
        if self._b:
            if o._b and o.d != self.d:
                raise ValueError(f"mixed discriminants {self.d} and {o.d}")
            return self.d
        return o.d

    # ---- ring operations -----------------------------------------

    def __add__(self, other):
        if type(other) is not QuadExt:
            if type(other) is int and not other:
                return self  # sum() and zero-filled accumulators start at 0
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other, self._field(other))

    __radd__ = __add__

    def __neg__(self):
        return _neg(self)

    def __sub__(self, other):
        if type(other) is not QuadExt:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, _neg(other), self._field(other))

    def __rsub__(self, other):
        return _neg(self) + other

    def __mul__(self, other):
        if type(other) is not QuadExt:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return _mul(self, other, self._field(other))

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _inv(self)

    def __truediv__(self, other):
        if type(other) is not QuadExt:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return _mul(self, _inv(other), self._field(other))

    def __rtruediv__(self, other):
        return _inv(self) * other

    def __pow__(self, k: int):
        if k < 0:
            return _inv(self) ** (-k)
        d = self.d
        out = _raw(d, 1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = _mul(out, base, d)
            k >>= 1
            if k:
                base = _mul(base, base, d)
        return out

    # ---- comparisons and conversions -----------------------------

    def __eq__(self, other):
        if type(other) is not QuadExt:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        self._field(other)  # raises on mixed discriminants
        return (self._a == other._a and self._b == other._b
                and self._den == other._den)

    def __hash__(self):
        # a rational value hashes like its Fraction, whatever its d
        if not self._b:
            if self._den == 1:
                return hash(self._a)
            return hash(Fraction(self._a, self._den))
        return hash((self._a, self._b, self._den, self.d))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self._a, self._b
        if b == 0:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # a and b have opposite signs: compare a^2 with d*b^2
        lhs, rhs = a * a, self.d * b * b
        if a > 0:  # b < 0
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def _cmp(self, other):
        """sign(self - other), or NotImplemented."""
        if type(other) is not QuadExt:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, _neg(other), self._field(other)).sign()

    def __lt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return s if s is NotImplemented else s >= 0

    def is_rational(self) -> bool:
        return self._b == 0

    def as_fraction(self) -> Fraction:
        if self._b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is
        return self._a / self._den + self._b / self._den * math.sqrt(self.d)

    def to_mpf(self, mp):
        """High precision value using an mpmath context."""
        a, b = self.a, self.b
        return mp.mpf(a.numerator) / a.denominator + (
            mp.mpf(b.numerator) / b.denominator) * mp.sqrt(mp.mpf(self.d))

    def __repr__(self):
        return f"QuadExt({self.d}, {self.a}, {self.b})"


def _add(x: QuadExt, y: QuadExt, d: int) -> QuadExt:
    den = x._den
    if den == y._den:
        return _new(d, x._a + y._a, x._b + y._b, den)
    return _new(d, x._a * y._den + y._a * den, x._b * y._den + y._b * den,
                den * y._den)


def _neg(x: QuadExt) -> QuadExt:
    return _raw(x.d, -x._a, -x._b, x._den)


def _mul(x: QuadExt, y: QuadExt, d: int) -> QuadExt:
    a1, b1, a2, b2 = x._a, x._b, y._a, y._b
    return _new(d, a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2,
                x._den * y._den)


def _inv(x: QuadExt) -> QuadExt:
    # den / (a + b sqrt(d)) = den (a - b sqrt(d)) / (a^2 - d b^2)
    a, b, den = x._a, x._b, x._den
    norm = a * a - x.d * b * b
    if norm == 0:
        raise ZeroDivisionError("zero element of Q(sqrt(d))")
    if norm < 0:
        norm, den = -norm, -den
    return _new(x.d, den * a, -den * b, norm)


def integer_pairs(xs: list) -> tuple:
    """(A, B, L, D) for elements ``xs`` of one Q(sqrt(D)): L x = A[i] +
    B[i] sqrt(D) for the i-th x, with A and B lists of ints and L the
    least common denominator of ``xs``."""
    L = math.lcm(*{x._den for x in xs})
    return ([x._a * (L // x._den) for x in xs],
            [x._b * (L // x._den) for x in xs], L, xs[0].d)


def sqrt_exact(q) -> QuadExt:
    """sqrt(q) as c*sqrt(D) with D a squarefree integer.

    Normalizing the discriminant lets square roots of different rationals
    (powers of a common base, inverses) combine in one quadratic field.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    return QuadExt(q, 0, 1)

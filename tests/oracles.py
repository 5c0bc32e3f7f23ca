"""Independent brute-force oracles used by the acceptance suite.

The level-walk statistics are recomputed here by exhaustive enumeration
over all increment sequences, with exact arithmetic reassembled from
atom-count histograms.  Nothing below shares code with the dynamic
programs under test.  `QuadRef` is a plain reference for the exact
quadratic-field arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def enumerate_statistics(law, n, r_ballot=(), r_max=(), r_tau=()):
    """Exact laws of ballot / max-and-return / hitting events by listing
    every atom sequence of length n.

    Returns a dict keyed by ("ballot", r), ("max", r) or ("tau", r, k).
    Sequences are enumerated in chunks as base-K digit arrays; surviving
    sequences are tallied by their atom-count vector, and each tally is
    turned into an exact probability since the chance of a sequence
    depends only on how often each atom occurs.
    """
    atoms = law.atoms
    K = len(atoms)
    steps_arr = np.array([j for j, _ in atoms], dtype=np.int64)
    probs = [p for _, p in atoms]
    t0 = law.t0_lattice
    span = n + 1

    hists = {}

    def add(key, codes):
        h = np.bincount(codes, minlength=span ** 3)
        if key in hists:
            hists[key] += h
        else:
            hists[key] = h

    total = K ** n
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digs = np.empty((n, len(idx)), dtype=np.int64)
        tmp = idx.copy()
        for pos in range(n):
            digs[pos] = tmp % K
            tmp //= K
        Y = np.cumsum(steps_arr[digs], axis=0)
        codes = np.zeros(len(idx), dtype=np.int64)
        mult = 1
        for v in range(min(K, 3)):
            codes += mult * (digs == v).sum(axis=0)
            mult *= span
        positive = (Y[:-1] > 0).all(axis=0) if n > 1 else \
            np.ones(len(idx), dtype=bool)
        M = np.maximum(Y.max(axis=0), 0)
        for r in r_ballot:
            mask = positive & (Y[-1] >= r * t0) & (Y[-1] < (r + 1) * t0)
            add(("ballot", r), codes[mask])
        for r in r_max:
            mask = (Y[-1] == 0) & (M >= r * t0) & (M < (r + 1) * t0)
            add(("max", r), codes[mask])
        for r, k in r_tau:
            hit = Y >= r * t0
            first = np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, 0)
            add(("tau", r, k), codes[first == k])

    powers = [[probs[v] ** c for c in range(n + 1)] for v in range(K)]

    def reassemble(h):
        acc = None
        for code in np.nonzero(h)[0]:
            code = int(code)
            counts = []
            rem = code
            for _ in range(min(K, 3)):
                counts.append(rem % span)
                rem //= span
            if K > 3:
                counts.append(n - sum(counts))
            elif K == 2:
                counts = [counts[0], n - counts[0]]
                counts += []
            term = int(h[code])
            for v, c in zip(range(K), counts):
                term = term * powers[v][c]
            acc = term if acc is None else acc + term
        return acc

    out = {}
    for key, h in hists.items():
        out[key] = reassemble(h)
    return out


def enumerate_pm1(law, n, r_ballot=(), r_max=(), r_tau=()):
    """Same statistics for a two-atom law via direct itertools listing."""
    atoms = law.atoms
    t0 = law.t0_lattice
    out = {}
    for key in [("ballot", r) for r in r_ballot] + \
               [("max", r) for r in r_max] + \
               [("tau", r, k) for r, k in r_tau]:
        out[key] = None
    for seq in itertools.product(range(len(atoms)), repeat=n):
        path = []
        y = 0
        prob = None
        for v in seq:
            y += atoms[v][0]
            path.append(y)
            prob = atoms[v][1] if prob is None else prob * atoms[v][1]
        m_top = max(0, max(path))
        for r in r_ballot:
            if all(p > 0 for p in path[:-1]) and \
                    r * t0 <= path[-1] < (r + 1) * t0:
                key = ("ballot", r)
                out[key] = prob if out[key] is None else out[key] + prob
        for r in r_max:
            if path[-1] == 0 and r * t0 <= m_top < (r + 1) * t0:
                key = ("max", r)
                out[key] = prob if out[key] is None else out[key] + prob
        for r, k in r_tau:
            first = next((i + 1 for i, p in enumerate(path)
                          if p >= r * t0), 0)
            if first == k:
                key = ("tau", r, k)
                out[key] = prob if out[key] is None else out[key] + prob
    return out


class QuadRef:
    """a + b*sqrt(D) with a, b Fractions and D a fixed squarefree integer.

    The textbook representation, kept as a reference for the integer
    triples of `walklab.qfield`; it shares no code with that module.
    """

    def __init__(self, D, a, b=0):
        self.D, self.a, self.b = D, Fraction(a), Fraction(b)

    def _lift(self, other):
        if isinstance(other, QuadRef):
            assert other.D == self.D
            return other
        return QuadRef(self.D, other)

    def __add__(self, other):
        o = self._lift(other)
        return QuadRef(self.D, self.a + o.a, self.b + o.b)

    def __neg__(self):
        return QuadRef(self.D, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        return QuadRef(self.D, self.a * o.a + self.D * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - self.D * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError
        return QuadRef(self.D, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        out = QuadRef(self.D, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._lift(other)
        return self.a == o.a and self.b == o.b

    __hash__ = None

    def sign(self):
        """Sign by squaring: a + b sqrt(D) > 0 iff a > -b sqrt(D)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        bigger_a = a * a > self.D * b * b
        return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

"""Finite truncations of orbit-collapsed walk chains and their DPs.

A collapsed chain records, for each stabilizer orbit, how many neighbors
of a representative vertex land in each orbit.  All transition
probabilities share the denominator ``denom`` (the graph degree), so the
n-step distribution can be carried as integer numerators over denom**n.

The truncation stores the counts once, as CSR arrays ``csr = (indptr,
targets, counts)``: row i lists its targets and counts in
``targets[indptr[i]:indptr[i+1]]`` and the same slice of ``counts``.  A
ball (`walklab.models.ExplicitGraph`) is the chain of the trivial
partition, with unit counts.

One kernel, `CollapsedChain.walk`, counts every walk from these arrays,
over the light cone only: u_n, the taboo f_n, the Doob h-walk, the
bridge tables, ball series and walks that avoid a vertex.  The exact
series of `walklab.series` are `root_walk`'s numerators over denom**n.
An integer walk read at one state (`walk_entries`: u_n, f_n, ball
series, avoiding counts, the Doob h-walk as integer pairs) steps int64
residues modulo a few primes, by the same CSR matvec as the float walk,
reduced only every r steps, and rebuilds each entry by the Chinese
remainder theorem.  It is exact because each prime has W**r (p - 1) <
2**63, W the largest row sum of |weights|, so no int64 sum overflows
between reductions; the primes' product exceeds 2 |start| C**n, C the
largest column sum, which bounds every |entry|; and the symmetric
representative is taken.  The bridge F/G tables are whole residue walks.
The Doob transform keeps its weights as one array in ``csr`` entry
order.  The per-row lists ``edges`` of (j, count) pairs are a view
built on first use, read only by tests and the benchmark tracer.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools


@dataclass
class CollapsedChain:
    states: Sequence     # state per number, as the family writes it
    csr: tuple           # (indptr, targets, counts): array("q"), array("i") x2
    denom: int           # common denominator of every row (graph degree)
    level: list          # lattice level per state
    level_base: Optional[Fraction]
    horizon: int         # u_n exact for n <= horizon
    depth: list          # BFS depth of each state from the root
    t0: int              # largest level step across an edge (1 if none)
    root: int = 0
    _matrix: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _edges: Optional[list] = field(default=None, repr=False)
    _pull: Optional[tuple] = field(default=None, repr=False)
    _int_pull: Optional[tuple] = field(default=None, repr=False)
    # bridge length n -> occupation numerators, memoized by `bridges`
    occupation: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.states)

    @property
    def edges(self) -> list:
        """edges[i] = list of (j, count); the counts of a full row sum to
        denom.  Built from ``csr`` on first use, read only by tests and the
        benchmark tracer (the Doob weights are a ``csr``-order array)."""
        if self._edges is None:
            indptr, targets, counts = self.csr
            targets, counts = targets.tolist(), counts.tolist()
            self._edges = [list(zip(targets[a:b], counts[a:b]))
                           for a, b in zip(indptr, indptr[1:])]
        return self._edges

    @property
    def radius(self) -> int:
        return self.horizon // 2

    # ---- the walk kernel ------------------------------------------

    def cone(self, steps_left: int) -> int:
        """Number of states within ``steps_left`` steps of the root.

        States are numbered in BFS order, so these are a prefix.  A state
        at depth d needs d steps to return to the root, so with k steps
        left only the first ``cone(k)`` states can still send mass there.
        """
        return bisect_right(self.depth, steps_left)

    def pull_rows(self, weights=None) -> tuple:
        """Transposed rows ``(indptr, sources, weights)``: row j lists the
        states i with an entry i -> j, ascending (the pattern of `matrix`),
        with ``weights`` given per entry in ``csr`` order and carried over
        by `transpose_csr` of the entry numbers.  By default they are the
        counts, kept on the chain."""
        if weights is None and self._pull is not None:
            return self._pull
        indptr, targets, counts = self.csr
        t = transpose_csr((indptr, targets,
                           np.arange(len(targets), dtype=np.int32)))
        # int32 indices halve the pattern's memory on large balls
        rows = (t.indptr.astype(np.int64), t.indices.astype(np.int32))
        if weights is not None:
            return *rows, weights[t.data]
        self._pull = (*rows, np.asarray(counts)[t.data])
        return self._pull

    def walk(self, n_max: int, start, rows: tuple,
             source: Optional[int] = None, target: Optional[int] = None,
             primes: Optional[tuple] = None):
        """Yield w_1..w_{n_max}: w_0 = start * e_source (default the root)
        and w_n[r] = sum of data[k] * w_{n-1}[idx[k]] over the entries k of
        row r of ``rows = (indptr, idx, data)``, such as `pull_rows` with
        weights (w_n = w_{n-1} P).  The walk owns two buffers and yields
        them in turn: the caller may zero entries of a yielded vector
        before the next step, and copies what it keeps.

        Float64 data steps with scipy's CSR matvec.  Int64 data with
        ``primes = (ps, r)`` steps as (states, k) residues mod the k primes
        ps by its CSR matvecs, reduced by ``np.fmod`` every r steps (see
        `walk_entries`).  Any other data raises TypeError.
        Step n computes only the rows within min(depth[source] + n,
        depth[target] + n_max - n) of the root, a BFS prefix, where
        ``target`` (default ``source``) is the state the walk must reach
        by step n_max: the other rows are unreachable from the source in
        n steps or cannot reach the target in the n_max - n steps left,
        and are 0: before a step, a buffer's rows from its last step are
        zeroed too.  An edge changes depth by at most 1, so a kept
        row reads only the kept rows of the step before and true zeros, in
        the order of a full product: every entry read at the target is the
        same to the bit.
        """
        indptr, idx, data = rows
        if np.asarray(data).dtype != (np.int64 if primes else np.float64):
            raise TypeError("walk steps float64 data, or int64 data with "
                            f"primes, not {np.asarray(data).dtype}")
        ns = len(self.depth)
        source = self.root if source is None else source
        target = source if target is None else target
        reach, left = self.depth[source], self.depth[target] + n_max
        # csr_matvec converts mismatched index arrays on every call
        itype = np.promote_types(indptr.dtype, idx.dtype)
        indptr, idx = (a.astype(itype, copy=False) for a in (indptr, idx))
        if primes is None:
            w, nw = np.zeros((2, ns))
            w[source] = start
        else:
            primes, lazy = primes
            mod = np.array(primes, dtype=np.int64)
            w, nw = np.zeros((2, ns, len(primes)), dtype=np.int64)
            w[source] = [start % p for p in primes]
        top, ntop = source + 1, 0  # w and nw are 0 from these rows on
        for n in range(1, n_max + 1):
            m = self.cone(min(reach + n, left - n))
            nw[:max(m, ntop)] = 0
            if primes is None:
                _sparsetools.csr_matvec(m, ns, indptr, idx, data, w, nw)
            else:
                _sparsetools.csr_matvecs(m, ns, len(primes), indptr, idx,
                                         data, w, nw)
                if n % lazy == 0:  # fmod keeps the sign: |residue| < p
                    np.fmod(nw[:m], mod, out=nw[:m])
            w, nw, top, ntop = nw, w, m, top
            yield w

    def walk_entries(self, n_max: int, start=1, rows: Optional[tuple] = None,
                     source: Optional[int] = None,
                     target: Optional[int | slice] = None,
                     kill: Optional[int] = None) -> list:
        """w_n[target] for n = 1..n_max of `walk` (``target`` default the
        source, or a slice of states at one depth, read as a list); after
        each read the mass at ``kill`` is removed.

        An integer walk (integer ``start`` and data) steps residues and
        returns Python ints, exact as the module docstring argues:
        ||w_n||_1 <= |start| C**n, and removing mass only lowers it.
        Raises ValueError when W leaves no room for primes of
        ``_MIN_PRIME_BITS`` bits.  Any other walk needs float64 data.
        """
        source = self.root if source is None else source
        target = source if target is None else target
        primes = None
        if isinstance(start, (int, np.integer)) and (
                rows is None or _integer_data(rows[2])):
            if rows is None:  # the counts: ints, kept on the chain
                if self._int_pull is None:
                    self._int_pull = _integer_rows(self.pull_rows(),
                                                   len(self.depth))
                rows, W, C = self._int_pull
            else:
                rows, W, C = _integer_rows(rows, len(self.depth))
            primes = _residue_primes(W, abs(int(start)) * C ** n_max)
            primes = primes, _lazy_steps(W)
        elif rows is None:
            raise TypeError(f"counts need an integer start, not {start!r}")
        at = target.start if isinstance(target, slice) else target
        reads = []
        for w in self.walk(n_max, start, rows, source, at, primes):
            reads.append(w[target].tolist())  # a copy: w is reused
            if kill is not None:
                w[kill] = 0
        return reads if primes is None else _crt(reads, primes[0])

    def root_walk(self, n_max: int, start=1, rows: Optional[tuple] = None,
                  taboo: bool = False) -> list:
        """Root entries of w_1..w_{n_max} of `walk` from the root, by
        `walk_entries`; with ``taboo`` the root's mass is removed after
        each is read."""
        self._check_horizon(n_max)
        return self.walk_entries(n_max, start, rows,
                                 kill=self.root if taboo else None)

    def return_series_exact(self, n_max: int) -> list:
        """u_n for n = 0..n_max as exact Fractions."""
        return [Fraction(1)] + [
            Fraction(x, self.denom ** n)
            for n, x in enumerate(self.root_walk(n_max), 1)]

    def taboo_series_exact(self, n_max: int) -> list:
        """First-return probabilities f_n via the taboo DP: the walk is
        killed on every visit to the root, so the mass that arrives there
        at step n is the first-return probability."""
        return [Fraction(0)] + [
            Fraction(x, self.denom ** n)
            for n, x in enumerate(self.root_walk(n_max, taboo=True), 1)]

    # ---- float dynamics ------------------------------------------

    def matrix(self) -> sparse.csr_matrix:
        """Column-stochastic float transition matrix P[j, i] = p(i -> j)."""
        if self._matrix is None:
            indptr, targets, counts = self.csr
            self._matrix = transpose_csr((
                indptr, targets,
                np.asarray(counts) * (1.0 / self.denom)))
        return self._matrix

    def float_root_walk(self, P, n_max: int, taboo: bool = False):
        """Root entries of w_0..w_{n_max}, w_n = P w_{n-1}, w_0 = e_root,
        for a CSR float matrix P[j, i] = p(i -> j) with this chain's
        edges, by `walk` over P's rows; ``taboo`` as in `root_walk`, with
        w_0 counted as no return.
        """
        ns = len(self.depth)
        # the kernel trusts its row count: a matrix of another size or
        # format would be read out of bounds or transposed
        if P.format != "csr" or P.shape != (ns, ns):
            raise ValueError(f"need a {ns}x{ns} CSR matrix, got "
                             f"{P.shape[0]}x{P.shape[1]} {P.format}")
        return np.array([0.0 if taboo else 1.0] + self.root_walk(
            n_max, 1.0, (P.indptr, P.indices, P.data), taboo))

    def return_series_float(self, n_max: int) -> np.ndarray:
        return self.float_root_walk(self.matrix(), n_max)

    def taboo_series_float(self, n_max: int) -> np.ndarray:
        return self.float_root_walk(self.matrix(), n_max, taboo=True)

    def _check_horizon(self, n_max: int) -> None:
        if n_max > self.horizon:
            raise ValueError(
                f"chain truncated for horizon {self.horizon}, asked for {n_max}")


def transpose_csr(csr) -> sparse.csr_matrix:
    """Sparse P[j, i] = data[k] for the entries k of row i of the CSR
    triple ``csr = (indptr, targets, data)``, numeric data of any dtype:
    the triple is P in CSC form, converted once to CSR, so row j lists
    its entries in ascending i and, within i, in ``csr`` order."""
    indptr, targets, weights = csr
    n = len(indptr) - 1
    return sparse.csc_matrix((weights, targets, indptr),
                             shape=(n, n)).tocsr()


# ---- integer walks by residues --------------------------------------

# narrowest primes the residue walk uses: a W of 2**47 or more leaves
# int64 sums no room for them
_MIN_PRIME_BITS = 16
# Miller-Rabin with these bases decides primality below 3.3e24 > 2**63
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _integer_data(data) -> bool:
    """True for walk data of an integer dtype, or of Python ints."""
    return data.dtype.kind in "iu" or (
        data.dtype == object and set(map(type, data.tolist())) <= {int})


def _integer_rows(rows, ns: int) -> tuple:
    """(rows, W, C) for the residue walk: ``rows`` with int64 data, and W
    and C, the largest row and column sums of |data|, as Python ints.

    The sums are taken in float64, exact for integer sums below 2**53; a
    larger column sum of m terms is off by a factor of at most
    1 + m 2**-52 and is rounded up by that much.  A W of 2**47 or more
    raises ValueError before the data are cast to int64."""
    indptr, idx, data = rows
    mag = np.abs(np.asarray(data, dtype=np.float64))
    row_of = np.repeat(np.arange(ns), np.diff(indptr))
    W = int(np.bincount(row_of, mag, minlength=1).max())
    if W >= 2 ** (63 - _MIN_PRIME_BITS):
        raise ValueError(f"a row of weights sums to {W}: no primes of "
                         f"{_MIN_PRIME_BITS} bits keep its int64 sums exact")
    C = int(np.bincount(idx, mag, minlength=1).max())
    if C >= 2 ** 53:
        C += C * len(idx) // 2 ** 52 + 1
    return (indptr, idx, data.astype(np.int64)), W, C


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < 2**63."""
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _primes_below(bits: int, k: int) -> tuple:
    """The k largest primes below 2**bits, descending; ValueError if
    fewer than k lie above 2**(bits - 1)."""
    primes, p = [], 1 << bits
    while len(primes) < k:
        p -= 1
        if p < 1 << (bits - 1):
            raise ValueError(f"fewer than {k} primes of {bits} bits")
        if _is_prime(p):
            primes.append(p)
    return tuple(primes)


def _lazy_steps(W: int) -> int:
    """r, the steps the residue walk takes between reductions: the most
    with r W.bit_length() <= 8 (at most 8 bits of each prime), at least 1."""
    return max(1, 8 // max(1, W.bit_length()))


def _residue_primes(W: int, bound: int, cap: int = 63) -> tuple:
    """The largest primes p < 2**cap with W**r (p - 1) < 2**63, r =
    `_lazy_steps`, as many as it takes for their product to exceed
    2 * bound when each is counted as 2**(bits - 1), the least it can be."""
    bits = min(cap, 63 - _lazy_steps(W) * W.bit_length())
    return _primes_below(bits, max(1, -(-(2 * bound).bit_length()
                                        // (bits - 1))))


def _crt(residues: list, primes: tuple) -> list:
    """The integers x with |x| < M/2, M the product of ``primes``, and
    x = residues[..][i] mod primes[i], for each list of k residues in
    ``residues``, nested as there."""
    if not residues:
        return []
    M = math.prod(primes)
    basis = np.array([M // p * pow(M // p, -1, p) for p in primes],
                     dtype=object)
    x = np.array(residues, dtype=object) @ basis % M
    return np.where(x > M // 2, x - M, x).tolist()

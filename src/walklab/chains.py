"""Finite truncations of orbit-collapsed walk chains and their DPs.

A collapsed chain records, for each stabilizer orbit, how many neighbors
of a representative vertex land in each orbit.  All transition
probabilities share the denominator ``denom`` (the graph degree), so the
n-step distribution can be carried as integer numerators over denom**n.

The truncation stores the counts once, as CSR arrays ``csr = (indptr,
targets, counts)``: row i lists its targets and counts in
``targets[indptr[i]:indptr[i+1]]`` and the same slice of ``counts``.  A
ball (`walklab.models.WalkModel.enumerate_ball`) is the chain of the
trivial partition, with unit counts.

One kernel, `CollapsedChain.walk`, counts every walk from these arrays,
over the light cone only: u_n, the taboo f_n, the Doob h-walk, the
bridge tables, ball series and walks that avoid a vertex.  The exact
series of `walklab.series` are `root_walk`'s numerators over denom**n.
An integer walk read at one state (`walk_entries`: u_n, f_n, ball
series, avoiding counts, the Doob h-walk as integer pairs) steps int64
residues modulo a few pairwise-coprime moduli by the CSR matvec of the
float walk, reduced only every r steps, and rebuilds each entry by the
Chinese remainder theorem.  It is exact because each modulus has
W**r (m - 1) < 2**63, W the largest row sum of |weights|, so no int64
sum overflows between reductions; their product exceeds 2 |start| C**n,
C the largest column sum, which bounds every |entry|; and the symmetric
representative is taken.  The bridge F/G tables are whole residue walks.

Float root series walk half as far: orbit sizes satisfy |S| c(S->T) =
|T| c(T->S), so P is similar to the symmetric A[S, T] = sqrt(c_ST c_TS)
/ denom, and u_2k = |v_k|**2, u_2k-1 = <v_k-1, v_k> for v_k = A**k
e_root (|float u_n - u_n| <= (n + m/2) 2**-52 u_n + 2**-1074, m the
states its einsum sums).  The taboo f_n zeroes the root entry of v_k
between the two reads; the Doob a_n walks the h-walk's A / rho.
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
    bipartite: bool = False  # no entry joins two states of one depth
    _matrix: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _edges: Optional[list] = field(default=None, repr=False)
    _pull: Optional[tuple] = field(default=None, repr=False)
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
        weights (w_n = w_{n-1} P) or the symmetric A of the half walk.  It
        owns two buffers and yields them in turn: the caller may scale or
        zero a yielded vector before the next step, and copies what it
        keeps.  Float64 data steps with scipy's CSR matvec, int64 data with
        ``primes = (ms, r)`` as (states, k) residues mod the k pairwise
        coprime moduli ms by its CSR matvecs, reduced by ``np.fmod`` every
        r steps (see `walk_entries`); other data raise TypeError.
        Step n computes only the rows within min(depth[source] + n,
        depth[target] + n_max - n) of the root, a BFS prefix, where
        ``target`` (default ``source``; the deepest state keeps whole
        cones) is the state the walk must reach by step n_max: the other
        rows are unreachable from the source in n steps or cannot reach
        the target in the n_max - n steps left, and are 0 (a buffer's rows
        from its last step are zeroed too).  An edge changes depth by at
        most 1, so a kept row reads only the kept rows of the step before
        and true zeros, in the order of a full product: every entry read
        at the target is the same to the bit.
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
            moduli, lazy = primes
            mod = np.array(moduli, dtype=np.int64)
            w, nw = np.zeros((2, ns, len(moduli)), dtype=np.int64)
            w[source] = [start % q for q in moduli]
        top, ntop = source + 1, 0  # w and nw are 0 from these rows on
        for n in range(1, n_max + 1):
            m = self.cone(min(reach + n, left - n))
            nw[:max(m, ntop)] = 0
            if primes is None:
                _sparsetools.csr_matvec(m, ns, indptr, idx, data, w, nw)
            else:
                _sparsetools.csr_matvecs(m, ns, len(moduli), indptr, idx,
                                         data, w, nw)
                if n % lazy == 0:  # fmod keeps signs: |residue| < modulus
                    np.fmod(nw[:m], mod, out=nw[:m])
            w, nw, top, ntop = nw, w, m, top
            yield w

    def walk_entries(self, n_max: int, start=1, rows: Optional[tuple] = None,
                     source: Optional[int] = None,
                     target: Optional[int | slice] = None,
                     kill: Optional[int] = None) -> list:
        """w_n[target] for n = 1..n_max of the integer `walk` on ``rows``,
        default `pull_rows` (``target`` default the source, or a slice of
        states at one depth, read as a list); after each read the mass at
        ``kill`` is removed.  Python ints, exact as the module docstring
        argues: ||w_n||_1 <= |start| C**n, and removing mass only lowers
        it.  TypeError unless start and data are integers; ValueError when
        W leaves no room for moduli of ``_MIN_PRIME_BITS`` bits."""
        source = self.root if source is None else source
        target = source if target is None else target
        rows = self.pull_rows() if rows is None else rows
        data = np.asarray(rows[2])
        if not (_integer_data(data) and isinstance(start, (int, np.integer))):
            raise TypeError(f"an integer walk needs integer data and an "
                            f"integer start, not {data.dtype} and {start!r}")
        rows, W, C = _integer_rows(rows, len(self.depth))
        moduli = _residue_primes(W, abs(int(start)) * C ** n_max)
        at = target.start if isinstance(target, slice) else target
        reads = []
        for w in self.walk(n_max, start, rows, source, at,
                           (moduli, _lazy_steps(W))):
            reads.append(w[target].tolist())  # a copy: w is reused
            if kill is not None:
                w[kill] = 0
        return _crt(reads, moduli)

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
        """Column-stochastic float P[j, i] = p(i -> j), built on each call:
        the float series walk the symmetric A of `_symmetric` instead."""
        indptr, targets, counts = self.csr
        return transpose_csr((indptr, targets,
                              np.asarray(counts) * (1.0 / self.denom)))

    def _symmetric(self, data: Optional[np.ndarray] = None):
        """S[j, i] = sqrt(data_ij data_ji) on the pattern of `matrix`, for
        nonnegative ``data`` per entry in ``csr`` order; ValueError if i ->
        j has no j -> i.  By default the module's A, built once and kept in
        ``_matrix``, where the benchmark tracer reads its entry count."""
        if data is None:
            if self._matrix is None:
                # counts <= denom: c_ij c_ji fits int32 while denom**2 < 2**31
                wide = self.denom ** 2 >= 2 ** 31
                self._matrix = self._symmetric(
                    np.asarray(self.csr[2], np.int64 if wide else np.int32))
                self._matrix.data *= 1.0 / self.denom
            return self._matrix
        T = transpose_csr((*self.csr[:2], data))  # row j: (i, data_ij)
        # data_ji of each entry: csr's row j sorted (T's, if symmetric)
        idx, mirror = np.array(self.csr[1], T.indices.dtype), np.array(data)
        _sparsetools.csr_sort_indices(len(self), T.indptr, idx, mirror)
        if not (np.array_equal(T.indptr, self.csr[0])
                and np.array_equal(T.indices, idx)):
            raise ValueError("an entry i -> j has no entry j -> i")
        # products in place, then floats: the peak stays at T and 2 copies
        T.data = np.multiply(T.data, mirror, out=mirror)
        del idx
        T.data = np.sqrt(T.data, dtype=np.float64)
        return T

    def _half_walk(self, n_max: int, A, taboo: bool = False) -> np.ndarray:
        """x_0..x_{n_max} by the half walk of the module docstring on a
        symmetric ``A`` of this chain's pattern: u_n, or with ``taboo`` f_n,
        the root entry of each v_k zeroed between its two reads."""
        self._check_horizon(n_max)
        # the walk holds v_k 2**e; x_n is read back by one exact ldexp.
        # einsum sums never thread, so x_n does not hang on a BLAS pool
        x, e, prev, c = [float(not taboo)], 0, np.ones(1), 1  # v_0 = e_root
        for k, v in enumerate(self.walk(-(-n_max // 2), 1.0, (
                A.indptr, A.indices, A.data), target=len(self) - 1), 1):
            ck = self.cone(k)
            # a bipartite chain's odd x_n are 0: v_k-1 and v_k are disjoint
            x.append(0.0 if self.bipartite else math.ldexp(
                np.einsum("i,i->", prev[:c], v[:c]), -2 * e))
            if taboo:
                v[self.root] = 0.0
            sq = np.einsum("i,i->", v[:ck], v[:ck])
            x.append(math.ldexp(sq, -2 * e))
            if sq < 2.0 ** -400:  # rescale before v_k's entries underflow
                e += (s := -math.frexp(sq)[1] // 2)
                v[:ck] *= 2.0 ** s
            prev, c = v, ck
        return np.array(x[:n_max + 1])

    def return_series_float(self, n_max: int) -> np.ndarray:
        """u_0..u_{n_max} by `_half_walk`."""
        return self._half_walk(n_max, self._symmetric())

    def taboo_series_float(self, n_max: int) -> np.ndarray:
        return self._half_walk(n_max, self._symmetric(), taboo=True)

    def _check_horizon(self, n_max: int, error=ValueError) -> None:
        """The caller's ``error`` unless 0 <= n_max <= horizon."""
        if not 0 <= n_max <= self.horizon:
            raise error(f"need 0 <= n_max <= horizon {self.horizon}, "
                        f"got {n_max}")


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

# narrowest moduli the residue walk uses: a W of 2**47 or more leaves
# int64 sums no room for them
_MIN_PRIME_BITS = 16


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


@functools.cache
def _moduli_below(bits: int, k: int) -> tuple:
    """k pairwise-coprime moduli below 2**bits, descending: each m scanned
    down from 2**bits - 1 is kept if it is coprime to those kept so far.
    ValueError if the scan passes below 2**(bits - 1) first."""
    moduli, prod, m = [], 1, 1 << bits
    while len(moduli) < k:
        m -= 1
        if m < 1 << (bits - 1):
            raise ValueError(f"fewer than {k} pairwise-coprime moduli of "
                             f"{bits} bits")
        if math.gcd(m, prod) == 1:
            moduli.append(m)
            prod *= m
    return tuple(moduli)


def _lazy_steps(W: int) -> int:
    """r, the steps the residue walk takes between reductions: the most
    with r W.bit_length() <= 8 (at most 8 bits of each modulus), at least 1."""
    return max(1, 8 // max(1, W.bit_length()))


def _residue_primes(W: int, bound: int, cap: int = 63) -> tuple:
    """Pairwise-coprime moduli m < 2**cap with W**r (m - 1) < 2**63, r =
    `_lazy_steps`, as many as it takes for their product to exceed
    2 * bound when each is counted as 2**(bits - 1), the least it can be."""
    bits = min(cap, 63 - _lazy_steps(W) * W.bit_length())
    return _moduli_below(bits, max(1, -(-(2 * bound).bit_length()
                                        // (bits - 1))))


def _crt(residues: list, moduli: tuple) -> list:
    """The integers x with |x| < M/2, M the product of the pairwise-coprime
    ``moduli``, and x = residues[..][i] mod moduli[i], for each list of k
    residues in ``residues``, nested as there."""
    if not residues:
        return []
    M = math.prod(moduli)
    basis = np.array([M // m * pow(M // m, -1, m) for m in moduli],
                     dtype=object)
    x = np.array(residues, dtype=object) @ basis % M
    return np.where(x > M // 2, x - M, x).tolist()

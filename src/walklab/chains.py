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
The Doob transform keeps its weights as one array in ``csr`` entry
order.  The per-row lists ``edges`` of (j, count) pairs are a view
built on first use, read only by tests and the benchmark tracer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools


@dataclass
class CollapsedChain:
    states: list
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
        counts (None if all are 1), kept on the chain."""
        if weights is None and self._pull is not None:
            return self._pull
        indptr, targets, counts = self.csr
        t = transpose_csr((indptr, targets,
                           np.arange(len(targets), dtype=np.int32)))
        # int32 indices halve the pattern's memory on large balls
        rows = (t.indptr.astype(np.int64), t.indices.astype(np.int32))
        if weights is not None:
            return *rows, weights[t.data]
        counts = np.asarray(counts)
        self._pull = (*rows, None if (counts == 1).all()
                      else counts[t.data].astype(object))
        return self._pull

    def walk(self, n_max: int, start=1, rows: Optional[tuple] = None,
             source: Optional[int] = None, target: Optional[int] = None):
        """Yield w_1..w_{n_max}: w_0 = start * e_source (default the root)
        and w_n[r] = sum of data[k] * w_{n-1}[idx[k]] over the entries k of
        row r of ``rows = (indptr, idx, data)``, by default `pull_rows`
        (w_n = w_{n-1} P in counts; data None means unit weights).  The
        caller may change a yielded vector before the next step.

        Float64 data steps with scipy's CSR matvec, other data (ints,
        `QuadExt`) as object arrays: one gather, one ``np.add.reduceat``.
        Step n computes only the rows within min(depth[source] + n,
        depth[target] + n_max - n) of the root, a BFS prefix, where
        ``target`` (default ``source``) is the state the walk must reach
        by step n_max: the other rows are unreachable from the source in
        n steps or cannot reach the target in the n_max - n steps left,
        and stay 0.  An edge changes depth by at most 1, so a kept row
        reads only kept entries and true zeros, in the order of a full
        product: every entry read at the target is the same to the bit.
        """
        indptr, idx, data = self.pull_rows() if rows is None else rows
        ns = len(self.states)
        source = self.root if source is None else source
        target = source if target is None else target
        reach, left = self.depth[source], self.depth[target] + n_max
        exact = data is None or data.dtype != np.float64
        if exact:
            # reduceat gives an empty row a neighbor's entry, not 0
            live = np.flatnonzero(np.diff(indptr))
            starts = indptr[live]
        else:
            # csr_matvec converts mismatched index arrays on every call
            itype = np.promote_types(indptr.dtype, idx.dtype)
            indptr, idx = (a.astype(itype, copy=False) for a in (indptr, idx))
        # zeros of start's type: a QuadExt times int 0 would go via Fraction
        zero = start * 0
        w = np.full(ns, zero, dtype=object if exact else np.float64)
        w[source] = start
        for n in range(1, n_max + 1):
            m = self.cone(min(reach + n, left - n))
            nw = np.full(ns, zero, dtype=w.dtype)
            if not exact:
                _sparsetools.csr_matvec(m, ns, indptr, idx, data, w, nw)
            elif (k := np.searchsorted(live, m)):
                end = indptr[m]
                terms = w[idx[:end]]
                if data is not None:
                    terms *= data[:end]
                nw[live[:k]] = np.add.reduceat(terms, starts[:k])
            w = nw
            yield w

    def root_walk(self, n_max: int, start=1, rows: Optional[tuple] = None,
                  taboo: bool = False) -> list:
        """Root entries of w_1..w_{n_max} of `walk` from the root; with
        ``taboo`` the root's mass is removed after each is read."""
        self._check_horizon(n_max)
        out = []
        for w in self.walk(n_max, start, rows):
            out.append(w[self.root])
            if taboo:
                w[self.root] = 0
        return out

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
        ns = len(self.states)
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

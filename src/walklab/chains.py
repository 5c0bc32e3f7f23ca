"""Finite truncations of orbit-collapsed walk chains and their DPs.

A collapsed chain records, for each stabilizer orbit, how many neighbors
of a representative vertex land in each orbit.  All transition
probabilities share the denominator ``denom`` (the graph degree), so the
n-step distribution can be carried as integer numerators over denom**n.

The truncation stores the counts once, as CSR arrays ``csr = (indptr,
targets, counts)``: row i lists its targets and counts in
``targets[indptr[i]:indptr[i+1]]`` and the same slice of ``counts``.  The
float matrix is built from these arrays with no Python loop over edges.
The exact DPs, the Doob transform and the bridge tables read rows of
(j, count) pairs, ``edges``, which are built from the arrays on first use;
the float DPs never build them.
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
    csr: tuple           # (indptr, targets, counts), each an array("q")
    denom: int           # common denominator of every row (graph degree)
    level: list          # lattice level per state
    level_base: Optional[Fraction]
    horizon: int         # u_n exact for n <= horizon
    depth: list          # BFS depth of each state from the root
    t0: int              # largest level step across an edge (1 if none)
    root: int = 0
    _matrix: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _edges: Optional[list] = field(default=None, repr=False)
    # bridge length n -> occupation numerators, memoized by `bridges`
    occupation: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.states)

    @property
    def edges(self) -> list:
        """edges[i] = list of (j, count); the counts of a full row sum to
        denom.  Built from ``csr`` on first use."""
        if self._edges is None:
            indptr, targets, counts = self.csr
            targets, counts = targets.tolist(), counts.tolist()
            self._edges = [list(zip(targets[a:b], counts[a:b]))
                           for a, b in zip(indptr, indptr[1:])]
        return self._edges

    @property
    def radius(self) -> int:
        return self.horizon // 2

    def interior(self, i: int) -> bool:
        """Whether state i has its complete transition row present."""
        return self.depth[i] < self.radius

    # ---- exact integer dynamics ----------------------------------

    def cone(self, steps_left: int) -> int:
        """Number of states within ``steps_left`` steps of the root.

        States are numbered in BFS order, so these are a prefix.  A state
        at depth d needs d steps to return to the root, so with k steps
        left (this one included) only the first ``cone(k)`` states can
        still send mass there.
        """
        return bisect_right(self.depth, steps_left)

    def step_numerators(self, w: list, limit: Optional[int] = None,
                        rows: Optional[list] = None) -> list:
        """One step of the count DP: new[j] = sum_i w[i] * count(i->j).

        Only states i < ``limit`` are read.  ``rows`` replaces the integer
        counts by other weights of the same shape (rows[i] = [(j, p)]).
        """
        rows = self.edges if rows is None else rows
        nw = [0] * len(self.states)
        for wi, row in zip(w if limit is None else w[:limit], rows):
            if wi:
                for j, c in row:
                    nw[j] += wi * c
        return nw

    def root_walk(self, n_max: int, start=1, rows: Optional[list] = None,
                  taboo: bool = False) -> list:
        """Root entries of w_1..w_{n_max}, w_n = w_{n-1} P, w_0 = start*e_root.

        With ``taboo`` the root's mass is removed before every step after
        the first.  Step n reads only the states that are reachable in
        n - 1 steps and can still reach the root in the n_max - n + 1
        steps left; the others carry no mass that arrives at the root.
        """
        self._check_horizon(n_max)
        w = [0] * len(self.states)
        w[self.root] = start
        out = []
        for n in range(1, n_max + 1):
            if taboo and n > 1:
                w[self.root] = 0
            w = self.step_numerators(
                w, self.cone(min(n - 1, n_max - n + 1)), rows)
            out.append(w[self.root])
        return out

    def return_series_exact(self, n_max: int) -> list:
        """u_n for n = 0..n_max as exact Fractions."""
        return [Fraction(1)] + [
            Fraction(x, self.denom ** n)
            for n, x in enumerate(self.root_walk(n_max), 1)]

    def taboo_series_exact(self, n_max: int) -> list:
        """First-return probabilities f_n via the taboo DP.

        The walk is killed on every visit to the root, so the mass that
        arrives at the root at step n through killed dynamics is exactly
        the first-return probability.
        """
        return [Fraction(0)] + [
            Fraction(x, self.denom ** n)
            for n, x in enumerate(self.root_walk(n_max, taboo=True), 1)]

    # ---- float dynamics ------------------------------------------

    def matrix(self) -> sparse.csr_matrix:
        """Column-stochastic float transition matrix P[j, i] = p(i -> j)."""
        if self._matrix is None:
            indptr, targets, counts = self.csr
            self._matrix = float_matrix((
                indptr, targets,
                np.frombuffer(counts, dtype=np.int64) * (1.0 / self.denom)))
        return self._matrix

    def float_root_walk(self, P, n_max: int, taboo: bool = False):
        """Root entries of w_0..w_{n_max}, w_n = P w_{n-1}, w_0 = e_root,
        for a CSR float matrix P[j, i] = p(i -> j) with this chain's
        edges; ``taboo`` as in `root_walk`, with w_0 counted as no return.

        Step n computes only the rows of the states within
        min(n, n_max - n) of the root, a prefix in BFS order: the others
        are unreachable or can no longer reach the root.  An edge changes
        BFS depth by at most 1, so a kept row reads only kept entries, in
        the order ``P @ w`` reads them, and the result is the same to the
        bit.
        """
        self._check_horizon(n_max)
        ns = len(self.states)
        # the kernel trusts its row count: a matrix of another size or
        # format would be read out of bounds or transposed
        if P.format != "csr" or P.shape != (ns, ns):
            raise ValueError(f"need a {ns}x{ns} CSR matrix, got "
                             f"{P.shape[0]}x{P.shape[1]} {P.format}")
        w = np.zeros(ns)
        w[self.root] = 1.0
        out = np.empty(n_max + 1)
        out[0] = 0.0 if taboo else 1.0
        for n in range(1, n_max + 1):
            if taboo and n > 1:
                w[self.root] = 0.0
            nw = np.zeros(ns)
            _sparsetools.csr_matvec(self.cone(min(n, n_max - n)), ns,
                                    P.indptr, P.indices, P.data, w, nw)
            w = nw
            out[n] = w[self.root]
        return out

    def return_series_float(self, n_max: int) -> np.ndarray:
        return self.float_root_walk(self.matrix(), n_max)

    def taboo_series_float(self, n_max: int) -> np.ndarray:
        return self.float_root_walk(self.matrix(), n_max, taboo=True)

    def _check_horizon(self, n_max: int) -> None:
        if n_max > self.horizon:
            raise ValueError(
                f"chain truncated for horizon {self.horizon}, asked for {n_max}")


def float_matrix(csr) -> sparse.csr_matrix:
    """Sparse P[j, i] = weights[k] for the entries k of row i of the CSR
    triple ``csr = (indptr, targets, weights)``: the triple is P in CSC
    form, converted once to CSR."""
    indptr, targets, weights = csr
    n = len(indptr) - 1
    return sparse.csc_matrix((weights, targets, indptr),
                             shape=(n, n)).tocsr()

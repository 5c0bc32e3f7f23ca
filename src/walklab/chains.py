"""Finite truncations of orbit-collapsed walk chains and their DPs.

A collapsed chain records, for each stabilizer orbit, how many neighbors
of a representative vertex land in each orbit.  All transition
probabilities share the denominator ``denom`` (the graph degree), so the
n-step distribution can be carried as integer numerators over denom**n.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import sparse


@dataclass
class CollapsedChain:
    states: list
    edges: list          # edges[i] = list of (j, count); counts sum to denom
    denom: int           # common denominator of every row (graph degree)
    level: list          # lattice level per state
    level_base: Optional[Fraction]
    horizon: int         # u_n exact for n <= horizon
    depth: list = None   # BFS depth of each state from the root
    root: int = 0
    _matrix: Optional[sparse.csr_matrix] = field(default=None, repr=False)

    def __len__(self):
        return len(self.states)

    @property
    def radius(self) -> int:
        return self.horizon // 2

    def interior(self, i: int) -> bool:
        """Whether state i has its complete transition row present."""
        if self.depth is None:
            return True
        return self.depth[i] < self.radius

    # ---- exact integer dynamics ----------------------------------

    def cone(self, steps_left: int) -> int:
        """Number of states within ``steps_left`` steps of the root.

        States are numbered in BFS order, so these are a prefix.  A state
        at depth d needs d steps to return to the root, so with k steps
        left (this one included) only the first ``cone(k)`` states can
        still send mass there.
        """
        if self.depth is None:
            return len(self.states)
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
            rows, cols, vals = [], [], []
            inv = 1.0 / self.denom
            for i, row in enumerate(self.edges):
                for j, c in row:
                    rows.append(j)
                    cols.append(i)
                    vals.append(c * inv)
            n = len(self.states)
            self._matrix = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(n, n))
        return self._matrix

    def return_series_float(self, n_max: int) -> np.ndarray:
        self._check_horizon(n_max)
        P = self.matrix()
        w = np.zeros(len(self.states))
        w[self.root] = 1.0
        out = np.empty(n_max + 1)
        out[0] = 1.0
        for n in range(1, n_max + 1):
            w = P @ w
            out[n] = w[self.root]
        return out

    def taboo_series_float(self, n_max: int) -> np.ndarray:
        self._check_horizon(n_max)
        P = self.matrix()
        w = np.zeros(len(self.states))
        w[self.root] = 1.0
        w = P @ w
        out = np.empty(n_max + 1)
        out[0] = 0.0
        out[1] = w[self.root]
        for n in range(2, n_max + 1):
            w[self.root] = 0.0
            w = P @ w
            out[n] = w[self.root]
        return out

    def _check_horizon(self, n_max: int) -> None:
        if n_max > self.horizon:
            raise ValueError(
                f"chain truncated for horizon {self.horizon}, asked for {n_max}")

"""Square-root-biased (Doob) walk and ballot statistics of its level process.

h(x) = sqrt(m(x)) is rho-harmonic on the amenable-subgroup families, so
p_h(x,y) = p(x,y) h(y) / (rho h(x)) is a stochastic kernel whose return
probability at the root is the normalized sequence a_n = u_n / rho^n.
The level of the walk performs a symmetric finite-range lattice walk;
this module computes its increment law and its ballot-type statistics.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .chains import CollapsedChain, float_matrix
from .models import LevelProfile, WalkModel
from .qfield import QuadExt, sqrt_exact
from .series import SpectralRadius, profile_rho


class DoobError(ValueError):
    pass


@dataclass
class HarmonicReport:
    model: str
    profile_value: QuadExt
    rho_exact: Optional[QuadExt]
    exact_zero: Optional[bool]
    float_residual: float


def harmonic_check(model: WalkModel, rho: SpectralRadius) -> HarmonicReport:
    """Verify rho = (1/d) sum_q t_q sqrt(q) for the level profile."""
    if model.level_base is None:
        raise DoobError(f"{model.name()} has no level structure")
    val = profile_rho(model)
    exact_zero = None
    if rho.exact is not None:
        exact_zero = (val - rho.exact) == 0
    return HarmonicReport(
        model=model.name(), profile_value=val, rho_exact=rho.exact,
        exact_zero=exact_zero,
        float_residual=abs(float(val) - rho.value))


# ---------------------------------------------------------------------------
# Doob chain
# ---------------------------------------------------------------------------

@dataclass
class DoobChain:
    """Collapsed chain transformed by h = sqrt(base)**level.

    Transition weights live in the quadratic field of sqrt(base), so row
    sums, reversibility and the return series are exact.
    """
    base_chain: CollapsedChain
    rows: list  # rows[i] = list of (j, QuadExt probability)

    def __len__(self):
        return len(self.rows)

    def row_sum_check(self) -> list:
        """Indices of interior states whose row does not sum to 1."""
        return [i for i, row in enumerate(self.rows)
                if self.base_chain.interior(i) and sum(p for _, p in row) != 1]

    def reversibility_check(self) -> dict:
        """Detailed balance with pi = (orbit size) * h**2.

        Orbit sizes are recovered from edge-count symmetry: the number of
        graph edges from orbit S to orbit S' equals N(S) c(S->S') and also
        N(S') c(S'->S).  Propagating N along a BFS tree and checking every
        edge both ways verifies reversibility of the h-walk exactly.
        """
        chain = self.base_chain
        counts = [dict(row) for row in chain.edges]
        N = [None] * len(chain.states)
        N[chain.root] = Fraction(1)
        for i in range(len(chain.states)):  # BFS order
            if N[i] is None:
                continue
            for j, c in counts[i].items():
                back = counts[j].get(i)
                if back is None:
                    continue
                cand = N[i] * Fraction(c, back)
                if N[j] is None:
                    N[j] = cand
        bad = []
        for i in range(len(chain.states)):
            if N[i] is None:
                continue
            for j, c in counts[i].items():
                back = counts[j].get(i)
                if back is None or N[j] is None:
                    continue
                if N[i] * c != N[j] * back:
                    bad.append((i, j, "edge-count balance"))
        # detailed balance of the h-walk itself
        h2 = [Fraction(chain.level_base) ** chain.level[i]
              for i in range(len(chain.states))]
        prows = [dict(r) for r in self.rows]
        for i in range(len(self.rows)):
            if N[i] is None:
                continue
            for j, p in prows[i].items():
                q = prows[j].get(i)
                if q is None or N[j] is None:
                    continue
                if (N[i] * h2[i]) * p != (N[j] * h2[j]) * q:
                    bad.append((i, j, "detailed balance"))
        return {"ok": not bad, "violations": bad,
                "orbit_sizes_known": sum(x is not None for x in N)}

    def return_series_exact(self, n_max: int) -> list:
        """a_n = root-return probability of the h-walk, exact QuadExt."""
        if n_max > self.base_chain.horizon:
            raise DoobError("beyond chain horizon")
        zero = self.rows[self.base_chain.root][0][1] * 0
        one = zero + 1
        walk = self.base_chain.root_walk(n_max, one, rows=self.rows)
        return [one] + [x or zero for x in walk]

    def matrix(self):
        """Float h-walk matrix P[j, i] = p_h(i -> j), in CSR format."""
        indptr = np.cumsum([0] + [len(row) for row in self.rows])
        targets = [j for row in self.rows for j, _ in row]
        weights = [float(p) for row in self.rows for _, p in row]
        return float_matrix((indptr, targets, weights))

    def return_series_float(self, n_max: int) -> np.ndarray:
        return self.base_chain.float_root_walk(self.matrix(), n_max)


def doob_chain(chain: CollapsedChain, rho: SpectralRadius) -> DoobChain:
    if chain.level_base is None:
        raise DoobError("chain has no level structure")
    if rho.exact is None:
        raise DoobError("doob transform needs the exact spectral radius")
    sqrt_base = sqrt_exact(chain.level_base)
    inv_rho = rho.exact.inverse()
    rows = []
    for i, edge_row in enumerate(chain.edges):
        row = []
        for j, c in edge_row:
            ratio = sqrt_base ** (chain.level[j] - chain.level[i])
            p = Fraction(c, chain.denom) * ratio * inv_rho
            row.append((j, p))
        rows.append(row)
    dc = DoobChain(base_chain=chain, rows=rows)
    bad = dc.row_sum_check()
    if bad:
        raise DoobError(f"nonstochastic rows at states {bad[:5]} "
                        "(harmonicity failure)")
    return dc


# ---------------------------------------------------------------------------
# Level increment law
# ---------------------------------------------------------------------------

@dataclass
class LevelIncrementLaw:
    atoms: list  # (lattice step j, QuadExt probability), sorted by j
    base: Fraction
    t0_lattice: int

    def validate(self) -> None:
        probs = dict(self.atoms)
        for j, p in self.atoms:
            if p.sign() < 0:
                raise DoobError(f"negative mass at {j}")
            if probs.get(-j) != p:
                raise DoobError(f"asymmetric law at step {j}")
        total = sum(p for _, p in self.atoms)
        if total != 1:
            raise DoobError(f"law mass {total} != 1")
        mean = sum(j * p for j, p in self.atoms)
        if mean != 0:
            raise DoobError(f"nonzero mean {mean}")

    def float_atoms(self) -> dict:
        return {j: float(p) for j, p in self.atoms}


def increment_law(profile: LevelProfile, rho: SpectralRadius) -> LevelIncrementLaw:
    """Law of the level jump of the h-walk: P[j] = t_q sqrt(q) / (d rho)."""
    if profile.base is None:
        raise DoobError("profile has no lattice structure")
    if rho.exact is None:
        raise DoobError("increment law needs the exact spectral radius")
    inv = (profile.degree * rho.exact).inverse()
    atoms = []
    for (q, t), (j, _) in zip(profile.entries, profile.lattice_entries()):
        p = t * sqrt_exact(q) * inv
        atoms.append((j, p))
    atoms.sort(key=lambda x: x[0])
    law = LevelIncrementLaw(atoms=atoms, base=profile.base,
                            t0_lattice=profile.t0_lattice)
    law.validate()
    return law


# ---------------------------------------------------------------------------
# Level-walk statistics: one killed-walk kernel and its readouts
# ---------------------------------------------------------------------------
#
# A level walk is a Markov-additive chain: a start law pi over chain states
# and edges (s, s2, j, p), a move from s to s2 with weight p that raises
# the level by j lattice units.  The increment law is the one-state case;
# `quasi` walks on the orbits of a schema.  Arrays v[..., s, i] hold the
# mass in state s at level a + i, as float64 or as exact field elements.
# Windows are half-open [r*t0, (r+1)*t0) in lattice units.


@dataclass
class _Walk:
    pi: np.ndarray   # start law over chain states
    edges: list      # (s, s2, j, p)
    zero: object     # 0.0, or the zero of the weights' field
    t0: int

    def zeros(self, shape) -> np.ndarray:
        if isinstance(self.zero, float):
            return np.zeros(shape)
        return np.full(shape, self.zero, dtype=object)


def _law_walk(law: LevelIncrementLaw, mode: str) -> _Walk:
    """The increment law as a one-state walk."""
    cast = float if mode == "float" else (lambda p: p)
    zero = cast(law.atoms[0][1] * 0)
    edges = [(0, 0, j, cast(p)) for j, p in law.atoms]
    return _Walk(np.array([zero + 1]), edges, zero, law.t0_lattice)


def _killed_walk(walk: _Walk, v, a: int, n: int, live):
    """Yield (k, v, a) after steps k = 1..n of `walk` started from (v, a).

    Leading axes of v are carried along (the ladder runs keep one row per
    start state).  live(k) = (lo, hi) bounds the levels kept after step
    k, None meaning unbounded.
    """
    down = min(j for _, _, j, _ in walk.edges)
    up = max(j for _, _, j, _ in walk.edges)
    for k in range(1, n + 1):
        lo, hi = live(k)
        width = v.shape[-1]
        na = a + down if lo is None else max(a + down, lo)
        nb = a + width + up if hi is None else min(a + width + up, hi)
        new = walk.zeros(v.shape[:-1] + (max(nb - na, 0),))
        for s, s2, j, p in walk.edges:
            i0, i1 = max(na - a - j, 0), min(nb - a - j, width)
            if i0 < i1:
                shift = a + j - na
                new[..., s2, i0 + shift:i1 + shift] += p * v[..., s, i0:i1]
        v, a = new, na
        yield k, v, a


def _final(walk: _Walk, n: int, live, v, a: int = 0):
    """(v, a) after n steps; the start itself when n = 0."""
    for _, v, a in _killed_walk(walk, v, a, n, live):
        pass
    return v, a


def _levels(walk: _Walk, v, a: int, lo: int, hi: int, out=None):
    """Mass of v at each level in [lo, hi), summed over chain states."""
    if out is None:
        out = walk.zeros(v.shape[:-2] + (hi - lo,))
    i0, i1 = max(lo, a), min(hi, a + v.shape[-1])
    if i0 < i1:
        out[..., i0 - lo:i1 - lo] = v[..., i0 - a:i1 - a].sum(axis=-2)
    return out


def _window(walk: _Walk, levels, r: int):
    return walk.zero + levels[r * walk.t0:(r + 1) * walk.t0].sum()


def _last_steps(walk: _Walk, n_grid, live, land) -> dict:
    """{n: (v, a)} after n - 1 steps kept inside the interval `live` and
    one last step kept inside `land`, for every n in n_grid (n >= 1)."""
    out = {}
    v, a = walk.pi[:, None], 0
    last = max(n_grid, default=1)
    run = _killed_walk(walk, v, a, last - 1, lambda k: live)
    for k, v, a in itertools.chain([(0, v, a)], run):
        if k + 1 in n_grid:
            out[k + 1] = _final(walk, 1, lambda k: land, v, a)
    return out


def _ballots(walk: _Walk, n_grid, m_hi: int) -> dict:
    """{n: P[Y_1..Y_{n-1} > 0, Y_n = m] for m in [0, m_hi)}: the
    strict-positive run plus one free last step."""
    ends = _last_steps(walk, n_grid, (1, None), (0, m_hi))
    return {n: _levels(walk, v, a, 0, m_hi) for n, (v, a) in ends.items()}


def _hitting(walk: _Walk, barrier: int, n_max: int) -> list:
    """P[Y_k >= barrier for the first time] for k = 0..n_max: the mass an
    upper-barrier run loses at each step."""
    ends = _last_steps(walk, range(1, n_max + 1), (None, barrier),
                       (barrier, None))
    return [walk.zero] + [walk.zero + ends[k][0].sum()
                          for k in range(1, n_max + 1)]


def _max_laws(walk: _Walk, n_grid, m_hi: int) -> dict:
    """{n: P[max_{j<=n} Y_j = m, Y_n = 0] for m in [0, m_hi)}.

    Ladder decomposition at the first time k the maximum m is reached:
    P[M_n = m, Y_n = 0] = sum_k sum_s A_k[s, m] B_{n-k}[s, m], s the state
    at time k.  B_j[s, m] is the chance from s of j steps staying at or
    below the start and ending m below it.  A_k[s, m] is the chance of a
    prefix staying strictly below its final level m and ending in s;
    mirror reversibility pi(s) P_j(s, s2) = pi(s2) P_{-j}(s2, s) (a
    symmetric law; count balance for a schema) reverses it into a path
    from s staying strictly below its start, weighted by pi(s).  With
    levels negated both are runs kept at levels >= 0, split by start
    state: B starts at level 0 and A one level lower, at -1.  The table
    keeps levels below m_hi, and the live set drops levels that cannot
    come back below m_hi by step max(n_grid).
    """
    neg = dataclasses.replace(
        walk, edges=[(s, s2, -j, p) for s, s2, j, p in walk.edges])
    fall = max(j for _, _, j, _ in walk.edges)
    last = max(n_grid)
    S = len(walk.pi)
    v = walk.zeros((2, S, S, 2))  # (A or B, start state, state, level -1..0)
    for s in range(S):
        v[0, s, s, 0], v[1, s, s, 1] = walk.pi[s], walk.zero + 1
    table = walk.zeros((last + 1, 2, S, m_hi + 1))
    _levels(walk, v, -1, -1, m_hi, table[0])
    for k, v, a in _killed_walk(neg, v, -1, last,
                                lambda k: (0, m_hi + (last - k) * fall)):
        _levels(walk, v, a, -1, m_hi, table[k])
    strict, weak = table[:, 0, :, :-1], table[:, 1, :, 1:]
    return {n: (strict[n::-1] * weak[:n + 1]).sum(axis=(0, 1))
            for n in n_grid}


def _windowed(readout, walk: _Walk, n: int, r: int):
    """Window r of a readout at step n."""
    return _window(walk, readout(walk, [n], (r + 1) * walk.t0)[n], r)


def _value(x, mode):
    return float(x) if mode == "float" else x


def ballot_probability(law: LevelIncrementLaw, n: int, r: int,
                       mode: str = "exact"):
    """P[Y_j > 0 for j = 1..n-1, Y_n in window r]."""
    if n < 1 or r < 0:
        raise DoobError("need n >= 1, r >= 0")
    return _value(_windowed(_ballots, _law_walk(law, mode), n, r), mode)


def hitting_time_law(law: LevelIncrementLaw, r: int, n_max: int,
                     mode: str = "float"):
    """P[tau_r = k] for k = 1..n_max, tau_r = first time Y >= r*t0."""
    if r < 1:
        raise DoobError("need r >= 1")
    out = _hitting(_law_walk(law, mode), r * law.t0_lattice, n_max)
    return np.array(out, dtype=float) if mode == "float" else out


def max_and_return(law: LevelIncrementLaw, n: int, r: int,
                   mode: str = "exact"):
    """P[max_{0<=j<=n} Y_j in window r, Y_n = 0]."""
    if r < 0 or n < 1:
        raise DoobError("need n >= 1, r >= 0")
    return _value(_windowed(_max_laws, _law_walk(law, mode), n, r), mode)


def return_to_zero(law: LevelIncrementLaw, n: int, mode: str = "exact"):
    """P[Y_n = 0] for the unconstrained increment walk."""
    walk = _law_walk(law, mode)
    v, a = _final(walk, n, lambda k: (None, None), walk.pi[:, None])
    return _value(walk.zero + _levels(walk, v, a, 0, 1).sum(), mode)


def reversal_check(law: LevelIncrementLaw, n: int) -> bool:
    """Exact check that (Y_1,..,Y_n) and (Y_n - Y_{n-1},..,Y_n) agree in law.

    Brute force over all increment sequences of length n; the joint laws
    are accumulated as exact field elements keyed by the path tuple.
    """
    fwd: dict = {}
    rev: dict = {}
    for seq in itertools.product(law.atoms, repeat=n):
        mass = math.prod(p for _, p in seq)
        steps = [j for j, _ in seq]
        path = tuple(np.cumsum(steps))
        rpath = tuple(np.cumsum(steps[::-1]))
        fwd[path] = fwd[path] + mass if path in fwd else mass
        rev[rpath] = rev[rpath] + mass if rpath in rev else mass
    if set(fwd) != set(rev):
        return False
    return all(fwd[k] == rev[k] for k in fwd)


def completeness_residual(law: LevelIncrementLaw, n: int,
                          mode: str = "exact"):
    """sum_m P[M_n = m, Y_n = 0] - P[Y_n = 0]: the ladder sum over every
    maximum against the unkilled run; zero when the ladder is complete."""
    walk = _law_walk(law, mode)
    top = max(j for j, _ in law.atoms)  # a maximum m needs 2m/top steps
    total = _max_laws(walk, [n], n * top // 2 + 1)[n].sum()
    return _value(total - return_to_zero(law, n, mode=mode), mode)


def bound_constant_scan(law: LevelIncrementLaw, n_grid, r_grid) -> dict:
    """Normalized ratio tables for the three ballot bounds (float mode).

    Reports sup over the grid of
      ballot_probability(n,r) * n^{3/2} / (r v 1),
      P[tau_r = k] * k^{3/2} / r,
      max_and_return(n,r) * n^{3/2} / (r v 1)^{3/2},
    and the assembled sum_r max_and_return(n,r) e^{-r t0} * n^{3/2}.
    Ballot and maximum tables for every (n, r) come from one sweep to
    max(n_grid); each barrier r needs its own hitting run.
    """
    t0_real = law.t0_lattice * float(np.log(float(law.base)))
    walk = _law_walk(law, "float")
    m_hi = (max(r_grid) + 1) * walk.t0
    ballots = _ballots(walk, n_grid, m_hi)
    maxes = _max_laws(walk, n_grid, m_hi)
    table, assembled = [], {}
    for n in n_grid:
        acc = 0.0
        for r in r_grid:
            bp = float(_window(walk, ballots[n], r))
            mr = float(_window(walk, maxes[n], r))
            acc += mr * np.exp(-r * t0_real)
            table.append((n, r, bp, mr, bp * n ** 1.5 / max(r, 1),
                          mr * n ** 1.5 / max(r, 1) ** 1.5))
        assembled[n] = acc * n ** 1.5
    sup_tau, n_tau = 0.0, max(n_grid)
    ks = np.arange(1, n_tau + 1)
    for r in [r for r in r_grid if r >= 1]:
        tau = hitting_time_law(law, r, n_tau, mode="float")
        sup_tau = max(sup_tau, float((tau[1:] * ks ** 1.5).max() / r))
    return {"sup_ballot": max([0.0] + [row[4] for row in table]),
            "sup_tau": sup_tau,
            "sup_max_and_return": max([0.0] + [row[5] for row in table]),
            "assembled": assembled, "table": table}

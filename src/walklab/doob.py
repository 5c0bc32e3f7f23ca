"""Square-root-biased (Doob) walk and ballot statistics of its level process.

h(x) = sqrt(m(x)) is rho-harmonic on the amenable-subgroup families, so
p_h(x,y) = p(x,y) h(y) / (rho h(x)) is a stochastic kernel whose return
probability at the root is the normalized sequence a_n = u_n / rho^n.
The level of the walk performs a symmetric finite-range lattice walk;
this module computes its increment law and its ballot-type statistics.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import sparse

from .chains import CollapsedChain, transpose_csr
from .models import LevelProfile, WalkModel
from .qfield import QuadExt, integer_pairs, sqrt_exact
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

def _doob_table(base, degree: int, rho: QuadExt, t0: int) -> np.ndarray:
    """s**k / (degree * rho) at index k + t0 for k = -t0..t0, s = sqrt(base):
    the h-walk weight of one neighbor k lattice units up."""
    s, inv = sqrt_exact(base), (degree * rho).inverse()
    return np.array([s ** k * inv for k in range(-t0, t0 + 1)], dtype=object)


@dataclass
class DoobChain:
    """Collapsed chain transformed by h = sqrt(base)**level.

    ``weights`` holds p_h of every entry of ``base_chain.csr``, in its
    order, as one object array of field elements of sqrt(base), so row
    sums, reversibility and the return series are exact.  All three read
    them as integer pairs, L p_h = A + B sqrt(D), ``pairs`` = (A, B, L, D)
    of `integer_pairs`, computed once.
    """
    base_chain: CollapsedChain
    weights: np.ndarray
    pairs = cached_property(lambda self: integer_pairs(self.weights.tolist()))

    def row_sum_check(self) -> list:
        """Indices of interior states whose row does not sum to 1: with
        L p_h = A + B sqrt(D), whose A do not sum to L or B to 0."""
        chain = self.base_chain
        m = chain.cone(chain.radius - 1)  # depth < radius: full rows
        A, B, L, _ = self.pairs
        # row sums: differences of the prefix sums at the rows' ends
        a, b = (np.diff(np.cumsum([0, *x], dtype=object)[
            np.asarray(chain.csr[0][:m + 1])]) for x in (A, B))
        return np.flatnonzero((a != L) | (b != 0)).tolist()

    def reversibility_check(self) -> dict:
        """Detailed balance with pi = (orbit size) * h**2, in integers.

        Orbit sizes N come from edge-count symmetry, N(S) c(S->S') =
        N(S') c(S'->S): N(root) = 1, and each other state reads N off its
        first entry in and that entry's reverse, or is a violation at that
        entry (i = j if none).  Entries between states of known N are then
        compared with their reverses (count and weight 0 if missing) as
        integers: N times the lcm of its denominators, h**2 = (P/Q)**level
        times P**-lo Q**hi (levels in [lo, hi]), and L p_h = A + B sqrt(D)."""
        chain = self.base_chain
        indptr, targets, counts = chain.csr
        ns, nnz = len(chain), len(targets)
        sources = np.repeat(np.arange(ns), np.diff(indptr))
        targets = np.asarray(targets, dtype=np.int64)
        keys, back = sources * ns + targets, targets * ns + sources
        order = np.argsort(keys)
        hit = order[np.minimum(np.searchsorted(keys, back, sorter=order),
                               nnz - 1)]
        rev = np.where(keys[hit] == back, hit, nnz)  # nnz: count, weight 0
        c, A, B = (np.array([*x, 0], dtype=object) for x in (
            counts, *self.pairs[:2]))
        first = np.full(ns, nnz)
        np.minimum.at(first, targets, np.arange(nnz))

        src, cl, rl = sources.tolist(), c.tolist(), rev.tolist()
        num, den = [None] * ns, [1] * ns  # orbit size num / den
        num[chain.root] = 1
        bad = []
        # BFS order: a state's first entry in comes from an earlier state
        for j, k in enumerate(first.tolist()):
            if j == chain.root:
                continue
            if k < nnz and cl[rl[k]] and num[src[k]] is not None:
                a, b = num[src[k]] * cl[k], den[src[k]] * cl[rl[k]]
                g = math.gcd(a, b)
                num[j], den[j] = a // g, b // g
            else:
                bad.append((src[k] if k < nnz else j, j, "orbit size unknown"))
        known = np.not_equal(num, None)
        N = (np.array([x or 0 for x in num], dtype=object)
             * (math.lcm(*den) // np.array(den, dtype=object)))
        lo, hi = min(chain.level), max(chain.level)
        P, Q = Fraction(chain.level_base).as_integer_ratio()
        h2 = {x: P ** (x - lo) * Q ** (hi - x) for x in set(chain.level)}
        pi = N * np.array([h2[x] for x in chain.level], dtype=object)
        e = np.flatnonzero(known[sources] & known[targets])
        i, j, r = sources[e], targets[e], rev[e]
        for kind, size, x in (("edge-count balance", N, c[:, None]),
                              ("detailed balance", pi, np.stack([A, B], 1))):
            miss = (size[i, None] * x[e] != size[j, None] * x[r]).any(1)
            bad += [(a, b, kind)
                    for a, b in zip(i[miss].tolist(), j[miss].tolist())]
        return {"ok": not bad, "violations": bad,
                "orbit_sizes_known": int(known.sum())}

    def return_series_exact(self, n_max: int) -> list:
        """a_n = root-return probability of the h-walk, exact QuadExt.

        Multiplication by A + B sqrt(D) is the integer matrix [[A, D B],
        [B, A]] on pairs (X, Y) for X + Y sqrt(D): state i becomes rows 2i
        and 2i + 1, at its depth, and one residue walk of L P_h reads both
        root rows, a_n = (X_n + Y_n sqrt(D)) / L**n.  Entries with B = 0
        leave their Y rows empty."""
        chain = self.base_chain
        chain._check_horizon(n_max, DoobError)
        A, B, L, D = self.pairs
        pull = [transpose_csr((*chain.csr[:2], np.array(x, np.int64)))
                for x in (A, [D * b for b in B], B)]  # raises past int64
        P = (sparse.kron(pull[0], np.eye(2, dtype=np.int64))
             + sparse.kron(pull[1], [[0, 1], [0, 0]])
             + sparse.kron(pull[2], [[0, 0], [1, 0]])).tocsr()
        P.eliminate_zeros()  # entries with B = 0 leave zeros
        pair = dataclasses.replace(chain, root=2 * chain.root,
                                   depth=np.repeat(chain.depth, 2).tolist())
        xy = pair.walk_entries(n_max, 1, (P.indptr, P.indices, P.data),
                               target=slice(pair.root, pair.root + 2))
        return [QuadExt(D, 1)] + [QuadExt(D, *(Fraction(v, L ** n) for v in x))
                                  for n, x in enumerate(xy, 1)]

    def return_series_float(self, n_max: int) -> np.ndarray:
        """a_n by the half walk of the h-walk's sqrt(p_h(i, j) p_h(j, i)) =
        A / rho, from the float weights.  `doob_chain` shares one weight
        object per (level step, count), so each object is floated once."""
        chain = self.base_chain
        chain._check_horizon(n_max, DoobError)
        ids = np.array([id(x) for x in self.weights.tolist()])
        _, first, index = np.unique(ids, return_index=True,
                                    return_inverse=True)
        return chain._half_walk(n_max, chain._symmetric(
            self.weights[first].astype(float)[index]))


def doob_chain(chain: CollapsedChain, rho: SpectralRadius) -> DoobChain:
    if chain.level_base is None:
        raise DoobError("chain has no level structure")
    if rho.exact is None:
        raise DoobError("doob transform needs the exact spectral radius")
    if not len(chain.csr[1]):
        raise DoobError(f"chain of horizon {chain.horizon} has no entries")
    indptr, targets, counts = map(np.asarray, chain.csr)
    level = np.asarray(chain.level)
    step = level[targets] - np.repeat(level, np.diff(indptr))
    table = np.multiply.outer(
        _doob_table(chain.level_base, chain.denom, rho.exact, chain.t0),
        np.arange(counts.max() + 1))
    # one product per (level step, count), shared by its entries
    dc = DoobChain(base_chain=chain, weights=table[step + chain.t0, counts])
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


def increment_law(profile: LevelProfile, rho: SpectralRadius) -> LevelIncrementLaw:
    """Law of the level jump of the h-walk: P[j] = t_q sqrt(q) / (d rho)."""
    if profile.base is None:
        raise DoobError("profile has no lattice structure")
    if rho.exact is None:
        raise DoobError("increment law needs the exact spectral radius")
    t0 = profile.t0_lattice
    table = _doob_table(profile.base, profile.degree, rho.exact, t0)
    atoms = sorted((j, t * table[j + t0]) for j, t in profile.lattice_entries())
    law = LevelIncrementLaw(atoms=atoms, base=profile.base, t0_lattice=t0)
    law.validate()
    return law


# ---------------------------------------------------------------------------
# Level-walk statistics: one killed-walk kernel and its readouts
# ---------------------------------------------------------------------------
#
# A level walk is a Markov-additive chain: start weights pi over chain
# states and moves (s, s2, j, p), a move from s to s2 with weight p that
# raises the level by j lattice units.  The increment law is the one-state
# case; `quasi` walks on the orbits of a schema.  Arrays v[..., s, i] hold
# the mass in state s at level a + i: float64, or the Python-int path
# counts of an exact walk, which `_Walk.readout` turns into probabilities.
# Windows are half-open [r*t0, (r+1)*t0) in lattice units.  Each public
# call builds its own table and `_window_at` reads one window of it; no
# workload asks one (law, n) twice, so no table is kept.


@dataclass
class _Walk:
    pi: np.ndarray   # start weights over chain states
    moves: list      # (s, s2, j, p)
    t0: int
    scale: Optional[tuple] = None  # (lam, s, Q) of an exact walk

    def readout(self, x, k, shift=0):
        """x lam**k s**shift / Q, the probability of counts x after k steps
        `shift` levels up (arrays broadcast); a float walk's x as it is."""
        if self.scale is None:
            return x
        lam, s, Q = self.scale
        power = np.frompyfunc(pow, 2, 1)
        return x * (power(lam, k) / Q * power(s, shift))


def _count_walk(pi, moves, base, t0: int) -> _Walk:
    """An exact walk on counts: field moves p = c lam s**j, s = sqrt(base),
    c an integer (p_h is p conjugated by a diagonal), and pi = P / Q."""
    s = sqrt_exact(base)
    lam = moves[0][3] / s ** moves[0][2]
    c, irr, L, _ = integer_pairs([p / (lam * s ** j) for *_, j, p in moves])
    P, irr_pi, Q, _ = integer_pairs([s * 0 + x for x in pi])
    for what, x in zip([*moves, "start law"], [*irr, any(irr_pi)]):
        if x:
            raise DoobError(f"{what}: not c lam s**j with c rational")
    return _Walk(np.array(P, dtype=object),
                 [(*m[:3], x) for m, x in zip(moves, c)], t0, (lam / L, s, Q))


def _law_walk(law: LevelIncrementLaw, mode: str) -> _Walk:
    """The increment law as a one-state walk."""
    if mode == "exact":
        return _count_walk([1], [(0, 0, j, p) for j, p in law.atoms],
                           law.base, law.t0_lattice)
    if mode == "float":
        return _Walk(np.ones(1), [(0, 0, j, float(p)) for j, p in law.atoms],
                     law.t0_lattice)
    raise DoobError(f"unknown mode {mode!r}")


def _killed_walk(walk: _Walk, v, a: int, n: int, live):
    """Yield (k, v, a) after steps k = 1..n of `walk` started from (v, a).

    Leading axes of v are carried along, and a caller may zero cells of
    the yielded v before the next step.  live(k) = (lo, hi) bounds the
    levels kept after step k, None meaning unbounded.
    """
    down = min(j for _, _, j, _ in walk.moves)
    up = max(j for _, _, j, _ in walk.moves)
    for k in range(1, n + 1):
        lo, hi = live(k)
        width = v.shape[-1]
        na = a + down if lo is None else max(a + down, lo)
        nb = a + width + up if hi is None else min(a + width + up, hi)
        new = np.zeros(v.shape[:-1] + (max(nb - na, 0),), v.dtype)
        for s, s2, j, p in walk.moves:
            i0, i1 = max(na - a - j, 0), min(nb - a - j, width)
            if i0 < i1:
                shift = a + j - na
                new[..., s2, i0 + shift:i1 + shift] += p * v[..., s, i0:i1]
        v, a = new, na
        yield k, v, a


def _levels(v, a: int, lo: int, hi: int):
    """Mass of v at each level in [lo, hi), summed over chain states."""
    out = np.zeros(v.shape[:-2] + (hi - lo,), v.dtype)
    i0, i1 = max(lo, a), min(hi, a + v.shape[-1])
    if i0 < i1:
        out[..., i0 - lo:i1 - lo] = v[..., i0 - a:i1 - a].sum(axis=-2)
    return out


def _check(name: str, value: int, least: int) -> None:
    if value < least:
        raise DoobError(f"need {name} >= {least}, got {name} = {value}")


def _window_at(walk: _Walk, readout, n: int, r: int):
    """Window r, the last t0 levels, of the table `readout` builds for step
    n up to level (r + 1) t0."""
    _check("n", n, 1)
    _check("r", r, 0)
    return readout(walk, [n], (r + 1) * walk.t0)[n][r * walk.t0:].sum()


def _ballots(walk: _Walk, n_grid, m_hi: int) -> dict:
    """{n: P[Y_1..Y_{n-1} > 0, Y_n = m] for m in [0, m_hi)} for n in n_grid,
    read after each step of a run that then drops its mass at level 0."""
    out = {}
    for k, v, a in _killed_walk(walk, walk.pi[:, None], 0, max(n_grid),
                                lambda k: (0, None)):  # a stays 0
        if k in n_grid:
            out[k] = walk.readout(_levels(v, a, 0, m_hi), k, np.arange(m_hi))
        v[:, 0] = 0
    return out


def _hitting(walk: _Walk, barriers, n_max: int) -> np.ndarray:
    """Row i: P[Y_k >= barriers[i] for the first time], k = 0..n_max, from
    one killed run whose row i loses its mass at levels >= barriers[i] after
    each step; levels that cannot reach min(barriers) by n_max are dropped."""
    _check("n_max", n_max, 0)
    if not barriers:
        return np.zeros((0, n_max + 1), walk.pi.dtype)
    up = max(j for _, _, j, _ in walk.moves)
    lo, hi = min(barriers), max(barriers) + up  # one step of overshoot
    B, S = len(barriers), len(walk.pi)
    v = np.zeros((B, S, hi), walk.pi.dtype)  # levels 0..hi-1
    v[:, :, 0] = walk.pi
    cells = (np.asarray(barriers)[:, None] + np.arange(up))[:, None]
    hits = np.zeros((B, n_max + 1, S, up), v.dtype)
    for k, v, a in _killed_walk(walk, v, 0, n_max,
                                lambda k: (lo - (n_max - k) * up, hi)):
        hits[:, k] = np.take_along_axis(v, cells - a, -1)
        np.put_along_axis(v, cells - a, 0, -1)
    return walk.readout(hits, np.arange(n_max + 1)[:, None, None],
                        cells[:, None]).sum(axis=(2, 3))


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
    come back below m_hi by step max(n_grid).  Both halves climb m in the
    negated walk, so an exact walk reads out their count product at shift
    -2m.
    """
    neg = dataclasses.replace(
        walk, moves=[(s, s2, -j, p) for s, s2, j, p in walk.moves])
    fall = max(j for _, _, j, _ in walk.moves)
    last = max(n_grid)
    S = len(walk.pi)
    v = np.zeros((2, S, S, 2), walk.pi.dtype)  # (A or B, start, state, level)
    for s in range(S):
        v[0, s, s, 0], v[1, s, s, 1] = walk.pi[s], 1  # at levels -1 and 0
    table = np.zeros((last + 1, 2, S, m_hi + 1), v.dtype)
    table[0] = _levels(v, -1, -1, m_hi)
    for k, v, a in _killed_walk(neg, v, -1, last,
                                lambda k: (0, m_hi + (last - k) * fall)):
        table[k] = _levels(v, a, -1, m_hi)
    strict, weak = table[:, 0, :, :-1], table[:, 1, :, 1:]
    return {n: walk.readout((strict[n::-1] * weak[:n + 1]).sum(axis=(0, 1)),
                            n, -2 * np.arange(m_hi)) for n in n_grid}


def _value(x, mode):
    return float(x) if mode == "float" else x


def ballot_probability(law: LevelIncrementLaw, n: int, r: int,
                       mode: str = "exact"):
    """P[Y_j > 0 for j = 1..n-1, Y_n in window r]."""
    return _value(_window_at(_law_walk(law, mode), _ballots, n, r), mode)


def hitting_time_law(law: LevelIncrementLaw, r: int, n_max: int,
                     mode: str = "float"):
    """[P[tau_r = k] for k = 0..n_max], tau_r = first time Y >= r*t0;
    entry 0 is 0 as r >= 1."""
    _check("r", r, 1)
    out = _hitting(_law_walk(law, mode), [r * law.t0_lattice], n_max)[0]
    return out if mode == "float" else out.tolist()


def max_and_return(law: LevelIncrementLaw, n: int, r: int,
                   mode: str = "exact"):
    """P[max_{0<=j<=n} Y_j in window r, Y_n = 0]."""
    return _value(_window_at(_law_walk(law, mode), _max_laws, n, r), mode)


def return_to_zero(law: LevelIncrementLaw, n: int, mode: str = "exact"):
    """P[Y_n = 0] for the unconstrained increment walk."""
    _check("n", n, 0)
    walk = _law_walk(law, mode)
    v, a = walk.pi[:, None], 0
    for _, v, a in _killed_walk(walk, v, a, n, lambda k: (None, None)):
        pass
    return _value(walk.readout(_levels(v, a, 0, 1).sum(), n), mode)


def completeness_residual(law: LevelIncrementLaw, n: int,
                          mode: str = "exact"):
    """sum_m P[M_n = m, Y_n = 0] - P[Y_n = 0]: the ladder sum over every
    maximum against the unkilled run; zero when the ladder is complete."""
    zero = return_to_zero(law, n, mode=mode)  # checks n >= 0
    top = max(j for j, _ in law.atoms)  # a maximum m needs 2m/top steps
    total = _max_laws(_law_walk(law, mode), [n], n * top // 2 + 1)[n].sum()
    return _value(total - zero, mode)


def bound_constant_scan(law: LevelIncrementLaw, n_grid, r_grid) -> dict:
    """Normalized ratio tables for the three ballot bounds (float mode).

    Reports sup over the grid of
      ballot_probability(n,r) * n^{3/2} / (r v 1),
      P[tau_r = k] * k^{3/2} / r,
      max_and_return(n,r) * n^{3/2} / (r v 1)^{3/2},
    and the assembled sum_r max_and_return(n,r) e^{-r t0} * n^{3/2}.
    Ballot and maximum tables for every (n, r) come from one sweep to
    max(n_grid), and one stacked hitting run serves every barrier r.
    """
    if not (n_grid and r_grid):
        raise DoobError("need nonempty n and r grids")
    _check("n", min(n_grid), 1)
    _check("r", min(r_grid), 0)
    t0_real = law.t0_lattice * float(np.log(float(law.base)))
    walk = _law_walk(law, "float")
    m_hi = (max(r_grid) + 1) * walk.t0
    ballots = _ballots(walk, n_grid, m_hi)
    maxes = _max_laws(walk, n_grid, m_hi)
    table, assembled = [], {}
    for n in n_grid:
        acc = 0.0
        for r in r_grid:
            w = slice(r * walk.t0, (r + 1) * walk.t0)
            bp, mr = float(ballots[n][w].sum()), float(maxes[n][w].sum())
            acc += mr * np.exp(-r * t0_real)
            table.append((n, r, bp, mr, bp * n ** 1.5 / max(r, 1),
                          mr * n ** 1.5 / max(r, 1) ** 1.5))
        assembled[n] = acc * n ** 1.5
    rs, ks = [r for r in r_grid if r >= 1], np.arange(1, max(n_grid) + 1)
    taus = _hitting(walk, [r * walk.t0 for r in rs], max(n_grid))
    sup_tau = max([0.0] + [float((tau[1:] * ks ** 1.5).max() / r)
                           for r, tau in zip(rs, taus)])
    return {"sup_ballot": max([0.0] + [row[4] for row in table]),
            "sup_tau": sup_tau,
            "sup_max_and_return": max([0.0] + [row[5] for row in table]),
            "assembled": assembled, "table": table}

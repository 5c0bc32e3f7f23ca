"""Square-root-biased (Doob) walk and ballot statistics of its level process.

h(x) = sqrt(m(x)) is rho-harmonic on the amenable-subgroup families, so
p_h(x,y) = p(x,y) h(y) / (rho h(x)) is a stochastic kernel whose return
probability at the root is the normalized sequence a_n = u_n / rho^n.
The level of the walk performs a symmetric finite-range lattice walk;
this module computes its increment law and exact ballot-type DPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .chains import CollapsedChain
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
        bad = []
        for i, row in enumerate(self.rows):
            if not self.base_chain.interior(i):
                continue
            acc = None
            for _, p in row:
                acc = p if acc is None else acc + p
            if acc is None or acc != 1:
                bad.append(i)
        return bad

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
        order = sorted(range(len(chain.states)),
                       key=lambda i: chain.depth[i] if chain.depth else 0)
        for i in order:
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
        d = _field_disc(self.rows)
        one, zero = QuadExt(d, 1, 0), QuadExt(d, 0, 0)
        walk = self.base_chain.root_walk(n_max, one, rows=self.rows)
        return [one] + [x or zero for x in walk]

    def return_series_float(self, n_max: int) -> np.ndarray:
        from scipy import sparse
        nstates = len(self.rows)
        r_idx, c_idx, vals = [], [], []
        for i, row in enumerate(self.rows):
            for j, p in row:
                r_idx.append(j)
                c_idx.append(i)
                vals.append(float(p))
        P = sparse.csr_matrix((vals, (r_idx, c_idx)), shape=(nstates, nstates))
        w = np.zeros(nstates)
        w[self.base_chain.root] = 1.0
        out = np.empty(n_max + 1)
        out[0] = 1.0
        for n in range(1, n_max + 1):
            w = P @ w
            out[n] = w[self.base_chain.root]
        return out


def _field_disc(rows):
    for row in rows:
        for _, p in row:
            return p.d
    raise DoobError("empty chain")


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
        total = None
        for j, p in self.atoms:
            if float(p) < 0:
                raise DoobError(f"negative mass at {j}")
            if probs.get(-j) != p:
                raise DoobError(f"asymmetric law at step {j}")
            total = p if total is None else total + p
        if total != 1:
            raise DoobError(f"law mass {total} != 1")
        mean = sum(j * p for j, p in self.atoms)
        if mean != 0:
            raise DoobError(f"nonzero mean {mean}")

    def float_atoms(self) -> dict:
        return {j: float(p) for j, p in self.atoms}

    def support(self) -> list:
        return [j for j, _ in self.atoms]


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
# Ballot DPs
# ---------------------------------------------------------------------------
#
# Exact DPs carry QuadExt mass in dicts keyed by lattice position; float
# DPs use numpy arrays with a fixed offset.  Windows are half-open
# [r*t0, (r+1)*t0) in lattice units.


def ballot_probability(law: LevelIncrementLaw, n: int, r: int,
                       mode: str = "exact"):
    """P[Y_j > 0 for j = 1..n-1, Y_n in window r]."""
    if n < 1 or r < 0:
        raise DoobError("need n >= 1, r >= 0")
    t0 = law.t0_lattice
    lo, hi = r * t0, (r + 1) * t0
    if mode == "float":
        probs = law.float_atoms()
        span = n * t0
        v = np.zeros(2 * span + 1)
        v[span] = 1.0
        for step in range(1, n + 1):
            nv = np.zeros_like(v)
            for j, p in probs.items():
                if j >= 0:
                    nv[j:] += p * v[:len(v) - j] if j else p * v
                else:
                    nv[:j] += p * v[-j:]
            if step < n:
                nv[:span + 1] = 0.0  # kill positions <= 0
            v = nv
        return float(v[span + lo: span + hi].sum())
    dist = {0: _one(law)}
    for step in range(1, n + 1):
        nd = {}
        for pos, mass in dist.items():
            for j, p in law.atoms:
                key = pos + j
                contrib = mass * p
                nd[key] = nd[key] + contrib if key in nd else contrib
        if step < n:
            nd = {k: v for k, v in nd.items() if k > 0}
        dist = nd
    acc = None
    for pos, mass in dist.items():
        if lo <= pos < hi:
            acc = mass if acc is None else acc + mass
    return acc if acc is not None else _zero(law)


def hitting_time_law(law: LevelIncrementLaw, r: int, n_max: int,
                     mode: str = "float"):
    """P[tau_r = k] for k = 1..n_max, tau_r = first time Y >= r*t0."""
    if r < 1:
        raise DoobError("need r >= 1")
    barrier = r * law.t0_lattice
    if mode == "float":
        probs = law.float_atoms()
        t0 = law.t0_lattice
        lo = -n_max * t0
        size = barrier - lo  # positions lo .. barrier-1
        v = np.zeros(size)
        v[-barrier] = 1.0  # position 0 at index pos - lo
        out = np.zeros(n_max + 1)
        for k in range(1, n_max + 1):
            nv = np.zeros(size)
            absorbed = 0.0
            for j, p in probs.items():
                if j >= 0:
                    shifted = np.zeros(size + j)
                    shifted[j:] = p * v
                    absorbed += shifted[size:].sum()
                    nv += shifted[:size]
                else:
                    nv[:j] += p * v[-j:]
            out[k] = absorbed
            v = nv
        return out
    dist = {0: _one(law)}
    out = [_zero(law)]
    for _ in range(n_max):
        nd = {}
        absorbed = _zero(law)
        for pos, mass in dist.items():
            for j, p in law.atoms:
                key = pos + j
                contrib = mass * p
                if key >= barrier:
                    absorbed = absorbed + contrib
                else:
                    nd[key] = nd[key] + contrib if key in nd else contrib
        out.append(absorbed)
        dist = nd
    return out


def max_and_return(law: LevelIncrementLaw, n: int, r: int,
                   mode: str = "exact"):
    """P[max_{0<=j<=n} Y_j in window r, Y_n = 0].

    The DP tracks (position, whether the max has entered window r); mass
    whose position reaches window r+1 or above is discarded.
    """
    if r < 0 or n < 1:
        raise DoobError("need n >= 1, r >= 0")
    t0 = law.t0_lattice
    lo, hi = r * t0, (r + 1) * t0
    if mode == "float":
        probs = law.float_atoms()
        offset = n * t0  # position p at index p + offset; valid p < hi
        size = offset + hi
        below = np.zeros(size)
        inwin = np.zeros(size)
        if r == 0:
            inwin[offset] = 1.0
        else:
            below[offset] = 1.0
        for _ in range(n):
            nb = np.zeros(size)
            ni = np.zeros(size)
            for j, p in probs.items():
                if j >= 0:
                    if j:
                        shifted_b = np.concatenate([np.zeros(j), p * below])[:size + j]
                        shifted_i = np.concatenate([np.zeros(j), p * inwin])[:size + j]
                    else:
                        shifted_b, shifted_i = p * below, p * inwin
                    sb = shifted_b[:size]
                    si = shifted_i[:size]
                    # below-mass entering the window becomes inwindow
                    ni[offset + lo:] += sb[offset + lo:]
                    sb = sb.copy()
                    sb[offset + lo:] = 0.0
                    nb += sb
                    ni += si
                else:
                    nb[:j] += p * below[-j:]
                    ni[:j] += p * inwin[-j:]
            below, inwin = nb, ni
        return float(inwin[offset])
    state = {}
    if r == 0:
        state[(0, 1)] = _one(law)
    else:
        state[(0, 0)] = _one(law)
    for _ in range(n):
        ns = {}
        for (pos, cat), mass in state.items():
            for j, p in law.atoms:
                npos = pos + j
                if npos >= hi:
                    continue
                ncat = 1 if (cat == 1 or npos >= lo) else 0
                key = (npos, ncat)
                contrib = mass * p
                ns[key] = ns[key] + contrib if key in ns else contrib
        state = ns
    return state.get((0, 1), _zero(law))


def return_to_zero(law: LevelIncrementLaw, n: int, mode: str = "exact"):
    """P[Y_n = 0] for the unconstrained increment walk."""
    if mode == "float":
        probs = law.float_atoms()
        t0 = law.t0_lattice
        span = n * t0
        v = np.zeros(2 * span + 1)
        v[span] = 1.0
        for _ in range(n):
            nv = np.zeros_like(v)
            for j, p in probs.items():
                if j >= 0:
                    nv[j:] += p * v[:len(v) - j] if j else p * v
                else:
                    nv[:j] += p * v[-j:]
            v = nv
        return float(v[span])
    dist = {0: _one(law)}
    for _ in range(n):
        nd = {}
        for pos, mass in dist.items():
            for j, p in law.atoms:
                key = pos + j
                contrib = mass * p
                nd[key] = nd[key] + contrib if key in nd else contrib
        dist = nd
    return dist.get(0, _zero(law))


def reversal_check(law: LevelIncrementLaw, n: int) -> bool:
    """Exact check that (Y_1,..,Y_n) and (Y_n - Y_{n-1},..,Y_n) agree in law.

    Brute force over all increment sequences of length n; the joint laws
    are accumulated as exact field elements keyed by the path tuple.
    """
    import itertools
    fwd: dict = {}
    rev: dict = {}
    for seq in itertools.product(law.atoms, repeat=n):
        mass = _one(law)
        for _, p in seq:
            mass = mass * p
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
    """sum_r max_and_return(n, r) - P[Y_n = 0]; zero when the DP is complete."""
    acc = None
    for r in range(0, n + 1):
        term = max_and_return(law, n, r, mode=mode)
        acc = term if acc is None else acc + term
    target = return_to_zero(law, n, mode=mode)
    return acc - target


def bound_constant_scan(law: LevelIncrementLaw, n_grid, r_grid) -> dict:
    """Normalized ratio tables for the three ballot bounds (float mode).

    Reports sup over the grid of
      ballot_probability(n,r) * n^{3/2} / (r v 1),
      P[tau_r = k] * k^{3/2} / r,
      max_and_return(n,r) * n^{3/2} / (r v 1)^{3/2},
    and the assembled sum_r max_and_return(n,r) e^{-r t0} * n^{3/2}.
    """
    t0_real = law.t0_lattice * float(np.log(float(law.base)))
    table = []
    sup_ballot = sup_max = 0.0
    assembled = {}
    for n in n_grid:
        acc = 0.0
        for r in r_grid:
            bp = ballot_probability(law, n, r, mode="float")
            mr = max_and_return(law, n, r, mode="float")
            nb = bp * n ** 1.5 / max(r, 1)
            nm = mr * n ** 1.5 / max(r, 1) ** 1.5
            sup_ballot = max(sup_ballot, nb)
            sup_max = max(sup_max, nm)
            acc += mr * np.exp(-r * t0_real)
            table.append((n, r, bp, mr, nb, nm))
        assembled[n] = acc * n ** 1.5
    sup_tau = 0.0
    n_tau = max(n_grid)
    for r in [r for r in r_grid if r >= 1]:
        tau = hitting_time_law(law, r, n_tau, mode="float")
        ks = np.arange(1, n_tau + 1)
        sup_tau = max(sup_tau, float((tau[1:] * ks ** 1.5).max() / r))
    return {"sup_ballot": sup_ballot, "sup_tau": sup_tau,
            "sup_max_and_return": sup_max, "assembled": assembled,
            "table": table}


def _one(law: LevelIncrementLaw):
    p = law.atoms[0][1]
    return QuadExt(p.d, 1, 0)


def _zero(law: LevelIncrementLaw):
    p = law.atoms[0][1]
    return QuadExt(p.d, 0, 0)

"""Orbit schemas for quasi-transitive actions, the associated symmetric
matrix, its Perron eigenpair, and the induced chain with its ballot
statistics, read from the killed-walk kernel of `walklab.doob`: a float
chain walks its probabilities, and an exact one counts integer paths,
read out as field elements of sqrt(base) by the Doob factor.

An orbit schema records, for each ordered pair of vertex orbits (i, j)
and each stabilizer ratio q, the number N_{i,j,q} of neighbors in orbit
j at ratio q seen from a vertex of orbit i.  Everything downstream (the
matrix a(i,j) = sum_q N_{i,j,q} sqrt(q) / sqrt(d_i d_j), the stationary
law pi = v^2, the mean-zero increment identity, the induced chain on
triples) is built from these counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .doob import (_Walk, _ballots, _count_walk, _hitting, _max_laws,
                   _window_at)
from .models import LevelProfile, ModelError, _ratio_to_lattice
from .qfield import sqrt_exact


class SchemaError(ValueError):
    pass


def _ratio_power(q: Fraction, base: Fraction) -> Optional[int]:
    try:
        return _ratio_to_lattice(q, base)
    except ModelError:
        return None


def _common_base(qs) -> Optional[Fraction]:
    above = sorted(q for q in qs if q > 1)
    if not above:
        return None
    base = above[0]
    if all(_ratio_power(q, base) is not None for q in qs):
        return base
    return None


@dataclass
class OrbitSchema:
    L: int
    degrees: list                 # d_i, 1-based conceptually, index i-1
    counts: dict                  # (i, j, Fraction q) -> int, 1-based i, j
    base: Optional[Fraction] = None

    def __post_init__(self):
        if self.base is None:
            self.base = _common_base({q for (_, _, q) in self.counts})

    def validate(self) -> None:
        for i in range(1, self.L + 1):
            total = sum(n for (a, _, _), n in self.counts.items() if a == i)
            if total != self.degrees[i - 1]:
                raise SchemaError(
                    f"orbit {i}: neighbor counts sum to {total}, "
                    f"degree is {self.degrees[i - 1]}")
        for (i, j, q), n in self.counts.items():
            if n < 0:
                raise SchemaError(f"negative count at {(i, j, q)}")
            mirror = self.counts.get((j, i, 1 / q), 0)
            if Fraction(n) != Fraction(mirror) / q:
                raise SchemaError(
                    f"count balance fails at (i={i}, j={j}, q={q}): "
                    f"N={n} but N_mirror/q = {Fraction(mirror) / q}")

    def lattice_step(self, q: Fraction) -> int:
        if self.base is None:
            raise SchemaError("schema ratios are not on a common lattice")
        j = _ratio_power(q, self.base)
        if j is None:
            raise SchemaError(f"ratio {q} off the lattice of base {self.base}")
        return j

    @property
    def t0_lattice(self) -> int:
        return max((abs(self.lattice_step(q)) for (_, _, q) in self.counts
                    if q != 1), default=0)


def parse_schema(text: str) -> OrbitSchema:
    """Parse lines "i j q_num q_den count" into a validated schema."""
    counts = {}
    for raw in text.splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise SchemaError(f"bad schema line {raw!r}")
        i, j, qn, qd, n = (int(p) for p in parts)
        if qn <= 0 or qd <= 0:
            raise SchemaError(f"nonpositive ratio in {raw!r}")
        key = (i, j, Fraction(qn, qd))
        counts[key] = counts.get(key, 0) + n
    if not counts:
        raise SchemaError("empty schema")
    L = max(max(i, j) for (i, j, _) in counts)
    degrees = [sum(n for (a, _, _), n in counts.items() if a == i)
               for i in range(1, L + 1)]
    schema = OrbitSchema(L=L, degrees=degrees, counts=counts)
    schema.validate()
    return schema


def schema_from_profile(profile: LevelProfile) -> OrbitSchema:
    """The L=1 schema of a transitive model."""
    counts = {(1, 1, Fraction(q)): t for q, t in profile.entries}
    schema = OrbitSchema(L=1, degrees=[profile.degree], counts=counts,
                         base=profile.base)
    schema.validate()
    return schema


def parity_schema(profile: LevelProfile) -> OrbitSchema:
    """Two-orbit refinement by level parity; every edge must flip parity."""
    if profile.base is None:
        raise SchemaError("parity refinement needs a level structure")
    counts = {}
    for (q, t), (j, _) in zip(profile.entries, profile.lattice_entries()):
        if j % 2 == 0:
            raise SchemaError(
                f"edge with even level step {j} does not flip parity")
        counts[(1, 2, Fraction(q))] = t
        counts[(2, 1, Fraction(q))] = t
    schema = OrbitSchema(L=2, degrees=[profile.degree] * 2, counts=counts,
                         base=profile.base)
    schema.validate()
    return schema


# ---------------------------------------------------------------------------
# Matrix and eigenpair
# ---------------------------------------------------------------------------

def a_matrix(schema: OrbitSchema) -> np.ndarray:
    L = schema.L
    A = np.zeros((L, L))
    for (i, j, q), n in schema.counts.items():
        A[i - 1, j - 1] += n * float(sqrt_exact(q)) / np.sqrt(
            schema.degrees[i - 1] * schema.degrees[j - 1])
    if not np.allclose(A, A.T, rtol=0, atol=1e-13):
        raise SchemaError("matrix is not symmetric; schema violates balance")
    return A


@dataclass
class PerronData:
    A: np.ndarray
    rho: float
    v: np.ndarray
    pi: np.ndarray
    residual: float
    iterations: int


def _irreducible(A: np.ndarray) -> bool:
    L = len(A)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(L):
            if j not in seen and (A[i, j] != 0 or A[j, i] != 0):
                seen.add(j)
                frontier.append(j)
    return len(seen) == L


def perron(A: np.ndarray) -> PerronData:
    """Dominant eigenpair of a nonnegative symmetric irreducible matrix:
    rho is the largest eigenvalue of `numpy.linalg.eigh`, and v the unit
    solution of (s I - A) v = |its eigenvector|, s = (1 + 1e-9) rho, whose
    inverse is a positive matrix: one inverse-iteration step, accurate in
    components far below eigh's normwise error of about 1e-15."""
    A = np.asarray(A, dtype=float)
    if np.any(A < 0):
        raise SchemaError("matrix has negative entries")
    if not _irreducible(A):
        raise SchemaError("matrix is reducible")
    w, V = np.linalg.eigh(A)
    rho = float(w[-1])
    if rho <= 0:
        raise SchemaError("zero matrix")
    v = np.linalg.solve((1 + 1e-9) * rho * np.eye(len(A)) - A,
                        np.abs(V[:, -1]))
    v /= np.linalg.norm(v)
    if np.any(v <= 0):
        raise SchemaError("eigenvector not strictly positive")
    residual = float(np.linalg.norm(A @ v - rho * v))
    pi = v ** 2
    pi = pi / pi.sum()
    return PerronData(A=A, rho=rho, v=v, pi=pi, residual=residual,
                      iterations=0)


# ---------------------------------------------------------------------------
# Stationarity and mean-zero increment
# ---------------------------------------------------------------------------

def transfer_matrix(schema: OrbitSchema, perron_data: PerronData) -> np.ndarray:
    """P_h(i,j) = a(i,j) v_j / (rho v_i)
    = sum_q N_{i,j,q} sqrt(q) v_j / (rho v_i sqrt(d_i d_j))."""
    v = perron_data.v
    return a_matrix(schema) * v[None, :] / (perron_data.rho * v[:, None])


def stationary_and_mean_checks(schema: OrbitSchema,
                               perron_data: PerronData) -> dict:
    P = transfer_matrix(schema, perron_data)
    pi = perron_data.pi
    row_defect = float(np.abs(P.sum(axis=1) - 1).max())
    stat_resid = float(np.abs(pi @ P - pi).max())
    mean = 0.0
    pair_cancellation = True
    for (i, j, q), n in schema.counts.items():
        w = (n * float(sqrt_exact(q)) * perron_data.v[i - 1]
             * perron_data.v[j - 1]
             / (perron_data.rho * np.sqrt(schema.degrees[i - 1]
                                          * schema.degrees[j - 1])))
        mean += w * float(np.log(float(q)))
        # exact cancellation partner: coefficient of (j, i, 1/q) must
        # carry the same sqrt(q)-weight, which reduces to count balance
        mirror = schema.counts.get((j, i, 1 / q), 0)
        if Fraction(mirror) != q * n:
            pair_cancellation = False
    return {
        "row_defect": row_defect,
        "stationarity_residual": stat_resid,
        "mean_increment": mean,
        "pairwise_cancellation_exact": pair_cancellation,
    }


# ---------------------------------------------------------------------------
# Induced chain on Omega = {(i, j, q)} and its ballot statistics
# ---------------------------------------------------------------------------

STOCHASTIC_TOL = 1e-12   # |mass - 1| allowed in a float chain's laws


@dataclass
class MarkovAdditiveChain:
    states: list              # (i, j, q) triples with N > 0
    initial: list             # probabilities (float or QuadExt)
    trans: list               # trans[s][s'] probability
    steps: list               # lattice increment attached to entering a state
    t0_lattice: int
    exact: bool
    base: Optional[Fraction] = None  # the schema's lattice base

    def validate(self) -> None:
        tot = sum(float(p) for p in self.initial)
        if abs(tot - 1) > STOCHASTIC_TOL:
            raise SchemaError(f"initial law mass {tot}")
        for s, row in enumerate(self.trans):
            rs = sum(float(p) for p in row)
            if abs(rs - 1) > STOCHASTIC_TOL:
                raise SchemaError(f"row {s} sums to {rs}")


def induced_chain(schema: OrbitSchema, perron_data: PerronData,
                  exact: bool = False) -> MarkovAdditiveChain:
    """Chain on neighbor triples carrying the level increment log q.

    Exact mode is available when the eigenvector is uniform, which is
    checked structurally (all degrees equal and identical formal rows);
    transition weights then live in the quadratic field of the ratios.
    """
    states = sorted((i, j, q) for (i, j, q), n in schema.counts.items() if n > 0)
    L, deg = schema.L, schema.degrees
    if exact:
        if not _uniform_eigenvector(schema):
            raise SchemaError("exact mode needs a structurally uniform "
                              "eigenvector")
        # v_i = 1/sqrt(L): pi = 1/L and every ratio v_j / v_i is 1
        root, v, pi = sqrt_exact, [1] * L, [Fraction(1, L)] * L
        rho = sum(n * sqrt_exact(q) for (i, _, q), n in schema.counts.items()
                  if i == 1) / deg[0]
    else:
        v, rho, pi = perron_data.v, perron_data.rho, perron_data.v ** 2

        def root(x):
            return float(sqrt_exact(x))

    def weight(i, j, q):
        """P_h(i, j): crossing to orbit j at ratio q, seen from orbit i."""
        return (schema.counts[(i, j, q)] * root(q) * v[j - 1]
                / (rho * v[i - 1] * root(deg[i - 1] * deg[j - 1])))

    initial = [pi[i - 1] * weight(i, j, q) for (i, j, q) in states]
    trans = [[weight(*s2) if s2[0] == s[1] else 0 * rho for s2 in states]
             for s in states]
    if not exact:
        # stochastic to rounding, not only to the Perron residual
        initial = list(np.divide(initial, sum(initial)))
        trans = [list(np.divide(row, sum(row))) for row in trans]
    steps = [schema.lattice_step(q) for (_, _, q) in states]
    chain = MarkovAdditiveChain(states=states, initial=initial, trans=trans,
                                steps=steps, t0_lattice=schema.t0_lattice,
                                exact=exact, base=schema.base)
    chain.validate()
    return chain


def _uniform_eigenvector(schema: OrbitSchema) -> bool:
    if len(set(schema.degrees)) != 1:
        return False
    rows = []
    for i in range(1, schema.L + 1):
        row: dict = {}
        for (a, _, q), n in schema.counts.items():
            if a == i:
                row[q] = row.get(q, 0) + n
        rows.append(row)
    return all(r == rows[0] for r in rows)


def _orbit_walk(chain: MarkovAdditiveChain) -> _Walk:
    """The chain as a walk on vertex orbits.

    State (i, j, q) is the crossing of an edge from orbit i to orbit j;
    its probability is the same from every state that ends in orbit i,
    and its initial probability is pi(i) times it, so the walk moves
    between orbits with the lattice step of q.  An exact chain's walk
    steps the integer counts of these moves (`doob._count_walk`).
    """
    L = max(j for _, j, _ in chain.states)
    into = {j: s for s, (_, j, _) in enumerate(chain.states)}
    pi = [0] * L
    for s, (i, _, _) in enumerate(chain.states):
        pi[i - 1] += chain.initial[s]
    moves = [(i - 1, j - 1, chain.steps[s], chain.trans[into[i]][s])
             for s, (i, j, _) in enumerate(chain.states)]
    if chain.exact:
        return _count_walk(pi, moves, chain.base, chain.t0_lattice)
    return _Walk(np.array(pi), moves, chain.t0_lattice)


def mb_ballot_probability(chain: MarkovAdditiveChain, n: int, r: int):
    """P[Y_j > 0 for j = 1..n-1, Y_n in window r] for the additive level."""
    return _window_at(_orbit_walk(chain), _ballots, n, r)


def mb_max_and_return(chain: MarkovAdditiveChain, n: int, r: int):
    """P[max_{0<=j<=n} Y_j in window r, Y_n = 0] for the additive level."""
    return _window_at(_orbit_walk(chain), _max_laws, n, r)


def mb_hitting_time_law(chain: MarkovAdditiveChain, r: int, n_max: int):
    """[P[tau_r = k] for k = 0..n_max], tau_r the first time the additive
    level reaches r*t0; entry 0 is 0 as r >= 1."""
    if r < 1:
        raise SchemaError("need r >= 1")
    walk = _orbit_walk(chain)
    return _hitting(walk, [r * walk.t0], n_max)[0].tolist()
